//! Differential test of the stream prefetcher: the shipped
//! `StreamPrefetcher` (parallel-array table, region hint, closed-form
//! run-ahead window) against the original array-of-structs version, kept
//! here verbatim as the oracle.
//!
//! Both see the same address streams: the demand streams of the four
//! sweep-reuse traces, plus adversarial streams for the corners the
//! closed form and the hint must get right (descending to line 0, more
//! live regions than table slots, page handoffs, same-line repeats). Every
//! observation must return the same candidates in the same order, and the
//! issued counts must agree.

use bv_sim::StreamPrefetcher;
use bv_testkit::Rng;
use bv_trace::TraceRegistry;

/// The pre-parallel-array prefetcher, unchanged apart from its doc
/// example and unit tests.
mod oracle {
    const REGION_BITS: u32 = 12; // 4 KB regions
    const TABLE_SIZE: usize = 64;

    #[derive(Clone, Copy, Debug)]
    struct StreamEntry {
        region: u64,
        last_line: u64,
        delta: i64,
        confidence: u8,
        last_issued: u64,
        lru: u64,
    }

    /// A per-core multi-stream prefetcher.
    #[derive(Clone, Debug)]
    pub struct StreamPrefetcher {
        degree: u32,
        table: Vec<StreamEntry>,
        clock: u64,
        issued: u64,
    }

    impl StreamPrefetcher {
        /// Creates a prefetcher issuing `degree` lines ahead (0 disables it).
        #[must_use]
        pub fn new(degree: u32) -> StreamPrefetcher {
            StreamPrefetcher {
                degree,
                table: Vec::with_capacity(TABLE_SIZE),
                clock: 0,
                issued: 0,
            }
        }

        /// Total prefetch addresses issued.
        #[must_use]
        pub fn issued(&self) -> u64 {
            self.issued
        }

        /// Observes a demand access to `byte_addr` and returns the byte
        /// addresses to prefetch (possibly empty).
        pub fn observe(&mut self, byte_addr: u64) -> Vec<u64> {
            if self.degree == 0 {
                return Vec::new();
            }
            self.clock += 1;
            let line = byte_addr >> 6;
            let region = byte_addr >> REGION_BITS;

            let pos = self.table.iter().position(|e| e.region == region);
            let mut out = Vec::new();
            match pos {
                Some(i) => {
                    let mut e = self.table[i];
                    let delta = line as i64 - e.last_line as i64;
                    if delta == 0 {
                        // Same line: nothing to learn.
                    } else if delta == e.delta {
                        e.confidence = e.confidence.saturating_add(1);
                    } else {
                        e.delta = delta;
                        e.confidence = 1;
                    }
                    e.last_line = line;
                    e.lru = self.clock;
                    if e.confidence >= 1 && e.delta != 0 {
                        // Run ahead of the demand stream without re-issuing
                        // lines already covered.
                        for k in 1..=i64::from(self.degree) {
                            let target = line as i64 + e.delta * k;
                            if target <= 0 {
                                break;
                            }
                            let target = target as u64;
                            if e.last_issued == 0
                                || (e.delta > 0 && target > e.last_issued)
                                || (e.delta < 0 && target < e.last_issued)
                            {
                                out.push(target << 6);
                                e.last_issued = target;
                            }
                        }
                    }
                    self.table[i] = e;
                }
                None => {
                    // Page handoff: if an existing stream predicts this line
                    // as its next step, carry the training into the new
                    // region instead of starting cold (hardware streamers do
                    // the same at page boundaries).
                    let inherited = self
                        .table
                        .iter()
                        .find(|e| e.delta != 0 && e.last_line as i64 + e.delta == line as i64)
                        .map(|e| (e.delta, e.confidence, e.last_issued));
                    if self.table.len() == TABLE_SIZE {
                        // Replace the least recently used stream.
                        let oldest = self
                            .table
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| e.lru)
                            .map(|(i, _)| i)
                            .expect("table non-empty");
                        self.table.swap_remove(oldest);
                    }
                    let (delta, confidence, last_issued) = inherited.unwrap_or((0, 0, 0));
                    let mut entry = StreamEntry {
                        region,
                        last_line: line,
                        delta,
                        confidence,
                        last_issued,
                        lru: self.clock,
                    };
                    if entry.confidence >= 1 && entry.delta != 0 {
                        for k in 1..=i64::from(self.degree) {
                            let target = line as i64 + entry.delta * k;
                            if target <= 0 {
                                break;
                            }
                            let target = target as u64;
                            if entry.last_issued == 0
                                || (entry.delta > 0 && target > entry.last_issued)
                                || (entry.delta < 0 && target < entry.last_issued)
                            {
                                out.push(target << 6);
                                entry.last_issued = target;
                            }
                        }
                    }
                    self.table.push(entry);
                }
            }
            self.issued += out.len() as u64;
            out
        }
    }
}

const DEGREES: [u32; 4] = [0, 1, 4, 16];

/// The sweep-reuse benchmark's trace panel.
const SWEEP_TRACES: [&str; 4] = [
    "specfp.wrf.12",
    "specint.mcf.07",
    "productivity.winrar.01",
    "client.3dmark.03",
];

/// Demand addresses per sweep-reuse trace (1M in total).
const EVENTS_PER_TRACE: usize = 250_000;

const REGION_BYTES: u64 = 4096;

/// Feeds `addrs` to both prefetchers at every degree in [`DEGREES`] and
/// requires identical candidates per observation and identical issued
/// counts. Returns the candidates issued at the highest degree, so a
/// stream can show it exercised the path it was written for.
fn assert_same(name: &str, addrs: &[u64]) -> u64 {
    let mut issued_at_max = 0;
    for degree in DEGREES {
        let mut want = oracle::StreamPrefetcher::new(degree);
        let mut got = StreamPrefetcher::new(degree);
        // `observe` appends: a sentinel in front must survive each call.
        let mut out = vec![u64::MAX];
        for (i, &addr) in addrs.iter().enumerate() {
            out.truncate(1);
            let expected = want.observe(addr);
            got.observe(addr, &mut out);
            assert_eq!(out[0], u64::MAX, "{name}: observe cleared the buffer");
            assert_eq!(
                &out[1..],
                expected.as_slice(),
                "{name}, degree {degree}: observation {i} of {addr:#x}"
            );
        }
        assert_eq!(got.issued(), want.issued(), "{name}, degree {degree}");
        issued_at_max = got.issued();
    }
    issued_at_max
}

#[test]
fn sweep_reuse_demand_streams_match_the_oracle() {
    let registry = TraceRegistry::paper_default();
    for name in SWEEP_TRACES {
        let trace = registry.get(name).expect("sweep trace in registry");
        let mut gen = trace.workload.generator();
        let addrs: Vec<u64> = (0..EVENTS_PER_TRACE)
            .map(|_| gen.next_event().addr)
            .collect();
        let issued = assert_same(name, &addrs);
        assert!(issued > 0, "{name} trains no stream");
    }
}

#[test]
fn descending_streams_to_line_zero_match_the_oracle() {
    let mut addrs = Vec::new();
    for step in [1u64, 2, 3, 5, 7, 16, 63] {
        // Walk down to (or just past) line 0 from inside the second
        // region, so run-ahead windows hit the `target <= 0` stop.
        let mut line = 70 + step;
        loop {
            addrs.push(line * 64 + (step % 64));
            if line < step {
                break;
            }
            line -= step;
        }
        addrs.extend([0, 0, 64, 0]);
    }
    assert!(assert_same("descending", &addrs) > 0);
}

#[test]
fn more_live_regions_than_table_slots_match_the_oracle() {
    let mut addrs = Vec::new();
    // 150 interleaved ascending and descending streams, round robin: the
    // 64-entry table replaces its LRU stream on almost every access, and
    // hint slots are reused by unrelated regions.
    for round in 0..40u64 {
        for s in 0..150u64 {
            let base = (s * 37 + 5) * REGION_BYTES;
            let line = if s % 2 == 0 { round } else { 63 - round };
            addrs.push(base + line * 64);
        }
        // Revisit a few recent streams so some survive.
        for s in 140..150u64 {
            let base = (s * 37 + 5) * REGION_BYTES;
            addrs.push(base + (round + 1) * 64);
        }
    }
    assert_same("many regions", &addrs);
}

#[test]
fn page_handoffs_match_the_oracle() {
    let mut addrs = Vec::new();
    for (start, stride) in [
        (1u64, 1i64),
        (1 << 14, 3),
        (1 << 15, 17),
        (1 << 16, -1),
        (1 << 17, -5),
    ] {
        // Each stream crosses many 4 KB boundaries; the handoff carries
        // its training (and last issued line) into the next region.
        let mut line = start as i64 * 64;
        for _ in 0..600 {
            addrs.push(line as u64 * 64);
            line += stride;
        }
    }
    // Two streams whose next steps both land on line 18 of region `r`:
    // one ascending by 40 lines from region r-1, one descending by 50
    // from region r+1. The first in table order is inherited, so try
    // both orders.
    let at = |region: u64, line: u64| (region * 64 + line) * 64;
    for (r, ascending_first) in [(0x123, true), (0x456, false)] {
        let up = [at(r - 1, 2), at(r - 1, 42)];
        let down = [at(r + 1, 54), at(r + 1, 4)];
        let (a, b) = if ascending_first {
            (up, down)
        } else {
            (down, up)
        };
        addrs.extend(a.into_iter().chain(b).chain([at(r, 18), at(r, 58)]));
    }
    assert!(assert_same("page handoffs", &addrs) > 0);
}

#[test]
fn same_line_repeats_match_the_oracle() {
    let mut addrs = Vec::new();
    for i in 0..500u64 {
        let line = 0x4000 + i / 3; // each line three times
        addrs.push(line * 64 + (i % 3) * 8);
    }
    for i in 0..200u64 {
        addrs.push(0x9000 * 64 + (i % 2) * 64); // ping-pong between two lines
    }
    assert!(assert_same("same-line repeats", &addrs) > 0);
}

#[test]
fn random_walks_match_the_oracle() {
    let mut rng = Rng::new(0xb5);
    let mut addrs = Vec::with_capacity(200_000);
    let mut line: i64 = 1 << 12;
    for _ in 0..200_000 {
        match rng.below(16) {
            0 => line = rng.range_i64(0, 1 << 14),
            1 => line += rng.range_i64(-70, 70),
            _ => {}
        }
        line = (line + rng.range_i64(-2, 3)).max(0);
        addrs.push(line as u64 * 64 + rng.below(64));
    }
    assert!(assert_same("random walks", &addrs) > 0);
}
