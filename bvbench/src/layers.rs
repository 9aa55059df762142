//! The traced replay of one simulation job: the single-core drive loop
//! rebuilt from public calls, with a span at every layer boundary.
//!
//! Nothing inside the simulator is instrumented. The benchmark wraps the
//! LLC organization in [`TimedLlc`] (an `LlcOrganization` decorator) and,
//! on base-victim jobs, injects a [`TimedCompressor`] through
//! `BaseVictimLlc::with_compressor`. DRAM is not reachable from outside
//! the hierarchy, so the decorator reconstructs the LLC -> DRAM request
//! stream and [`replay_dram`] times it on a fresh `Dram`.

use crate::util::{ns_between, Metrics};
use bv_cache::{CacheGeometry, LineAddr, LlcStats};
use bv_compress::{Bdi, CacheLine, Compressed, CompressionStats, Compressor, SegmentCount};
use bv_core::{
    BaseVictimLlc, HitKind, InclusionAgent, InclusionMode, LlcOrganization, OpOutcome, ReadOutcome,
    VictimPolicyKind,
};
use bv_runner::JobSpec;
use bv_sim::{CoreModel, Dram, DramStats, EventBatch, Hierarchy, LevelHit, LlcKind, RunResult};
use bv_trace::synth::WorkloadSpec;
use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Calls and busy nanoseconds at one boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn merge(&mut self, o: &Acc) {
        self.calls += o.calls;
        self.ns += o.ns;
    }
}

/// One request the LLC sent to DRAM, in issue order.
#[derive(Clone, Copy, Debug)]
enum DramReq {
    Demand { now: u64, addr: u64 },
    Access { now: u64, addr: u64, write: bool },
}

/// A recorded span. Fine-grained spans are kept for the first
/// [`SPAN_EVENTS`] events of every job; the per-layer totals cover all
/// events.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: u32,
}

/// Events per job whose spans are kept in memory for the span file.
pub const SPAN_EVENTS: u64 = 256;

/// Span recorder shared by the loop and the decorators of one job.
struct Recorder {
    origin: Instant,
    job: u32,
    on: bool,
    spans: Vec<Span>,
    /// The span the next decorator call nests under.
    parent: Option<u32>,
}

impl Recorder {
    fn push(&mut self, name: &'static str, a: Instant, b: Instant, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: ns_between(self.origin, a),
            end_ns: ns_between(self.origin, b),
            parent,
            job: self.job,
        });
        id
    }

    /// Sets the times of span `id`, pushed before they were known.
    fn set(&mut self, id: u32, a: Instant, b: Instant) {
        let (start, end) = (ns_between(self.origin, a), ns_between(self.origin, b));
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
    }
}

/// What the LLC decorator observed.
#[derive(Default)]
struct LlcState {
    now: u64,
    read: Acc,
    writeback: Acc,
    fill: Acc,
    prefetch_fill: Acc,
    read_hits: u64,
    victim_hits: u64,
    prefetch_installs: u64,
    memory_writes: u64,
    dram: Vec<DramReq>,
    /// The decorator's own bookkeeping, inside `access_on` but in no
    /// layer.
    harness_ns: u64,
}

/// What the compressor decorator observed.
#[derive(Default)]
struct CompState {
    acc: Acc,
    /// Size-returning calls and the segments they returned.
    sized: u64,
    segments: u64,
    /// The decorator's own bookkeeping, inside the LLC calls but in no
    /// layer.
    harness_ns: u64,
}

/// An `LlcOrganization` that times every call the hierarchy makes into
/// it and records the DRAM requests each call implies.
struct TimedLlc {
    inner: Box<dyn LlcOrganization>,
    st: Rc<RefCell<LlcState>>,
    rec: Rc<RefCell<Recorder>>,
    llc_latency: u64,
}

impl TimedLlc {
    /// Times one call into the wrapped organization, recording a span
    /// when recording is on; the compressor's spans nest under it.
    /// Returns the call's result and its time in nanoseconds.
    fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut dyn LlcOrganization) -> T,
    ) -> (T, u64) {
        let span = {
            let mut r = self.rec.borrow_mut();
            r.on.then(|| {
                let (outer, origin) = (r.parent, r.origin);
                let id = r.push(name, origin, origin, outer);
                r.parent = Some(id);
                (id, outer)
            })
        };
        let a = Instant::now();
        let out = f(self.inner.as_mut());
        let b = Instant::now();
        if let Some((id, outer)) = span {
            let mut r = self.rec.borrow_mut();
            r.set(id, a, b);
            r.parent = outer;
        }
        (out, ns_between(a, b))
    }

    /// Bills everything a decorator method did since `entry`, except
    /// the `ns` of its timed call, to the harness.
    fn done(&self, entry: Instant, ns: u64) {
        let spent = ns_between(entry, Instant::now());
        self.st.borrow_mut().harness_ns += spent.saturating_sub(ns);
    }

    /// Records the DRAM writes an LLC call's effects imply.
    fn memory_writes(st: &mut LlcState, addr: LineAddr, writes: u64) {
        st.memory_writes += writes;
        for _ in 0..writes {
            st.dram.push(DramReq::Access {
                now: st.now,
                addr: addr.byte_addr(),
                write: true,
            });
        }
    }
}

impl LlcOrganization for TimedLlc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }
    fn contains(&self, addr: LineAddr) -> bool {
        self.inner.contains(addr)
    }
    fn read(&mut self, addr: LineAddr, inner: &mut dyn InclusionAgent) -> ReadOutcome {
        let entry = Instant::now();
        let (out, ns) = self.call("core.read", |llc| llc.read(addr, inner));
        {
            let mut st = self.st.borrow_mut();
            st.read.add(ns);
            Self::memory_writes(&mut st, addr, out.effects.memory_writes);
            match out.kind {
                HitKind::Miss => {
                    let now = st.now + self.llc_latency;
                    st.dram.push(DramReq::Demand {
                        now,
                        addr: addr.byte_addr(),
                    });
                }
                HitKind::Victim(_) => {
                    st.read_hits += 1;
                    st.victim_hits += 1;
                }
                HitKind::Base(_) => st.read_hits += 1,
            }
        }
        self.done(entry, ns);
        out
    }
    fn writeback(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        // The hierarchy drops writeback effects, so they reach no DRAM.
        let entry = Instant::now();
        let (out, ns) = self.call("core.writeback", |llc| llc.writeback(addr, data, inner));
        self.st.borrow_mut().writeback.add(ns);
        self.done(entry, ns);
        out
    }
    fn fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> OpOutcome {
        let entry = Instant::now();
        let (out, ns) = self.call("core.fill", |llc| llc.fill(addr, data, inner));
        {
            let mut st = self.st.borrow_mut();
            st.fill.add(ns);
            Self::memory_writes(&mut st, addr, out.effects.memory_writes);
        }
        self.done(entry, ns);
        out
    }
    fn prefetch_fill(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        inner: &mut dyn InclusionAgent,
    ) -> Option<OpOutcome> {
        let entry = Instant::now();
        let before = self.inner.stats().prefetch_fills;
        let (out, ns) = self.call("core.prefetch_fill", |llc| {
            llc.prefetch_fill(addr, data, inner)
        });
        let installed = self.inner.stats().prefetch_fills > before;
        {
            let mut st = self.st.borrow_mut();
            st.prefetch_fill.add(ns);
            if let Some(o) = &out {
                Self::memory_writes(&mut st, addr, o.effects.memory_writes);
            }
            if installed {
                st.prefetch_installs += 1;
                let now = st.now;
                st.dram.push(DramReq::Access {
                    now,
                    addr: addr.byte_addr(),
                    write: false,
                });
            }
        }
        self.done(entry, ns);
        out
    }
    fn peek_data(&self, addr: LineAddr) -> Option<CacheLine> {
        self.inner.peek_data(addr)
    }
    fn hint_downgrade(&mut self, addr: LineAddr) {
        self.inner.hint_downgrade(addr);
    }
    fn stats(&self) -> &LlcStats {
        self.inner.stats()
    }
    fn compression_stats(&self) -> &CompressionStats {
        self.inner.compression_stats()
    }
    fn tag_latency_penalty(&self) -> u32 {
        self.inner.tag_latency_penalty()
    }
    fn decompression_latency(&self, size: SegmentCount) -> u32 {
        self.inner.decompression_latency(size)
    }
    fn resident_lines(&self) -> Vec<LineAddr> {
        self.inner.resident_lines()
    }
    fn encoder_counts(&self) -> Vec<(&'static str, u64)> {
        self.inner.encoder_counts()
    }
}

/// A `Compressor` that times every size and (de)compression call.
struct TimedCompressor {
    inner: Box<dyn Compressor>,
    st: Rc<RefCell<CompState>>,
    rec: Rc<RefCell<Recorder>>,
}

impl TimedCompressor {
    fn timed<T>(&self, f: impl FnOnce() -> T, segs: impl Fn(&T) -> Option<u64>) -> T {
        let a = Instant::now();
        let out = f();
        let b = Instant::now();
        let mut r = self.rec.borrow_mut();
        if r.on {
            let parent = r.parent;
            r.push("compress", a, b, parent);
        }
        let mut st = self.st.borrow_mut();
        st.acc.add(ns_between(a, b));
        if let Some(n) = segs(&out) {
            st.sized += 1;
            st.segments += n;
        }
        st.harness_ns += ns_between(b, Instant::now());
        out
    }
}

impl Compressor for TimedCompressor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn compress(&self, line: &CacheLine) -> Compressed {
        self.timed(
            || self.inner.compress(line),
            |c| Some(u64::from(c.segments().get())),
        )
    }
    fn decompress(&self, compressed: &Compressed) -> CacheLine {
        self.timed(|| self.inner.decompress(compressed), |_| None)
    }
    fn compressed_size(&self, line: &CacheLine) -> SegmentCount {
        self.timed(
            || self.inner.compressed_size(line),
            |s| Some(u64::from(s.get())),
        )
    }
    fn encodings(&self) -> &'static [&'static str] {
        self.inner.encodings()
    }
    fn classified_size(&self, line: &CacheLine) -> (SegmentCount, Option<usize>) {
        self.timed(
            || self.inner.classified_size(line),
            |s| Some(u64::from(s.0.get())),
        )
    }
    fn decompression_latency(&self, size: SegmentCount, base_latency: u32) -> u32 {
        self.inner.decompression_latency(size, base_latency)
    }
}

/// Per-layer totals of one or more traced jobs.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    pub jobs: u64,
    /// Wall time of the replayed drive loops.
    pub wall_ns: u64,
    pub insts: u64,
    pub events: u64,
    pub trace_ns: u64,
    pub core_model_ns: u64,
    pub access: Acc,
    pub read: Acc,
    pub writeback: Acc,
    pub fill: Acc,
    pub prefetch_fill: Acc,
    pub read_hits: u64,
    pub victim_hits: u64,
    pub prefetch_installs: u64,
    pub memory_writes: u64,
    pub compress: Acc,
    pub compress_sized: u64,
    pub compress_segments: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_row_hits: u64,
    /// Time of the DRAM replays (outside `wall_ns`).
    pub dram_replay_ns: u64,
    /// The decorators' own bookkeeping inside `access_on` (LLC
    /// decorator) and inside the LLC calls (compressor decorator).
    pub llc_harness_ns: u64,
    pub compress_harness_ns: u64,
    /// Demand accesses per level over the measured phases.
    pub level_hits: [u64; 5],
    /// Base-victim jobs only: compressor calls and LLC installs (fills,
    /// prefetch installs, writebacks), for `compress.calls_per_insert`.
    pub bv_compress_calls: u64,
    pub bv_installs: u64,
}

impl LayerTotals {
    pub fn merge(&mut self, o: &LayerTotals) {
        self.jobs += o.jobs;
        self.wall_ns += o.wall_ns;
        self.insts += o.insts;
        self.events += o.events;
        self.trace_ns += o.trace_ns;
        self.core_model_ns += o.core_model_ns;
        self.access.merge(&o.access);
        self.read.merge(&o.read);
        self.writeback.merge(&o.writeback);
        self.fill.merge(&o.fill);
        self.prefetch_fill.merge(&o.prefetch_fill);
        self.read_hits += o.read_hits;
        self.victim_hits += o.victim_hits;
        self.prefetch_installs += o.prefetch_installs;
        self.memory_writes += o.memory_writes;
        self.compress.merge(&o.compress);
        self.compress_sized += o.compress_sized;
        self.compress_segments += o.compress_segments;
        self.dram_reads += o.dram_reads;
        self.dram_writes += o.dram_writes;
        self.dram_row_hits += o.dram_row_hits;
        self.dram_replay_ns += o.dram_replay_ns;
        self.llc_harness_ns += o.llc_harness_ns;
        self.compress_harness_ns += o.compress_harness_ns;
        for (a, b) in self.level_hits.iter_mut().zip(o.level_hits) {
            *a += b;
        }
        self.bv_compress_calls += o.bv_compress_calls;
        self.bv_installs += o.bv_installs;
    }

    fn llc_ns(&self) -> u64 {
        self.read.ns + self.writeback.ns + self.fill.ns + self.prefetch_fill.ns
    }

    fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }

    /// The decorators' bookkeeping, which is in no layer.
    pub fn harness_ns(&self) -> f64 {
        (self.llc_harness_ns + self.compress_harness_ns) as f64
    }

    /// Self time of each layer, in nanoseconds, in table order. The
    /// decorators' bookkeeping is taken out of the layer it ran in.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let compress = self.compress.ns as f64;
        let core = self.llc_ns() as f64 - compress - self.compress_harness_ns as f64;
        // DRAM runs inside `access_on` but outside the LLC calls; its
        // cost there is taken as the cost of replaying the same requests.
        let dram = self.dram_replay_ns as f64;
        let hierarchy =
            self.access.ns as f64 - self.llc_ns() as f64 - self.llc_harness_ns as f64 - dram;
        vec![
            ("trace", self.trace_ns as f64),
            ("sim.core_model", self.core_model_ns as f64),
            ("sim.hierarchy", hierarchy),
            ("core", core),
            ("compress", compress),
            ("sim.dram", dram),
        ]
    }

    /// Writes the per-layer metrics of the sim layers into `m`.
    pub fn report(&self, m: &mut Metrics) {
        let wall = self.wall_ns as f64;
        let per = |ns: f64, n: u64| crate::util::ratio(ns, n as f64);
        let share = |ns: f64| crate::util::ratio(ns, wall);
        let st = self.self_times();
        let get = |name: &str| st.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1);
        m.set("trace.events", self.events as f64, "count");
        m.set("trace.ns_per_event", per(get("trace"), self.events), "ns");
        m.set("trace.share", share(get("trace")), "ratio");
        m.set(
            "sim.core_model.ns_per_event",
            per(get("sim.core_model"), self.events),
            "ns",
        );
        m.set(
            "sim.core_model.share",
            share(get("sim.core_model")),
            "ratio",
        );
        m.set("sim.hierarchy.accesses", self.access.calls as f64, "count");
        m.set(
            "sim.hierarchy.self_ns_per_access",
            per(get("sim.hierarchy"), self.access.calls),
            "ns",
        );
        m.set("sim.hierarchy.share", share(get("sim.hierarchy")), "ratio");
        let demand: u64 = self.level_hits.iter().sum();
        let l1 = self.level_hits[0];
        m.set(
            "sim.hierarchy.l1_hit_ratio",
            crate::util::ratio(l1 as f64, demand as f64),
            "ratio",
        );
        m.set(
            "sim.hierarchy.l2_hit_ratio",
            crate::util::ratio(self.level_hits[1] as f64, (demand - l1) as f64),
            "ratio",
        );
        for (name, acc) in [
            ("read", &self.read),
            ("writeback", &self.writeback),
            ("fill", &self.fill),
            ("prefetch_fill", &self.prefetch_fill),
        ] {
            m.set(&format!("core.{name}.calls"), acc.calls as f64, "count");
            m.set(
                &format!("core.{name}.ns_per_call"),
                per(acc.ns as f64, acc.calls),
                "ns",
            );
        }
        m.set("core.share", share(get("core")), "ratio");
        let reads = self.read.calls as f64;
        m.set(
            "core.read_hit_ratio",
            crate::util::ratio(self.read_hits as f64, reads),
            "ratio",
        );
        m.set(
            "core.victim_hit_ratio",
            crate::util::ratio(self.victim_hits as f64, reads),
            "ratio",
        );
        m.set(
            "core.prefetch_install_ratio",
            crate::util::ratio(
                self.prefetch_installs as f64,
                self.prefetch_fill.calls as f64,
            ),
            "ratio",
        );
        m.set("core.memory_writes", self.memory_writes as f64, "count");
        m.set("compress.calls", self.compress.calls as f64, "count");
        m.set(
            "compress.ns_per_call",
            per(self.compress.ns as f64, self.compress.calls),
            "ns",
        );
        m.set("compress.share", share(get("compress")), "ratio");
        m.set(
            "compress.calls_per_insert",
            crate::util::ratio(self.bv_compress_calls as f64, self.bv_installs as f64),
            "ratio",
        );
        m.set(
            "compress.mean_segments",
            crate::util::ratio(self.compress_segments as f64, self.compress_sized as f64),
            "segments",
        );
        m.set("sim.dram.reads", self.dram_reads as f64, "count");
        m.set("sim.dram.writes", self.dram_writes as f64, "count");
        m.set(
            "sim.dram.ns_per_access",
            per(self.dram_replay_ns as f64, self.dram_accesses()),
            "ns",
        );
        m.set("sim.dram.share", share(get("sim.dram")), "ratio");
        m.set(
            "sim.dram.row_hit_ratio",
            crate::util::ratio(self.dram_row_hits as f64, self.dram_accesses() as f64),
            "ratio",
        );
        let layer_sum: f64 = st.iter().map(|s| s.1).sum();
        m.set("bench.layer_sum_ratio", share(layer_sum), "ratio");
    }
}

/// The outcome of one traced job replay.
pub struct TracedJob {
    pub result: RunResult,
    pub totals: LayerTotals,
    pub spans: Vec<Span>,
    /// Empty when the DRAM replay reproduced the run's DRAM statistics.
    pub dram_mismatch: Option<String>,
}

/// Replays `job`'s warmup + measured drive loop with spans at every
/// layer boundary. The result must equal `System::run_with_warmup` on
/// the same job bit for bit; the caller checks that.
pub fn replay_job(job: &JobSpec, workload: &WorkloadSpec, job_id: u32) -> TracedJob {
    let cfg = job.cfg;
    let rec = Rc::new(RefCell::new(Recorder {
        origin: Instant::now(),
        job: job_id,
        on: true,
        spans: Vec::new(),
        parent: None,
    }));
    let comp = Rc::new(RefCell::new(CompState::default()));
    let llc_st = Rc::new(RefCell::new(LlcState::default()));
    let inner: Box<dyn LlcOrganization> = if cfg.llc_kind == LlcKind::BaseVictim {
        Box::new(BaseVictimLlc::with_compressor(
            cfg.llc,
            cfg.llc_policy,
            VictimPolicyKind::EcmLargestBase,
            InclusionMode::Inclusive,
            Box::new(TimedCompressor {
                inner: Box::new(Bdi::new()),
                st: Rc::clone(&comp),
                rec: Rc::clone(&rec),
            }),
        ))
    } else {
        cfg.llc_kind.build(cfg.llc, cfg.llc_policy)
    };
    let llc = TimedLlc {
        inner,
        st: Rc::clone(&llc_st),
        rec: Rc::clone(&rec),
        llc_latency: u64::from(cfg.core.llc_latency),
    };
    let mut h = Hierarchy::with_llc(cfg, 1, Box::new(llc));
    let mut core = CoreModel::new(cfg.core);
    let mut gen = workload.generator();
    let mut batch = EventBatch::new();
    let mut level_hits = [0u64; 5];
    let mut t = LayerTotals {
        jobs: 1,
        ..LayerTotals::default()
    };

    let start = Instant::now();
    let mut warm: Option<(u64, u64, LlcStats, CompressionStats, DramStats, usize)> = None;
    let end_warm = job.warmup;
    loop {
        let target = match warm {
            None => end_warm,
            Some((wi, ..)) => wi + job.insts,
        };
        if core.instructions() >= target {
            if warm.is_some() {
                break;
            }
            let u = h.uncore();
            warm = Some((
                core.instructions(),
                core.cycles(),
                *u.llc().stats(),
                u.llc().compression_stats().clone(),
                *u.dram().stats(),
                llc_st.borrow().dram.len(),
            ));
            continue;
        }
        // Each layer call is timed on its own; span bookkeeping and the
        // loop itself fall between the timed windows, in no layer.
        let t0 = Instant::now();
        let ev = batch.next(&mut gen);
        let t1 = Instant::now();
        core.work(ev.instructions());
        let t2 = Instant::now();
        llc_st.borrow_mut().now = core.cycles();
        let access_span = if t.events < SPAN_EVENTS {
            let mut r = rec.borrow_mut();
            r.push("trace", t0, t1, None);
            r.push("sim.core_model", t1, t2, None);
            let id = r.push("sim.hierarchy", t2, t2, None);
            r.parent = Some(id);
            Some(id)
        } else {
            rec.borrow_mut().on = false;
            None
        };
        let cycles = core.cycles();
        let t3 = Instant::now();
        let out = h.access_on(0, &ev, cycles, &gen);
        let t4 = Instant::now();
        core.account(&ev, &out);
        let t5 = Instant::now();
        if let Some(id) = access_span {
            let mut r = rec.borrow_mut();
            r.set(id, t3, t4);
            r.parent = None;
            r.push("sim.core_model", t4, t5, None);
        }
        if warm.is_some() {
            let idx = match out.level {
                LevelHit::L1 => 0,
                LevelHit::L2 => 1,
                LevelHit::LlcBase => 2,
                LevelHit::LlcVictim => 3,
                LevelHit::Memory => 4,
            };
            level_hits[idx] += 1;
        }
        t.events += 1;
        t.trace_ns += ns_between(t0, t1);
        t.core_model_ns += ns_between(t1, t2) + ns_between(t4, t5);
        t.access.add(ns_between(t3, t4));
    }
    t.wall_ns = ns_between(start, Instant::now());

    let (warm_insts, warm_cycles, llc_snap, comp_snap, dram_snap, dram_idx) =
        warm.expect("warmup boundary reached");
    let u = h.uncore();
    let result = RunResult {
        llc_name: u.llc().name(),
        instructions: core.instructions() - warm_insts,
        cycles: core.cycles() - warm_cycles,
        llc: u.llc().stats().since(&llc_snap),
        compression: u.llc().compression_stats().since(&comp_snap),
        dram: u.dram().stats().since(&dram_snap),
        level_hits,
    };
    let full_dram = *u.dram().stats();
    drop(h);

    let st = std::mem::take(&mut *llc_st.borrow_mut());
    t.insts = job.warmup + result.instructions;
    t.level_hits = result.level_hits;
    t.read = st.read;
    t.writeback = st.writeback;
    t.fill = st.fill;
    t.prefetch_fill = st.prefetch_fill;
    t.read_hits = st.read_hits;
    t.victim_hits = st.victim_hits;
    t.prefetch_installs = st.prefetch_installs;
    t.memory_writes = st.memory_writes;
    t.llc_harness_ns = st.harness_ns;
    let c = comp.borrow();
    t.compress = c.acc;
    t.compress_sized = c.sized;
    t.compress_segments = c.segments;
    t.compress_harness_ns = c.harness_ns;
    if cfg.llc_kind == LlcKind::BaseVictim {
        t.bv_compress_calls = c.acc.calls;
        t.bv_installs = st.fill.calls + st.prefetch_installs + st.writeback.calls;
    }

    let (replayed, at_warm, replay_ns) = replay_dram(cfg.dram, &st.dram, dram_idx);
    t.dram_reads = replayed.reads;
    t.dram_writes = replayed.writes;
    t.dram_row_hits = replayed.row_hits;
    t.dram_replay_ns = replay_ns;
    let measured = replayed.since(&at_warm);
    let dram_mismatch = if replayed != full_dram || measured != result.dram {
        Some(format!(
            "DRAM replay {measured:?} != run {:?} (whole job {replayed:?} vs {full_dram:?})",
            result.dram
        ))
    } else {
        None
    };
    let spans = std::mem::take(&mut rec.borrow_mut().spans);
    TracedJob {
        result,
        totals: t,
        spans,
        dram_mismatch,
    }
}

/// Replays a recorded LLC -> DRAM request stream into a fresh `Dram`.
/// Returns the final statistics, the statistics after the first
/// `warm_idx` requests, and the replay time.
fn replay_dram(
    cfg: bv_sim::DramConfig,
    reqs: &[DramReq],
    warm_idx: usize,
) -> (DramStats, DramStats, u64) {
    let mut dram = Dram::new(cfg);
    let mut at_warm = DramStats::default();
    let a = Instant::now();
    for (i, r) in reqs.iter().enumerate() {
        if i == warm_idx {
            at_warm = *dram.stats();
        }
        match *r {
            DramReq::Demand { now, addr } => {
                std::hint::black_box(dram.demand_access(now, addr));
            }
            DramReq::Access { now, addr, write } => {
                std::hint::black_box(dram.access(now, addr, write));
            }
        }
    }
    let replay_ns = ns_between(a, Instant::now());
    if warm_idx >= reqs.len() {
        at_warm = *dram.stats();
    }
    (*dram.stats(), at_warm, replay_ns)
}

/// Writes spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `job`) to `path`. Times are relative to the job's start and `parent`
/// is the index of the parent span among the same job's spans.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
            s.name, s.start_ns, s.end_ns, s.job
        )?;
    }
    w.flush()
}
