//! Multi-stream prefetching (Section V: "aggressive multi-stream
//! instruction and data prefetchers").
//!
//! A classic stream prefetcher: accesses are grouped into 4 KB regions;
//! when a region shows two consecutive accesses with a consistent line
//! delta, a stream is trained and the prefetcher runs `degree` lines ahead
//! of the demand stream in that direction.

const REGION_BITS: u32 = 12; // 4 KB regions
const TABLE_SIZE: usize = 64;
/// Slots of the region -> table-slot hint (a power of two, well above
/// [`TABLE_SIZE`] so live regions rarely share a hint).
const HINT_SLOTS: usize = 256;
/// The region of an empty table slot: a real region number is a byte
/// address shifted right by [`REGION_BITS`], so it never reaches this.
const NO_REGION: u64 = u64::MAX;

/// A per-core multi-stream prefetcher.
///
/// The 64-entry stream table is stored as parallel arrays, one per
/// field, kept in the order of a `Vec` that appends new streams and
/// `swap_remove`s the least recently used one; that order decides which
/// stream a page handoff inherits from. A demand access finds its region
/// in O(1) through a small region -> slot hint, validated against the
/// stored region (regions are unique in the table), and falls back to a
/// scan of the region array when the hint is stale.
///
/// # Examples
///
/// ```
/// use bv_sim::StreamPrefetcher;
///
/// let mut pf = StreamPrefetcher::new(4);
/// let mut prefetches = Vec::new();
/// pf.observe(0x1000, &mut prefetches); // first touch: training
/// assert!(prefetches.is_empty());
/// pf.observe(0x1040, &mut prefetches); // +1 line: stream confirmed
/// assert_eq!(prefetches, vec![0x1080, 0x10c0, 0x1100, 0x1140]);
/// ```
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    degree: u32,
    /// Live streams: slots `0..len` of the arrays below.
    len: usize,
    /// Each stream's 4 KB region; [`NO_REGION`] in empty slots.
    region: [u64; TABLE_SIZE],
    /// The last demand line seen in the region.
    last_line: [u64; TABLE_SIZE],
    /// The trained line delta; 0 until trained, and in empty slots.
    delta: [i64; TABLE_SIZE],
    confidence: [u8; TABLE_SIZE],
    /// The furthest line prefetched so far (0: none yet).
    last_issued: [u64; TABLE_SIZE],
    /// Clock of the last access, for LRU replacement.
    lru: [u64; TABLE_SIZE],
    /// Region hash -> the slot that region last occupied.
    hint: [u8; HINT_SLOTS],
    clock: u64,
    issued: u64,
}

/// A mask with bit `i` set where `pred(i)` holds, over every table slot:
/// a branch-free fixed-length loop the compiler vectorizes.
fn slots_where(pred: impl Fn(usize) -> bool) -> u64 {
    let mut mask = 0u64;
    for i in 0..TABLE_SIZE {
        mask |= u64::from(pred(i)) << i;
    }
    mask
}

/// The hint slot of a region (a fixed multiplicative hash).
fn hint_slot(region: u64) -> usize {
    (region.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - HINT_SLOTS.trailing_zeros())) as usize
}

impl StreamPrefetcher {
    /// Creates a prefetcher issuing `degree` lines ahead (0 disables it).
    #[must_use]
    pub fn new(degree: u32) -> StreamPrefetcher {
        StreamPrefetcher {
            degree,
            len: 0,
            region: [NO_REGION; TABLE_SIZE],
            last_line: [0; TABLE_SIZE],
            delta: [0; TABLE_SIZE],
            confidence: [0; TABLE_SIZE],
            last_issued: [0; TABLE_SIZE],
            lru: [0; TABLE_SIZE],
            hint: [0; HINT_SLOTS],
            clock: 0,
            issued: 0,
        }
    }

    /// Total prefetch addresses issued.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access to `byte_addr` and appends the byte
    /// addresses to prefetch (possibly none) to `out`, which the caller
    /// owns and clears.
    pub fn observe(&mut self, byte_addr: u64, out: &mut Vec<u64>) {
        if self.degree == 0 {
            return;
        }
        self.clock += 1;
        let line = byte_addr >> 6;
        let region = byte_addr >> REGION_BITS;
        let slot = match self.find(region) {
            Some(i) => {
                self.train(i, line);
                i
            }
            None => self.allocate(region, line),
        };
        let before = out.len();
        self.run_ahead(slot, line, out);
        self.issued += (out.len() - before) as u64;
    }

    /// The slot holding `region`, if any.
    fn find(&mut self, region: u64) -> Option<usize> {
        let h = hint_slot(region);
        let hinted = usize::from(self.hint[h]);
        if self.region[hinted] == region {
            return Some(hinted);
        }
        let hits = slots_where(|i| self.region[i] == region);
        if hits == 0 {
            return None;
        }
        let slot = hits.trailing_zeros() as usize;
        self.hint[h] = slot as u8;
        Some(slot)
    }

    /// Trains the stream in `slot` on a demand access to `line`.
    fn train(&mut self, slot: usize, line: u64) {
        let delta = line as i64 - self.last_line[slot] as i64;
        if delta == 0 {
            // Same line: nothing to learn.
        } else if delta == self.delta[slot] {
            self.confidence[slot] = self.confidence[slot].saturating_add(1);
        } else {
            self.delta[slot] = delta;
            self.confidence[slot] = 1;
        }
        self.last_line[slot] = line;
        self.lru[slot] = self.clock;
    }

    /// Starts a stream for a region not in the table and returns its
    /// slot, replacing the least recently used stream when full.
    fn allocate(&mut self, region: u64, line: u64) -> usize {
        // Page handoff: if an existing stream predicts this line as its
        // next step, carry the training into the new region instead of
        // starting cold (hardware streamers do the same at page
        // boundaries). The first such stream in table order wins; empty
        // slots have delta 0 and never match.
        let hits = slots_where(|i| {
            self.delta[i] != 0 && self.last_line[i] as i64 + self.delta[i] == line as i64
        });
        let (delta, confidence, last_issued) = if hits == 0 {
            (0, 0, 0)
        } else {
            let i = hits.trailing_zeros() as usize;
            (self.delta[i], self.confidence[i], self.last_issued[i])
        };
        let slot = if self.len == TABLE_SIZE {
            // Replace the least recently used stream (clocks are unique)
            // as `Vec::swap_remove` then `push` would: the last stream
            // moves into its slot and the new one takes the last.
            let oldest = (0..TABLE_SIZE)
                .min_by_key(|&i| self.lru[i])
                .expect("table is full");
            self.move_last_to(oldest);
            TABLE_SIZE - 1
        } else {
            self.len += 1;
            self.len - 1
        };
        self.region[slot] = region;
        self.last_line[slot] = line;
        self.delta[slot] = delta;
        self.confidence[slot] = confidence;
        self.last_issued[slot] = last_issued;
        self.lru[slot] = self.clock;
        self.hint[hint_slot(region)] = slot as u8;
        slot
    }

    /// Moves the last stream into `slot`, overwriting it.
    fn move_last_to(&mut self, slot: usize) {
        let last = self.len - 1;
        self.region[slot] = self.region[last];
        self.last_line[slot] = self.last_line[last];
        self.delta[slot] = self.delta[last];
        self.confidence[slot] = self.confidence[last];
        self.last_issued[slot] = self.last_issued[last];
        self.lru[slot] = self.lru[last];
        self.hint[hint_slot(self.region[slot])] = slot as u8;
    }

    /// Runs the stream in `slot` up to `degree` lines ahead of `line`
    /// without re-issuing lines already covered.
    ///
    /// The targets `line + delta * k` move monotonically away from `line`
    /// as `k` grows, so the ones beyond the last issued line, and above
    /// line 0, are one contiguous run `first..=last` of `k` in
    /// `1..=degree`: both ends are computed once.
    fn run_ahead(&mut self, slot: usize, line: u64, out: &mut Vec<u64>) {
        let delta = self.delta[slot];
        if self.confidence[slot] == 0 || delta == 0 {
            return;
        }
        let line = line as i64;
        let step = delta.abs();
        let degree = i64::from(self.degree);
        // Descending streams stop above line 0.
        let last = if delta > 0 {
            degree
        } else {
            degree.min((line - 1).div_euclid(step))
        };
        let first = match self.last_issued[slot] {
            0 => 1,
            issued => {
                // How far the last issued line lies ahead of `line`.
                let ahead = (issued as i64 - line) * delta.signum();
                if ahead < 0 {
                    1
                } else {
                    ahead / step + 1
                }
            }
        };
        if first > last {
            return;
        }
        out.extend((first..=last).map(|k| ((line + delta * k) as u64) << 6));
        self.last_issued[slot] = (line + delta * last) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One observation's prefetches.
    fn observe(pf: &mut StreamPrefetcher, byte_addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        pf.observe(byte_addr, &mut out);
        out
    }

    #[test]
    fn sequential_stream_trains_and_runs_ahead() {
        let mut pf = StreamPrefetcher::new(4);
        assert!(observe(&mut pf, 0x10_0000).is_empty());
        let p = observe(&mut pf, 0x10_0040);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], 0x10_0080);
        // The next demand access only extends the run-ahead window by one.
        let p2 = observe(&mut pf, 0x10_0080);
        assert_eq!(p2, vec![0x10_0180]);
    }

    #[test]
    fn strided_streams_are_learned() {
        let mut pf = StreamPrefetcher::new(2);
        observe(&mut pf, 0x20_0000);
        let p = observe(&mut pf, 0x20_0100); // stride 4 lines
        assert_eq!(p, vec![0x20_0200, 0x20_0300]);
    }

    #[test]
    fn descending_streams_work() {
        let mut pf = StreamPrefetcher::new(2);
        observe(&mut pf, 0x30_0400);
        let p = observe(&mut pf, 0x30_03c0);
        assert_eq!(p, vec![0x30_0380, 0x30_0340]);
    }

    #[test]
    fn random_accesses_do_not_trigger() {
        let mut pf = StreamPrefetcher::new(4);
        let mut state = 12345u64;
        let mut total = 0;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Random lines within one region would alias; use many regions.
            let addr = (state >> 16) & 0x3fff_ffc0;
            total += observe(&mut pf, addr).len();
        }
        assert!(
            total < 40,
            "random stream should rarely trigger, issued {total}"
        );
    }

    #[test]
    fn zero_degree_disables() {
        let mut pf = StreamPrefetcher::new(0);
        observe(&mut pf, 0x1000);
        assert!(observe(&mut pf, 0x1040).is_empty());
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut pf = StreamPrefetcher::new(2);
        for i in 0..1000u64 {
            observe(&mut pf, i << REGION_BITS);
        }
        assert!(pf.len <= TABLE_SIZE);
    }

    #[test]
    fn same_line_repeats_do_not_retrain() {
        let mut pf = StreamPrefetcher::new(2);
        observe(&mut pf, 0x50_0000);
        observe(&mut pf, 0x50_0040);
        let before = pf.issued();
        // Re-touching the same line issues nothing new.
        let p = observe(&mut pf, 0x50_0040);
        assert!(p.is_empty());
        assert_eq!(pf.issued(), before);
    }
}
