//! Workload synthesis: kernels + data profiles -> an instruction trace.

use crate::data_profile::DataProfile;
use crate::kernel::{Kernel, KernelKind};
use crate::record::{AccessKind, TraceEvent};
use bv_compress::CacheLine;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One kernel's slice of a workload.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Behavior class.
    pub kind: KernelKind,
    /// Private region size in bytes (rounded up to one line).
    pub region_bytes: u64,
    /// Relative share of memory accesses, in arbitrary units.
    pub weight: u32,
    /// Fraction of this kernel's accesses that are stores, in 1/256 units.
    pub store_fraction: u8,
    /// Value distribution of the region's data.
    pub profile: DataProfile,
}

/// A complete synthetic workload description.
///
/// # Examples
///
/// ```
/// use bv_trace::synth::{KernelSpec, WorkloadSpec};
/// use bv_trace::{DataProfile, KernelKind};
///
/// let spec = WorkloadSpec {
///     kernels: vec![KernelSpec {
///         kind: KernelKind::Loop,
///         region_bytes: 3 << 20,
///         weight: 1,
///         store_fraction: 64,
///         profile: DataProfile::PointerLike,
///     }],
///     mem_fraction: 85,
///     ifetch_fraction: 10,
///     code_bytes: 64 << 10,
///     seed: 42,
/// };
/// let mut generator = spec.generator();
/// let event = generator.next_event();
/// assert!(event.instructions() >= 1);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// The kernels that make up the workload.
    pub kernels: Vec<KernelSpec>,
    /// Memory instructions per 256 instructions (loads + stores).
    pub mem_fraction: u8,
    /// Instruction-fetch events per 256 memory events.
    pub ifetch_fraction: u8,
    /// Code footprint for instruction fetches.
    pub code_bytes: u64,
    /// Master seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Total data working-set size in bytes.
    #[must_use]
    pub fn working_set_bytes(&self) -> u64 {
        self.kernels.iter().map(|k| k.region_bytes).sum()
    }

    /// Weighted mean of the kernels' nominal BDI ratios, for budgeting a
    /// workload's compressibility before simulating it.
    ///
    /// Only kernels whose regions exceed the L2 capacity (256 KB)
    /// contribute: LLC fills — the traffic whose compressibility the
    /// Base-Victim architecture exploits — come from working sets the
    /// core caches cannot hold. Falls back to all kernels when none
    /// qualify.
    #[must_use]
    pub fn nominal_compression_ratio(&self) -> f64 {
        const L2_BYTES: u64 = 256 << 10;
        let llc_visible = |k: &&KernelSpec| k.region_bytes > L2_BYTES;
        let (num, den) = {
            let mut num = 0.0;
            let mut den = 0u64;
            for k in self.kernels.iter().filter(llc_visible) {
                num += k.profile.nominal_ratio() * f64::from(k.weight);
                den += u64::from(k.weight);
            }
            if den == 0 {
                for k in &self.kernels {
                    num += k.profile.nominal_ratio() * f64::from(k.weight);
                    den += u64::from(k.weight);
                }
            }
            (num, den)
        };
        if den == 0 {
            1.0
        } else {
            num / den as f64
        }
    }

    /// Instantiates the deterministic trace generator.
    #[must_use]
    pub fn generator(&self) -> TraceGenerator {
        TraceGenerator::new(self, 0)
    }

    /// Instantiates a generator whose whole address space is shifted by
    /// `offset` bytes — used by the multi-program simulator to give each
    /// thread a private physical range.
    #[must_use]
    pub fn generator_at(&self, offset: u64) -> TraceGenerator {
        TraceGenerator::new(self, offset)
    }
}

/// Region placement: kernels get disjoint, gap-separated address ranges
/// above a fixed heap base; code sits below them.
const CODE_BASE: u64 = 0x0040_0000;
const HEAP_BASE: u64 = 0x1_0000_0000;
const REGION_GAP: u64 = 1 << 30;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A fixed multiplicative hasher for line numbers: one multiply per
/// lookup instead of the default SipHash's rounds. The keys are lines
/// the generator's own kernels produce, never outside input, so SipHash's
/// protection against crafted collisions buys nothing here. The epoch
/// map is only ever read by key and never iterated, so no iteration
/// order can reach a result.
#[derive(Clone, Copy, Debug, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // The product's low bits depend only on the key's low bits; rotate
        // the well-mixed high bits down to where the table indexes.
        self.0.rotate_left(26)
    }
}

/// A deterministic, infinite trace generator with an address-to-profile
/// map for data synthesis.
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    kernels: Vec<(Kernel, KernelSpec, u64)>, // (instance, spec, region base)
    cumulative_weights: Vec<u64>,
    total_weight: u64,
    mem_fraction: u8,
    ifetch_fraction: u8,
    code_lines: u64,
    code_cursor: u64,
    rng: u64,
    /// Per-line write epochs: bumped on every store so rewritten lines
    /// get fresh (same-profile) values. Looked up twice per store (the
    /// bump in `commit`, the store value in `line_data`) and once per
    /// fill, so it hashes with [`LineHasher`]; it is never iterated.
    epochs: HashMap<u64, u32, BuildHasherDefault<LineHasher>>,
    /// Address-space shift for multi-program isolation.
    offset: u64,
}

impl TraceGenerator {
    fn new(spec: &WorkloadSpec, offset: u64) -> TraceGenerator {
        assert!(
            !spec.kernels.is_empty(),
            "workload needs at least one kernel"
        );
        let mut kernels = Vec::with_capacity(spec.kernels.len());
        let mut cumulative_weights = Vec::with_capacity(spec.kernels.len());
        let mut total = 0u64;
        let mut base = HEAP_BASE + offset;
        let mut seed = spec.seed | 1;
        for ks in &spec.kernels {
            let region = ks.region_bytes.max(64);
            let kseed = xorshift(&mut seed);
            kernels.push((Kernel::new(ks.kind, base, region, kseed), ks.clone(), base));
            total += u64::from(ks.weight.max(1));
            cumulative_weights.push(total);
            base += region.next_multiple_of(REGION_GAP) + REGION_GAP;
        }
        TraceGenerator {
            kernels,
            cumulative_weights,
            total_weight: total,
            mem_fraction: spec.mem_fraction.max(1),
            ifetch_fraction: spec.ifetch_fraction,
            code_lines: (spec.code_bytes / 64).max(1),
            code_cursor: 0,
            rng: spec.seed.wrapping_mul(0x5851_f42d_4c95_7f2d) | 1,
            epochs: HashMap::default(),
            offset,
        }
    }

    /// Produces the next trace event.
    ///
    /// Equivalent to [`decode_event`](TraceGenerator::decode_event)
    /// followed immediately by [`commit`](TraceGenerator::commit) — the
    /// batched hot loop in `bv-sim` uses the split form to decode ahead of
    /// consumption without perturbing [`line_data`](TraceGenerator::line_data).
    pub fn next_event(&mut self) -> TraceEvent {
        let ev = self.decode_event();
        self.commit(&ev);
        ev
    }

    /// Decodes the next trace event **without** committing its memory
    /// side effect (the per-line write-epoch bump for stores).
    ///
    /// The RNG, kernel walks, and code cursor do advance — none of those
    /// are observable through `line_data`, so decoding N events ahead and
    /// committing each one as it is consumed yields a bit-identical
    /// simulation to the unbatched `next_event` loop.
    pub fn decode_event(&mut self) -> TraceEvent {
        let r = xorshift(&mut self.rng);

        // Geometric-ish gap: mem_fraction/256 of instructions touch
        // memory, so the mean gap is 256/mem_fraction - 1.
        let mean_gap = (256 / u32::from(self.mem_fraction)).saturating_sub(1);
        let gap = if mean_gap == 0 {
            0
        } else {
            (r >> 32) as u32 % (2 * mean_gap + 1)
        };

        if (r & 0xff) < u64::from(self.ifetch_fraction) {
            // Instruction fetch: sequential walk of the code region.
            self.code_cursor = (self.code_cursor + 1) % self.code_lines;
            let addr = CODE_BASE + self.offset + self.code_cursor * 64;
            return TraceEvent {
                gap,
                pc: addr,
                addr,
                kind: AccessKind::Ifetch,
                dependent: false,
            };
        }

        let draw = (r >> 8) % self.total_weight;
        let ki = self
            .cumulative_weights
            .iter()
            .position(|&c| draw < c)
            .expect("draw < total weight");
        let (kernel, spec, base) = &mut self.kernels[ki];
        let addr = kernel.next_addr();
        let kind = if ((r >> 16) & 0xff) < u64::from(spec.store_fraction) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        // Synthetic PC: one per kernel plus a little spread, so the
        // prefetcher sees stable streams.
        let pc = CODE_BASE + self.offset + (ki as u64) * 0x100 + ((r >> 24) & 0x3) * 8;
        let _ = base;
        TraceEvent {
            gap,
            pc,
            addr,
            kind,
            // Pointer-chase loads consume the previous load's value, so
            // their misses serialize in the out-of-order window.
            dependent: matches!(spec.kind, KernelKind::PointerChase) && kind == AccessKind::Load,
        }
    }

    /// Commits a decoded event's memory side effect: stores bump the
    /// line's write epoch so subsequent [`line_data`](TraceGenerator::line_data)
    /// calls see fresh values. Must be called exactly once per decoded
    /// event, in decode order, before the event is simulated.
    pub fn commit(&mut self, ev: &TraceEvent) {
        if ev.kind == AccessKind::Store {
            *self.epochs.entry(ev.addr / 64).or_insert(0) += 1;
        }
    }

    /// Synthesizes the current memory contents of the line holding
    /// `byte_addr`: the region's profile at the line's current write
    /// epoch. Addresses outside any region (e.g. code) use a repeated-
    /// value profile.
    #[must_use]
    pub fn line_data(&self, byte_addr: u64) -> CacheLine {
        let line = byte_addr / 64;
        let epoch = u64::from(*self.epochs.get(&line).unwrap_or(&0));
        self.profile_of(byte_addr).synthesize(line, epoch)
    }

    /// The data profile governing `byte_addr`.
    #[must_use]
    pub fn profile_of(&self, byte_addr: u64) -> DataProfile {
        for (_, spec, base) in &self.kernels {
            if byte_addr >= *base && byte_addr < *base + spec.region_bytes.max(64) {
                return spec.profile;
            }
        }
        DataProfile::Repeated // code and stray addresses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![
                KernelSpec {
                    kind: KernelKind::Loop,
                    region_bytes: 1 << 20,
                    weight: 3,
                    store_fraction: 77, // ~30%
                    profile: DataProfile::SmallInt,
                },
                KernelSpec {
                    kind: KernelKind::Streaming,
                    region_bytes: 8 << 20,
                    weight: 1,
                    store_fraction: 0,
                    profile: DataProfile::Random,
                },
            ],
            mem_fraction: 85, // ~1/3 of instructions
            ifetch_fraction: 12,
            code_bytes: 32 << 10,
            seed: 1234,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = spec().generator();
        let mut b = spec().generator();
        for _ in 0..1000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut s2 = spec();
        s2.seed = 99;
        let mut a = spec().generator();
        let mut b = s2.generator();
        let ea: Vec<TraceEvent> = (0..100).map(|_| a.next_event()).collect();
        let eb: Vec<TraceEvent> = (0..100).map(|_| b.next_event()).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn store_fraction_is_respected() {
        let mut g = spec().generator();
        let mut stores = 0;
        let mut loads = 0;
        for _ in 0..20_000 {
            match g.next_event().kind {
                AccessKind::Store => stores += 1,
                AccessKind::Load => loads += 1,
                AccessKind::Ifetch => {}
            }
        }
        // Kernel 0 (weight 3) stores ~30%, kernel 1 never: overall ~22%.
        let frac = stores as f64 / (stores + loads) as f64;
        assert!(
            (0.15..0.30).contains(&frac),
            "store fraction {frac:.2} out of range"
        );
    }

    #[test]
    fn addresses_map_to_their_profiles() {
        let mut g = spec().generator();
        for _ in 0..1000 {
            let e = g.next_event();
            if e.kind == AccessKind::Ifetch {
                continue;
            }
            let p = g.profile_of(e.addr);
            assert!(
                p == DataProfile::SmallInt || p == DataProfile::Random,
                "unexpected profile {p:?}"
            );
        }
    }

    #[test]
    fn stores_advance_the_epoch() {
        let mut g = spec().generator();
        // Find a store and check the line data changes across it.
        loop {
            let before_snapshot = g.clone();
            let e = g.next_event();
            if e.kind == AccessKind::Store {
                let before = before_snapshot.line_data(e.addr);
                let after = g.line_data(e.addr);
                assert_ne!(before, after, "store must produce fresh values");
                break;
            }
        }
    }

    #[test]
    fn decode_ahead_then_commit_matches_unbatched() {
        let mut batched = spec().generator();
        let mut unbatched = spec().generator();
        let mut pending: Vec<TraceEvent> = Vec::new();
        for round in 0..64 {
            // Decode a varying-size batch ahead, then consume it one event
            // at a time, checking the data view after every commit.
            for _ in 0..=(round % 7) {
                pending.push(batched.decode_event());
            }
            for ev in pending.drain(..) {
                batched.commit(&ev);
                let reference = unbatched.next_event();
                assert_eq!(ev, reference);
                assert_eq!(
                    batched.line_data(ev.addr),
                    unbatched.line_data(reference.addr),
                    "data view diverged after commit of {ev:?}"
                );
            }
        }
    }

    #[test]
    fn mem_fraction_controls_gaps() {
        let mut g = spec().generator();
        let mut insts = 0u64;
        let n = 20_000;
        for _ in 0..n {
            insts += g.next_event().instructions();
        }
        // mem_fraction 85/256 => about 3 instructions per event.
        let per_event = insts as f64 / n as f64;
        assert!(
            (2.0..4.5).contains(&per_event),
            "instructions per event {per_event:.2}"
        );
    }

    #[test]
    fn nominal_ratio_is_weighted() {
        let s = spec();
        let expected = (3.0 * (6.0 / 16.0) + 1.0) / 4.0;
        assert!((s.nominal_compression_ratio() - expected).abs() < 1e-12);
    }
}
