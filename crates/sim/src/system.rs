//! The drive loop under every simulation entry point, and the
//! single-core driver.

use crate::batch::EventBatch;
use crate::config::SimConfig;
use crate::core_model::CoreModel;
use crate::dram::DramStats;
use crate::hierarchy::{Hierarchy, LevelHit};
use crate::telemetry::{Instrument, NoInstrument, SimTelemetry, UncoreSnapshot};
use bv_compress::CompressionStats;
use bv_core::{LlcOrganization, LlcStats};
use bv_trace::synth::{TraceGenerator, WorkloadSpec};
use std::slice;

/// Per-thread address-space stride: 1 TB apart, far beyond any working
/// set.
pub(crate) const THREAD_OFFSET: u64 = 1 << 40;

/// The measurements of one single-core run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Organization simulated (e.g. `"base-victim"`).
    pub llc_name: &'static str,
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles.
    pub cycles: u64,
    /// LLC statistics at the end of the run.
    pub llc: LlcStats,
    /// Compressed-size distribution observed at the LLC.
    pub compression: CompressionStats,
    /// DRAM statistics at the end of the run.
    pub dram: DramStats,
    /// Demand accesses that reached each level (L1, L2, LLC-base,
    /// LLC-victim, memory).
    pub level_hits: [u64; 5],
}

impl RunResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// DRAM reads per kilo-instruction (the paper's "DRAM Read" metric is
    /// reported as a ratio of this between configurations).
    #[must_use]
    pub fn dram_reads_per_kilo_inst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.dram.reads as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Ratio helpers against a baseline run of the same trace.
    #[must_use]
    pub fn ipc_ratio(&self, baseline: &RunResult) -> f64 {
        self.ipc() / baseline.ipc()
    }

    /// DRAM read ratio against a baseline run of the same trace.
    #[must_use]
    pub fn dram_read_ratio(&self, baseline: &RunResult) -> f64 {
        if baseline.dram.reads == 0 {
            1.0
        } else {
            self.dram.reads as f64 / baseline.dram.reads as f64
        }
    }
}

/// A single-core simulated system.
///
/// # Examples
///
/// ```
/// use bv_sim::{LlcKind, SimConfig, System};
/// use bv_trace::synth::{KernelSpec, WorkloadSpec};
/// use bv_trace::{DataProfile, KernelKind};
///
/// let workload = WorkloadSpec {
///     kernels: vec![KernelSpec {
///         kind: KernelKind::Loop,
///         region_bytes: 256 << 10,
///         weight: 1,
///         store_fraction: 32,
///         profile: DataProfile::SmallInt,
///     }],
///     mem_fraction: 85,
///     ifetch_fraction: 8,
///     code_bytes: 16 << 10,
///     seed: 1,
/// };
/// let result = System::new(SimConfig::single_thread(LlcKind::Uncompressed))
///     .run(&workload, 100_000);
/// assert!(result.ipc() > 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct System {
    cfg: SimConfig,
}

impl System {
    /// Creates a system with the given configuration.
    #[must_use]
    pub fn new(cfg: SimConfig) -> System {
        System { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs `instructions` instructions of `workload` and reports the
    /// measurements (no warmup exclusion).
    #[must_use]
    pub fn run(&self, workload: &WorkloadSpec, instructions: u64) -> RunResult {
        self.run_with_warmup(workload, 0, instructions)
    }

    /// Runs `warmup` instructions to populate the caches, then measures
    /// the next `instructions` instructions. All reported counters and
    /// the IPC cover only the measured phase, as in the paper's
    /// trace-phase methodology.
    #[must_use]
    pub fn run_with_warmup(
        &self,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
    ) -> RunResult {
        let one = slice::from_ref(workload);
        drive(self.cfg, None, one, warmup, instructions, &mut NoInstrument).result
    }

    /// Like [`run_with_warmup`](System::run_with_warmup), but samples
    /// `telemetry` at every epoch boundary of the measured phase
    /// (`bvsim run --telemetry`). The simulation itself is unperturbed:
    /// the result is identical to the unsampled run.
    #[must_use]
    pub fn run_sampled(
        &self,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        telemetry: &mut SimTelemetry,
    ) -> RunResult {
        let one = slice::from_ref(workload);
        drive(self.cfg, None, one, warmup, instructions, telemetry).result
    }

    /// Like [`run_with_warmup`](System::run_with_warmup), but drives a
    /// caller-built LLC (typically `LlcKind::build_traced` with a
    /// `RingSink`) and hands it back after the run so the retained
    /// events can be drained. The drive loop is the same code as the
    /// untraced path: with a traced organization the *simulation* is
    /// still bit-identical, only the sink observes it.
    #[must_use]
    pub fn run_traced(
        &self,
        workload: &WorkloadSpec,
        warmup: u64,
        instructions: u64,
        llc: Box<dyn LlcOrganization>,
    ) -> (RunResult, Box<dyn LlcOrganization>) {
        let one = slice::from_ref(workload);
        let run = drive(
            self.cfg,
            Some(llc),
            one,
            warmup,
            instructions,
            &mut NoInstrument,
        );
        (run.result, run.llc)
    }
}

/// What one [`drive`] measured.
pub(crate) struct Drive {
    /// The measured phase over all threads: instructions summed across
    /// threads, cycles on the lead core clock, and the uncore deltas up
    /// to the step that finished the last thread. For one thread these
    /// are that thread's own counts.
    pub(crate) result: RunResult,
    /// Cycles each thread took to retire its measured budget.
    pub(crate) finish_cycles: Vec<u64>,
    /// The shared LLC, handed back so a traced caller can drain its sink.
    pub(crate) llc: Box<dyn LlcOrganization>,
}

/// The one drive loop, under every [`System`] and
/// [`MulticoreSystem`](crate::MulticoreSystem) entry point; a single-core
/// run is its one-thread case.
///
/// Thread `i` runs `workloads[i]` on core `i` with private L1/L2 caches
/// and a private address range; all threads share the LLC (`llc`, or a
/// fresh one built from `cfg`) and DRAM. The loop always steps the thread
/// whose clock is furthest behind, so shared-resource contention is
/// approximately simultaneous. It runs until every thread has retired
/// `warmup` instructions, snapshots the uncore, then runs the measured
/// phase until every thread has retired `budget` more. Threads that
/// finish early keep executing so contention stays realistic.
///
/// `instr` observes the measured phase. With [`NoInstrument`],
/// `I::ENABLED` is `false` and monomorphization removes the sampling
/// bookkeeping, boundary compare included, from the loop.
///
/// # Panics
///
/// Panics if `workloads` is empty.
pub(crate) fn drive<I: Instrument>(
    cfg: SimConfig,
    llc: Option<Box<dyn LlcOrganization>>,
    workloads: &[WorkloadSpec],
    warmup: u64,
    budget: u64,
    instr: &mut I,
) -> Drive {
    assert!(!workloads.is_empty(), "need at least one workload");
    let n = workloads.len();
    let mut hierarchy = match llc {
        Some(llc) => Hierarchy::with_llc(cfg, n, llc),
        None => Hierarchy::new(cfg, n),
    };
    let mut cores: Vec<CoreModel> = (0..n).map(|_| CoreModel::new(cfg.core)).collect();
    // One decode ring per thread spans both phases; see `EventBatch` for
    // why decoding ahead is bit-identical to `next_event`.
    let mut feeds: Vec<(TraceGenerator, EventBatch)> = workloads
        .iter()
        .zip(0..)
        .map(|(w, i)| (w.generator_at(i * THREAD_OFFSET), EventBatch::new()))
        .collect();
    run_phase(&mut cores, &mut feeds, &mut hierarchy, warmup, |_, _, _| {});

    let snap = UncoreSnapshot::capture(&hierarchy);
    let (start_insts, start_cycles) = totals(&cores);
    instr.begin(&cores, &hierarchy);
    // Cached locally so the hot loop compares against a register
    // instead of re-reading the observer through `&mut` every event.
    let mut boundary = instr.next_boundary();
    let mut level_hits = [0u64; 5];
    let observe = |cores: &[CoreModel], hierarchy: &Hierarchy, level: LevelHit| {
        // `LevelHit` is declared in `level_hits` order.
        level_hits[level as usize] += 1;
        if I::ENABLED && cores.iter().map(CoreModel::instructions).sum::<u64>() >= boundary {
            instr.sample(cores, hierarchy);
            boundary = instr.next_boundary();
        }
    };
    let finish_cycles = run_phase(&mut cores, &mut feeds, &mut hierarchy, budget, observe);
    instr.finish(&cores, &hierarchy);

    let (end_insts, end_cycles) = totals(&cores);
    let org = hierarchy.uncore().llc();
    let result = RunResult {
        llc_name: org.name(),
        instructions: end_insts - start_insts,
        cycles: end_cycles - start_cycles,
        llc: org.stats().since(&snap.llc),
        compression: org.compression_stats().since(&snap.comp),
        dram: hierarchy.uncore().dram().stats().since(&snap.dram),
        level_hits,
    };
    Drive {
        result,
        finish_cycles,
        llc: hierarchy.into_llc(),
    }
}

/// Retired instructions summed over `cores`, and the lead core clock.
pub(crate) fn totals(cores: &[CoreModel]) -> (u64, u64) {
    let insts = cores.iter().map(CoreModel::instructions).sum();
    let cycles = cores.iter().map(CoreModel::cycles).max().unwrap_or(0);
    (insts, cycles)
}

/// Steps the thread furthest behind in cycles, calling `observe` after
/// every step, until every thread has retired `budget` more
/// instructions. Thread `i` is `cores[i]` fed by `feeds[i]`. Returns the
/// cycles each thread took to retire its budget.
#[inline(always)]
fn run_phase<F>(
    cores: &mut [CoreModel],
    feeds: &mut [(TraceGenerator, EventBatch)],
    hierarchy: &mut Hierarchy,
    budget: u64,
    mut observe: F,
) -> Vec<u64>
where
    F: FnMut(&[CoreModel], &Hierarchy, LevelHit),
{
    let n = cores.len();
    let start: Vec<u64> = cores.iter().map(CoreModel::cycles).collect();
    let mut target: Vec<u64> = cores.iter().map(|c| c.instructions() + budget).collect();
    let mut elapsed = vec![0; n];
    // A count, not a scan of `target`, so the stop test stays one compare
    // per event.
    let mut running = if budget == 0 { 0 } else { n };
    while running > 0 {
        // One thread needs no pick (and no clock read to make it).
        let tid = if n == 1 {
            0
        } else {
            (0..n).min_by_key(|&i| cores[i].cycles()).unwrap_or(0)
        };
        let core = &mut cores[tid];
        let (gen, batch) = &mut feeds[tid];
        let ev = batch.next(gen);
        core.work(ev.instructions());
        let out = hierarchy.access_on(tid, &ev, core.cycles(), gen);
        core.account(&ev, &out);
        if core.instructions() >= target[tid] {
            // Finished; `u64::MAX` keeps it from finishing twice.
            target[tid] = u64::MAX;
            elapsed[tid] = core.cycles() - start[tid];
            running -= 1;
        }
        observe(cores, hierarchy, out.level);
    }
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcKind;
    use bv_trace::synth::KernelSpec;
    use bv_trace::{DataProfile, KernelKind};

    fn workload(region: u64, profile: DataProfile) -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![KernelSpec {
                kind: KernelKind::HotCold {
                    hot_fraction: 32,
                    hot_probability: 200,
                },
                region_bytes: region,
                weight: 1,
                store_fraction: 48,
                profile,
            }],
            mem_fraction: 96,
            ifetch_fraction: 8,
            code_bytes: 16 << 10,
            seed: 99,
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = workload(1 << 20, DataProfile::SmallInt);
        let sys = System::new(SimConfig::single_thread(LlcKind::BaseVictim));
        let a = sys.run(&w, 200_000);
        let b = sys.run(&w, 200_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.llc, b.llc);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn base_victim_never_reads_more_than_uncompressed() {
        // The architectural guarantee, end to end through the full
        // hierarchy with prefetching.
        let w = workload(4 << 20, DataProfile::SmallInt);
        let base = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 400_000);
        let bv = System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run(&w, 400_000);
        assert!(
            bv.dram.reads <= base.dram.reads,
            "base-victim reads {} > uncompressed {}",
            bv.dram.reads,
            base.dram.reads
        );
        assert!(bv.llc.read_hits() >= base.llc.read_hits());
    }

    #[test]
    fn compressible_working_sets_gain_ipc() {
        // A working set ~2x the LLC with highly compressible data: the
        // victim cache should convert misses into hits and improve IPC.
        let w = workload(4 << 20, DataProfile::PointerLike);
        let base = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 600_000);
        let bv = System::new(SimConfig::single_thread(LlcKind::BaseVictim)).run(&w, 600_000);
        assert!(
            bv.ipc_ratio(&base) > 1.0,
            "expected speedup, got {:.4}",
            bv.ipc_ratio(&base)
        );
        assert!(bv.llc.victim_hits > 0);
    }

    #[test]
    fn level_hit_counts_sum_to_demand_accesses() {
        let w = workload(1 << 20, DataProfile::SmallInt);
        let r = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 100_000);
        let total: u64 = r.level_hits.iter().sum();
        assert!(total > 0);
        // Every demand access lands in exactly one level bucket.
        assert_eq!(
            r.level_hits[2] + r.level_hits[3],
            r.llc.base_hits + r.llc.victim_hits
        );
        assert_eq!(r.level_hits[4], r.llc.read_misses);
    }

    #[test]
    fn small_working_sets_rarely_touch_memory() {
        let w = workload(64 << 10, DataProfile::SmallInt);
        let r = System::new(SimConfig::single_thread(LlcKind::Uncompressed)).run(&w, 300_000);
        let mem_frac = r.level_hits[4] as f64 / r.level_hits.iter().sum::<u64>() as f64;
        assert!(mem_frac < 0.02, "memory fraction {mem_frac:.3} too high");
    }
}
