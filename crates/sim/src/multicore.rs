//! Multi-program (shared-LLC) simulation driver (Section V / Figure 13).
//!
//! Four cores with private L1/L2 caches share one LLC and the DRAM
//! channels. Each thread executes a fixed instruction budget; threads that
//! finish early continue executing so LLC contention stays realistic (as
//! in the paper), and the run ends when every thread has finished its
//! measured phase. It runs the single-core driver's drive loop
//! (`system.rs`) with one thread per program.

use crate::config::SimConfig;
use crate::dram::DramStats;
use crate::system::drive;
use crate::telemetry::NoInstrument;
use bv_core::LlcStats;
use bv_trace::synth::WorkloadSpec;

/// Measurements of one multi-program run.
#[derive(Clone, Debug)]
pub struct MulticoreResult {
    /// Per-thread IPC over each thread's measured phase.
    pub thread_ipc: Vec<f64>,
    /// Shared-LLC statistics.
    pub llc: LlcStats,
    /// Shared-DRAM statistics.
    pub dram: DramStats,
}

impl MulticoreResult {
    /// The paper's metric: normalized weighted speedup,
    /// `(1/n) * sum(IPC_new_i / IPC_base_i)`, equal to 1.0 when nothing
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if the two results have different thread counts.
    #[must_use]
    pub fn weighted_speedup(&self, baseline: &MulticoreResult) -> f64 {
        assert_eq!(self.thread_ipc.len(), baseline.thread_ipc.len());
        let n = self.thread_ipc.len() as f64;
        self.thread_ipc
            .iter()
            .zip(baseline.thread_ipc.iter())
            .map(|(new, base)| new / base)
            .sum::<f64>()
            / n
    }
}

/// The shared-LLC multi-program system.
///
/// # Examples
///
/// ```no_run
/// use bv_sim::{LlcKind, MulticoreSystem, SimConfig};
/// use bv_trace::{mix::paper_mixes, TraceRegistry};
///
/// let reg = TraceRegistry::paper_default();
/// let mixes = paper_mixes(&reg);
/// let members = mixes[0].resolve(&reg);
/// let workloads: Vec<_> = members.iter().map(|t| t.workload.clone()).collect();
/// let result = MulticoreSystem::new(SimConfig::multi_program(LlcKind::BaseVictim))
///     .run(&workloads, 500_000);
/// assert_eq!(result.thread_ipc.len(), 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MulticoreSystem {
    cfg: SimConfig,
}

impl MulticoreSystem {
    /// Creates a multi-program system.
    #[must_use]
    pub fn new(cfg: SimConfig) -> MulticoreSystem {
        MulticoreSystem { cfg }
    }

    /// Runs the mix until every thread has retired `instructions_each`;
    /// early finishers keep executing to preserve contention.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    #[must_use]
    pub fn run(&self, workloads: &[WorkloadSpec], instructions_each: u64) -> MulticoreResult {
        let run = drive(
            self.cfg,
            None,
            workloads,
            0,
            instructions_each,
            &mut NoInstrument,
        );
        MulticoreResult {
            thread_ipc: run
                .finish_cycles
                .iter()
                .map(|&c| instructions_each as f64 / c as f64)
                .collect(),
            llc: run.result.llc,
            dram: run.result.dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcKind;
    use crate::system::THREAD_OFFSET;
    use bv_trace::synth::KernelSpec;
    use bv_trace::{DataProfile, KernelKind};

    fn workload(seed: u64, profile: DataProfile) -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![KernelSpec {
                kind: KernelKind::HotCold {
                    hot_fraction: 32,
                    hot_probability: 210,
                },
                region_bytes: 2 << 20,
                weight: 1,
                store_fraction: 40,
                profile,
            }],
            mem_fraction: 96,
            ifetch_fraction: 8,
            code_bytes: 16 << 10,
            seed,
        }
    }

    #[test]
    fn four_threads_all_finish() {
        let ws: Vec<WorkloadSpec> = (0..4).map(|i| workload(i, DataProfile::SmallInt)).collect();
        let r =
            MulticoreSystem::new(SimConfig::multi_program(LlcKind::Uncompressed)).run(&ws, 50_000);
        assert_eq!(r.thread_ipc.len(), 4);
        assert!(r.thread_ipc.iter().all(|&ipc| ipc > 0.0));
    }

    #[test]
    fn weighted_speedup_of_identical_runs_is_one() {
        let ws: Vec<WorkloadSpec> = (0..2).map(|i| workload(i, DataProfile::SmallInt)).collect();
        let sys = MulticoreSystem::new(SimConfig::multi_program(LlcKind::Uncompressed));
        let a = sys.run(&ws, 40_000);
        let b = sys.run(&ws, 40_000);
        assert!((a.weighted_speedup(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compression_helps_contended_mixes() {
        let ws: Vec<WorkloadSpec> = (0..4)
            .map(|i| workload(i, DataProfile::PointerLike))
            .collect();
        let base =
            MulticoreSystem::new(SimConfig::multi_program(LlcKind::Uncompressed)).run(&ws, 150_000);
        let bv =
            MulticoreSystem::new(SimConfig::multi_program(LlcKind::BaseVictim)).run(&ws, 150_000);
        // The architectural guarantee is on hit rate; IPC additionally
        // pays the tag/decompression latency, so allow a sliver of noise
        // at this tiny instruction budget.
        assert!(
            bv.weighted_speedup(&base) >= 0.98,
            "weighted speedup {:.3} unexpectedly low",
            bv.weighted_speedup(&base)
        );
        assert!(
            bv.llc.hit_rate() >= base.llc.hit_rate() - 1e-12,
            "hit-rate guarantee violated in the mix"
        );
        assert!(bv.llc.victim_hits > 0, "victim cache unused in the mix");
    }

    #[test]
    fn one_thread_is_the_single_core_run() {
        let w = workload(3, DataProfile::PointerLike);
        let cfg = SimConfig::multi_program(LlcKind::BaseVictim);
        let mc = MulticoreSystem::new(cfg).run(std::slice::from_ref(&w), 60_000);
        let sc = crate::System::new(cfg).run(&w, 60_000);
        assert_eq!(mc.thread_ipc, vec![60_000.0 / sc.cycles as f64]);
        assert_eq!(mc.llc, sc.llc);
        assert_eq!(mc.dram, sc.dram);
    }

    #[test]
    fn threads_use_disjoint_address_spaces() {
        // Two copies of the same workload (same seed).
        let w = workload(7, DataProfile::SmallInt);
        let mut g0 = w.generator_at(0);
        let mut g1 = w.generator_at(THREAD_OFFSET);
        for _ in 0..100 {
            let a = g0.next_event().addr;
            let b = g1.next_event().addr;
            assert!(b >= THREAD_OFFSET && a < THREAD_OFFSET);
        }
    }
}
