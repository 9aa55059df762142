//! Output checks. Each returns `Err` with a reason when a result is
//! wrong; a failed check counts its operation as failed. The workloads
//! also feed each check one corrupted copy of a real result and require
//! the check to reject it (the self-test).

use bv_kvcache::KvStats;
use bv_runner::JobSpec;
use bv_serve::proto::{DoneSummary, ResultRow};
use bv_sim::RunResult;

/// A sweep job retired its whole measured budget, and every demand
/// access that reached memory was an LLC read miss.
pub fn sweep_job(job: &JobSpec, r: &RunResult) -> Result<(), String> {
    if r.instructions < job.insts {
        return Err(format!(
            "retired {} of {} measured instructions",
            r.instructions, job.insts
        ));
    }
    if r.level_hits[4] != r.llc.read_misses {
        return Err(format!(
            "{} memory accesses but {} LLC read misses",
            r.level_hits[4], r.llc.read_misses
        ));
    }
    Ok(())
}

/// The Base-Victim guarantee on one trace: never more LLC read misses
/// or DRAM reads than the uncompressed cache.
pub fn sweep_pair(unc: &RunResult, bv: &RunResult) -> Result<(), String> {
    if bv.llc.read_misses > unc.llc.read_misses {
        return Err(format!(
            "base-victim read misses {} > uncompressed {}",
            bv.llc.read_misses, unc.llc.read_misses
        ));
    }
    if bv.dram.reads > unc.dram.reads {
        return Err(format!(
            "base-victim DRAM reads {} > uncompressed {}",
            bv.dram.reads, unc.dram.reads
        ));
    }
    Ok(())
}

/// A served grid finished with no failed job and was not cancelled.
pub fn serve_done(done: &DoneSummary) -> Result<(), String> {
    if done.failed != 0 || done.canceled {
        return Err(format!(
            "ticket {} finished with {} failed job(s){}",
            done.ticket,
            done.failed,
            if done.canceled { ", cancelled" } else { "" }
        ));
    }
    Ok(())
}

/// Rows for one config seen by both tenants carry the same result, and
/// no config was simulated twice: every `simulated` row of a config is
/// the same simulation (same trace id).
pub fn serve_rows(a: &ResultRow, b: &ResultRow) -> Result<(), String> {
    let same_result = a.ipc.to_bits() == b.ipc.to_bits()
        && a.instructions == b.instructions
        && a.llc_hit_rate.to_bits() == b.llc_hit_rate.to_bits()
        && a.comp_ratio.to_bits() == b.comp_ratio.to_bits();
    if !same_result {
        return Err(format!("config {} delivered two different results", a.hash));
    }
    if a.source == "simulated" && b.source == "simulated" && a.trace_id != b.trace_id {
        return Err(format!(
            "config {} simulated twice ({} and {})",
            a.hash, a.trace_id, b.trace_id
        ));
    }
    Ok(())
}

/// A served row matches a direct `System` run of the same config.
pub fn serve_sample(row: &ResultRow, direct: &RunResult) -> Result<(), String> {
    if row.ipc.to_bits() != direct.ipc().to_bits() || row.instructions != direct.instructions {
        return Err(format!(
            "served IPC {} ({} insts) != direct run {} ({} insts)",
            row.ipc,
            row.instructions,
            direct.ipc(),
            direct.instructions
        ));
    }
    Ok(())
}

/// The kv Base-Victim guarantee: its baseline hits equal the
/// uncompressed tier's hits on the same request stream.
pub fn kv_pair(unc: &KvStats, bv: &KvStats) -> Result<(), String> {
    if bv.base_hits != unc.hits() {
        return Err(format!(
            "base-victim base hits {} != uncompressed hits {}",
            bv.base_hits,
            unc.hits()
        ));
    }
    Ok(())
}
