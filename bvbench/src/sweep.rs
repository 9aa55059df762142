//! `sweep-reuse`: a closed-loop sweep through `bv_runner::Runner`
//! (2 workers, fresh journal), the paper's experiment shape.

use crate::checks;
use crate::layers::{self, LayerTotals};
use crate::util::{median, ns_between, ratio, tail, Metrics, Rng};
use crate::{Args, Run};
use bv_runner::{JobSpec, Runner, Span};
use bv_sim::{LlcKind, RunResult, SimConfig};
use bv_trace::TraceRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The five organizations every sweep round crosses its traces with,
/// slowest first, so a round ends on short jobs.
pub const ORGS: [LlcKind; 5] = [
    LlcKind::Dcc,
    LlcKind::TwoTag,
    LlcKind::BaseVictim,
    LlcKind::Vsc,
    LlcKind::Uncompressed,
];

/// The organization's name in metric names (`LlcKind::name` calls VSC
/// "vsc-2x").
fn org_label(kind: LlcKind) -> &'static str {
    match kind {
        LlcKind::Vsc => "vsc",
        k => k.name(),
    }
}

/// Runner workers (the reference host has 2 vCPUs).
pub const WORKERS: usize = 2;

/// The trace panel: cache-sensitive, BDI-friendly traces with 26-29 MB
/// working sets, one per category, each near its category's median job
/// time.
const TRACES: [&str; 4] = [
    "specfp.wrf.12",
    "specint.mcf.07",
    "productivity.winrar.01",
    "client.3dmark.03",
];

/// Default `bvsim` budgets.
const WARMUP: u64 = 1_000_000;
const INSTS: u64 = 1_500_000;

/// Round `round` of the job list: every trace x every organization.
/// The round draws a fresh warmup offset (so every job is a new
/// simulation, never a store or journal hit) and a trace order from the
/// seed.
fn plan_round(seed: u64, round: usize) -> Vec<(usize, JobSpec)> {
    let mut rng = Rng::new(seed ^ (round as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let warmup = WARMUP + rng.below(1 << 16);
    let mut traces = TRACES;
    rng.shuffle(&mut traces);
    let mut jobs = Vec::new();
    for kind in ORGS {
        for t in &traces {
            jobs.push((
                round,
                JobSpec::new(*t, SimConfig::single_thread(kind), warmup, INSTS),
            ));
        }
    }
    jobs
}

/// What the untraced runner phase produced.
struct Phase {
    jobs: Vec<(usize, JobSpec)>,
    results: Vec<Option<RunResult>>,
    spans: Vec<Span>,
    wall_s: f64,
}

/// What a sweep builds before its first job: the registry, a runner on
/// a fresh journal, and round 0's plan.
fn setup(seed: u64, run: &Run) -> (TraceRegistry, Runner, Vec<(usize, JobSpec)>) {
    let registry = TraceRegistry::paper_default();
    let runner = Runner::new(WORKERS)
        .with_spans()
        .with_journal(run.scratch.join("journal"), false)
        .expect("journal directory inside the benchmark's output directory");
    (registry, runner, plan_round(seed, 0))
}

/// Runs whole rounds through the runner until `seconds` have passed.
fn untraced(
    seconds: f64,
    seed: u64,
    (registry, runner, mut round_jobs): (TraceRegistry, Runner, Vec<(usize, JobSpec)>),
) -> Phase {
    let mut jobs = Vec::new();
    let t0 = Instant::now();
    for round in 1.. {
        let list: Vec<JobSpec> = round_jobs.iter().map(|(_, j)| j.clone()).collect();
        runner.execute(&registry, &list);
        jobs.append(&mut round_jobs);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        round_jobs = plan_round(seed, round);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let spans = runner.take_spans();
    let results = jobs.iter().map(|(_, j)| runner.get(j)).collect();
    Phase {
        jobs,
        results,
        spans,
        wall_s,
    }
}

/// Metrics and output checks of the untraced phase.
fn score(phase: &Phase, run: &mut Run) {
    let mut insts = 0u64;
    for ((_, job), res) in phase.jobs.iter().zip(&phase.results) {
        if let Some(r) = res {
            insts += job.warmup + r.instructions;
        }
    }
    let lat: Vec<f64> = phase.spans.iter().map(|s| s.dur_us as f64 / 1e3).collect();
    run.m
        .set("throughput_per_s", ratio(insts as f64, phase.wall_s), "1/s");
    run.m.set("op_ms_p50", median(&lat), "ms");
    let (t, pct, n) = tail(&lat);
    run.m.set("op_ms_tail", t, "ms");
    run.note(format!(
        "sim_insts_per_s {:.0}; job latency tail is p{pct:.1} of {n} jobs",
        ratio(insts as f64, phase.wall_s)
    ));

    // Output checks: every completed job, and every complete
    // uncompressed/base-victim pair of a (round, trace).
    let mut by_key: HashMap<(usize, &str, LlcKind), &RunResult> = HashMap::new();
    for ((round, job), res) in phase.jobs.iter().zip(&phase.results) {
        if let Some(r) = res {
            by_key.insert((*round, job.trace.as_str(), job.cfg.llc_kind), r);
        }
    }
    for ((round, job), res) in phase.jobs.iter().zip(&phase.results) {
        let Some(r) = res else { continue };
        let mut verdict = checks::sweep_job(job, r);
        if verdict.is_ok() && job.cfg.llc_kind == LlcKind::BaseVictim {
            if let Some(unc) = by_key.get(&(*round, job.trace.as_str(), LlcKind::Uncompressed)) {
                verdict = checks::sweep_pair(unc, r);
            }
        }
        run.op(verdict.map_err(|e| format!("{} {}: {e}", job.trace, r.llc_name)));
    }

    // The model fingerprint over round 0, so it depends on the seed only.
    let mut gains = Vec::new();
    let (mut bv_reads, mut unc_reads) = (0u64, 0u64);
    for ((round, job), res) in phase.jobs.iter().zip(&phase.results) {
        if *round != 0 || job.cfg.llc_kind != LlcKind::BaseVictim {
            continue;
        }
        let (Some(bv), Some(unc)) = (
            res,
            by_key.get(&(0, job.trace.as_str(), LlcKind::Uncompressed)),
        ) else {
            continue;
        };
        gains.push(bv.ipc_ratio(unc).ln());
        bv_reads += bv.dram.reads;
        unc_reads += unc.dram.reads;
    }
    let geo = (gains.iter().sum::<f64>() / gains.len().max(1) as f64).exp();
    run.m.set("model.bv_ipc_gain", geo, "ratio");
    run.m.set(
        "model.bv_dram_read_ratio",
        ratio(bv_reads as f64, unc_reads as f64),
        "ratio",
    );

    // Self-test: one corrupted result per check must be caught.
    if let Some(((round, job), Some(r))) = phase
        .jobs
        .iter()
        .zip(&phase.results)
        .find(|((_, j), r)| j.cfg.llc_kind == LlcKind::BaseVictim && r.is_some())
    {
        let mut short = r.clone();
        short.instructions = job.insts - 1;
        run.selftest("sweep budget", checks::sweep_job(job, &short));
        let mut leak = r.clone();
        leak.level_hits[4] += 1;
        run.selftest("sweep memory accesses", checks::sweep_job(job, &leak));
        if let Some(unc) = by_key.get(&(*round, job.trace.as_str(), LlcKind::Uncompressed)) {
            let mut worse = r.clone();
            worse.dram.reads = unc.dram.reads + 1;
            run.selftest("sweep guarantee", checks::sweep_pair(unc, &worse));
        }
    }
}

/// Runner-layer metrics from the untraced phase's spans.
fn runner_metrics(phase: &Phase, timed: &[Option<u64>], m: &mut Metrics) {
    let spans = &phase.spans;
    let start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let end = spans.iter().map(Span::end_us).max().unwrap_or(0);
    let busy: u64 = spans.iter().map(|s| s.dur_us).sum();
    // Time workers sat idle waiting for the last job of each round.
    // Rounds run one after another, so in start order the first spans
    // are round 0's, the next round 1's, and so on.
    let mut idle = 0u64;
    let mut rest: &[Span] = spans;
    let rounds = phase.jobs.last().map_or(0, |j| j.0 + 1);
    for round in 0..rounds {
        let n = phase
            .jobs
            .iter()
            .filter(|j| j.0 == round)
            .count()
            .min(rest.len());
        let (this, next) = rest.split_at(n);
        rest = next;
        let first = this.iter().map(|s| s.start_us).min().unwrap_or(0);
        let last = this.iter().map(Span::end_us).max().unwrap_or(0);
        for w in 0..WORKERS {
            let done = this
                .iter()
                .filter(|s| s.worker == w)
                .map(Span::end_us)
                .max()
                .unwrap_or(first);
            idle += last - done;
        }
    }
    m.set("runner.jobs", spans.len() as f64, "count");
    m.set(
        "runner.worker_util",
        ratio(busy as f64, (WORKERS as u64 * (end - start)) as f64),
        "ratio",
    );
    m.set("runner.tail_idle_s", idle as f64 / 1e6, "s");
    // Untraced simulation speed of each organization.
    for kind in ORGS {
        let (mut insts, mut us) = (0u64, 0u64);
        for (((_, job), res), dur) in phase.jobs.iter().zip(&phase.results).zip(timed) {
            if let (Some(r), Some(d), true) = (res, dur, job.cfg.llc_kind == kind) {
                insts += job.warmup + r.instructions;
                us += d;
            }
        }
        m.set(
            &format!("core.{}.insts_per_s", org_label(kind)),
            ratio(insts as f64, us as f64 / 1e6),
            "1/s",
        );
    }
}

/// Runs a sweep workload (`args.trace` selects the traced variant).
pub fn run(args: &Args, run: &mut Run) {
    let ready = setup(args.seed, run);
    run.first_op();
    if args.setup_only {
        return;
    }
    if !args.trace {
        let phase = untraced(args.seconds, args.seed, ready);
        score(&phase, run);
        return;
    }
    // Traced run: half the window untraced (runner spans, and the
    // reference results), half replaying those jobs with spans.
    let half = args.seconds / 2.0;
    let phase = untraced(half, args.seed, ready);
    let timed = durations(&phase);
    score(&phase, run);
    runner_metrics(&phase, &timed, &mut run.m);
    traced(&phase, &timed, half, run);
}

/// The untraced duration of each job. Spans are labelled
/// "<trace> <llc>" only, so jobs sharing a label take that label's spans
/// in start order.
fn durations(phase: &Phase) -> Vec<Option<u64>> {
    let mut by_label: HashMap<&str, std::collections::VecDeque<u64>> = HashMap::new();
    for s in &phase.spans {
        by_label
            .entry(s.label.as_str())
            .or_default()
            .push_back(s.dur_us);
    }
    phase
        .jobs
        .iter()
        .zip(&phase.results)
        .map(|((_, j), r)| {
            let label = format!("{} {}", j.trace, r.as_ref()?.llc_name);
            by_label.get_mut(label.as_str())?.pop_front()
        })
        .collect()
}

/// Replays completed jobs with spans on `WORKERS` threads (one job per
/// thread at a time) for `seconds`, checking every replay against the runner's
/// result, and reports the per-layer table.
fn traced(phase: &Phase, timed: &[Option<u64>], seconds: f64, run: &mut Run) {
    let registry = TraceRegistry::paper_default();
    // One job of each organization first, so every layer is covered.
    let done: Vec<usize> = (0..phase.jobs.len())
        .filter(|&i| phase.results[i].is_some())
        .collect();
    let mut order: Vec<usize> = Vec::new();
    for kind in ORGS {
        if let Some(&i) = done.iter().find(|&&i| phase.jobs[i].1.cfg.llc_kind == kind) {
            order.push(i);
        }
    }
    let first = order.clone();
    order.extend(done.iter().filter(|i| !first.contains(i)));

    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if k >= order.len() || (k >= ORGS.len() && t0.elapsed().as_secs_f64() >= seconds) {
                    break;
                }
                let i = order[k];
                let job = &phase.jobs[i].1;
                let wl = &registry
                    .get(&job.trace)
                    .expect("panel trace in registry")
                    .workload;
                let traced = layers::replay_job(job, wl, i as u32);
                out.lock().expect("replay results").push((i, traced));
            });
        }
    });
    let replays = out.into_inner().expect("replay results");

    let mut totals = LayerTotals::default();
    let (mut traced_ns, mut reference_ns) = (0f64, 0f64);
    let mut spans = Vec::new();
    for (i, tj) in replays {
        let job = &phase.jobs[i].1;
        let want = phase.results[i].as_ref().expect("replayed jobs completed");
        if &tj.result != want {
            run.fidelity(format!(
                "{} {}: traced replay result differs from run_with_warmup",
                job.trace, want.llc_name
            ));
        }
        if let Some(e) = tj.dram_mismatch {
            run.fidelity(format!("{} {}: {e}", job.trace, want.llc_name));
        }
        if let Some(us) = timed[i] {
            traced_ns += tj.totals.wall_ns as f64;
            reference_ns += us as f64 * 1e3;
        }
        totals.merge(&tj.totals);
        spans.extend(tj.spans);
    }
    totals.report(&mut run.m);
    run.m.set(
        "bench.trace_overhead_pct",
        100.0 * (ratio(traced_ns, reference_ns) - 1.0),
        "%",
    );
    run.layer_table(&totals, ns_between(t0, Instant::now()));
    run.spans.extend(spans);
}
