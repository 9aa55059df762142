//! `serve-mix`: an in-process `bv_serve::Daemon` (2 workers, metrics on,
//! fresh journal) driven by two closed-loop tenants over TCP.
//!
//! Each round both tenants submit one grid of cache-resident traces x
//! the 5 organizations at a tenth of the default budgets. One trace of
//! every grid is also in the other tenant's grid of the same round
//! (in-flight sharing: half of an even round's grid, a third of an odd
//! round's), and in every odd round one trace of each grid repeats a
//! config finished in the round before (a third of the grid; the daemon
//! still holds the finished job, so it is served without simulating).
//! Every round simulates 3 fresh traces x 5 organizations.
//!
//! * the *streamer* calls `client::submit(wait = true)`; its submit ->
//!   `done` time is the turnaround;
//! * the *poller* submits with `wait = false`, polls `status` and
//!   `metrics` every few milliseconds until the daemon is idle, then
//!   `watch`es its ticket.
//!
//! Each round the poller submits first and the streamer once that submit
//! is answered, so the order the two grids queue in never changes.

use crate::checks;
use crate::layers::{self, LayerTotals};
use crate::util::{median, ratio, tail, Rng};
use crate::{Args, Run};
use bv_serve::proto::{Request, Response, ResultRow, SweepGrid};
use bv_serve::{client, Daemon, ServeConfig};
use bv_sim::{LlcKind, SimConfig, System};
use bv_trace::TraceRegistry;
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

const ORGS: [&str; 5] = ["uncompressed", "base-victim", "two-tag", "vsc", "dcc"];
const POLICIES: [&str; 3] = ["nru", "lru", "srrip"];
/// A tenth of the default budgets.
const WARMUP: u64 = 100_000;
const INSTS: u64 = 150_000;
const WORKERS: usize = 2;
/// Pause between two polls of the poller.
const POLL_EVERY: Duration = Duration::from_millis(5);

/// One tenant's view of one round.
#[derive(Default)]
struct TenantRound {
    grid_jobs: u64,
    rows: Vec<ResultRow>,
    done: Option<bv_serve::DoneSummary>,
    error: Option<String>,
    merged: u64,
    journaled: u64,
    /// Submit -> done (streamer) or submit -> ack (poller).
    ms: f64,
    first_row_ms: f64,
}

/// Control-plane samples of the poller.
#[derive(Default)]
struct Control {
    status_ms: Vec<f64>,
    metrics_ms: Vec<f64>,
    errors: Vec<String>,
    queue_depth_max: u64,
}

/// The two grids of round `round`: 6 of the 20 traces per round pair,
/// drawn from the seed, shared as described in the module docs.
fn grids(traces: &[String], seed: u64, round: usize) -> (SweepGrid, SweepGrid) {
    let pair = round / 2;
    let mut rng = Rng::new(seed ^ (pair as u64).wrapping_mul(0x9e37_79b9));
    let mut t: Vec<String> = traces.to_vec();
    rng.shuffle(&mut t);
    let warmup = WARMUP + rng.below(1 << 12);
    let policy = POLICIES[rng.below(POLICIES.len() as u64) as usize];
    let pick = |idx: &[usize]| -> Vec<String> { idx.iter().map(|&i| t[i].clone()).collect() };
    // Both rounds of a pair simulate 3 fresh traces; the odd round adds
    // one finished trace per tenant on top.
    let (s, p) = if round.is_multiple_of(2) {
        (pick(&[0, 1]), pick(&[1, 2]))
    } else {
        (pick(&[3, 4, 0]), pick(&[4, 5, 2]))
    };
    let grid = |traces: Vec<String>| SweepGrid {
        traces,
        llcs: ORGS.iter().map(|s| s.to_string()).collect(),
        policies: vec![policy.to_string()],
        warmup,
        insts: INSTS,
        ..SweepGrid::default()
    };
    (grid(s), grid(p))
}

/// Starts a daemon on a fresh journal directory.
fn start_daemon(run: &Run) -> Daemon {
    let journal = run.scratch.join("serve-journal");
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        journal,
        timeout: Duration::from_secs(60),
        retries: 3,
        port_file: None,
        spans: None,
        metrics: true,
        metrics_port: None,
    })
    .expect("daemon binds a loopback port")
}

fn stop_daemon(d: Daemon) {
    let _ = client::control(&d.addr().to_string(), &Request::Shutdown);
    let _ = d.wait();
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn streamer(addr: &str, grid: &SweepGrid) -> TenantRound {
    let t = Instant::now();
    let mut r = TenantRound::default();
    let mut first = None;
    let mut rows = Vec::new();
    match client::submit(addr, grid, true, |row| {
        first.get_or_insert_with(|| ms_since(t));
        rows.push(row.clone());
    }) {
        Ok(out) => {
            r.grid_jobs = out.jobs;
            r.merged = out.merged;
            r.journaled = out.journaled;
            r.done = out.done;
        }
        Err(e) => r.error = Some(e),
    }
    r.ms = ms_since(t);
    r.first_row_ms = first.unwrap_or(r.ms);
    r.rows = rows;
    r
}

/// The poller's round; `submitted` runs once its submit is answered.
fn poller(
    addr: &str,
    grid: &SweepGrid,
    control: &mut Control,
    submitted: impl FnOnce(),
) -> TenantRound {
    let t = Instant::now();
    let mut r = TenantRound::default();
    let reply = client::submit(addr, grid, false, |_| {});
    submitted();
    let out = match reply {
        Ok(out) => out,
        Err(e) => {
            r.error = Some(e);
            return r;
        }
    };
    r.ms = ms_since(t);
    r.grid_jobs = out.jobs;
    r.merged = out.merged;
    r.journaled = out.journaled;
    loop {
        let a = Instant::now();
        let idle = match client::control(addr, &Request::Status) {
            Ok(Response::Status(s)) => {
                control.queue_depth_max = control.queue_depth_max.max(s.pending);
                s.pending + s.running == 0
            }
            Ok(other) => {
                control
                    .errors
                    .push(format!("status: unexpected reply {other:?}"));
                true
            }
            Err(e) => {
                control.errors.push(format!("status: {e}"));
                true
            }
        };
        control.status_ms.push(ms_since(a));
        let a = Instant::now();
        if let Err(e) = client::metrics(addr) {
            control.errors.push(format!("metrics: {e}"));
        }
        control.metrics_ms.push(ms_since(a));
        if idle {
            break;
        }
        std::thread::sleep(POLL_EVERY);
    }
    let mut rows = Vec::new();
    match client::watch(addr, out.ticket, |row| rows.push(row.clone())) {
        Ok(done) => r.done = Some(done),
        Err(e) => r.error = Some(e),
    }
    r.rows = rows;
    r
}

/// Rounds until `seconds` have passed; returns both tenants' rounds,
/// the control samples and the window length.
fn drive(
    addr: &str,
    traces: &[String],
    seed: u64,
    seconds: f64,
) -> (Vec<(TenantRound, TenantRound)>, Control, f64) {
    let barrier = Barrier::new(2);
    let go = Mutex::new(Vec::<bool>::new());
    let t0 = Instant::now();
    let mut control = Control::default();
    // Both tenants start a round together, and the leader decides for
    // both whether the window has room for another.
    let round_gate = |round: usize| -> bool {
        if barrier.wait().is_leader() {
            go.lock()
                .expect("round gate")
                .push(t0.elapsed().as_secs_f64() < seconds);
        }
        barrier.wait();
        go.lock().expect("round gate")[round]
    };
    let (streamed, polled) = std::thread::scope(|s| {
        let st = s.spawn(|| {
            let mut out = Vec::new();
            for round in 0.. {
                if !round_gate(round) {
                    break;
                }
                // The poller's jobs queue first, so the streamer's
                // turnaround does not depend on who won a race.
                barrier.wait();
                out.push(streamer(addr, &grids(traces, seed, round).0));
            }
            out
        });
        let mut out = Vec::new();
        for round in 0.. {
            if !round_gate(round) {
                break;
            }
            let grid = grids(traces, seed, round).1;
            out.push(poller(addr, &grid, &mut control, || {
                barrier.wait();
            }));
        }
        (st.join().expect("streamer thread"), out)
    });
    let wall = t0.elapsed().as_secs_f64();
    (streamed.into_iter().zip(polled).collect(), control, wall)
}

/// The 20 cache-resident traces (working set under 1 MB).
fn resident_traces(registry: &TraceRegistry) -> Vec<String> {
    registry
        .all()
        .filter(|t| t.workload.working_set_bytes() < (1 << 20))
        .map(|t| t.name.clone())
        .collect()
}

/// The job a served row came from.
fn job_of(row: &ResultRow, warmup: u64) -> bv_runner::JobSpec {
    let kind = LlcKind::from_name(&row.llc).expect("served org name");
    let policy = bv_cache::PolicyKind::from_name(&row.policy).expect("served policy name");
    bv_runner::JobSpec::new(
        row.trace.clone(),
        SimConfig::single_thread(kind).with_policy(policy),
        warmup,
        INSTS,
    )
}

pub fn run(args: &Args, run: &mut Run) {
    let registry = TraceRegistry::paper_default();
    let traces = resident_traces(&registry);
    let daemon = start_daemon(run);
    run.first_op();
    if args.setup_only {
        stop_daemon(daemon);
        return;
    }
    let addr = daemon.addr().to_string();

    let window = if args.trace {
        args.seconds * 0.7
    } else {
        args.seconds
    };
    let (rounds, control, wall) = drive(&addr, &traces, args.seed, window);
    let snap = client::metrics(&addr);
    stop_daemon(daemon);

    // Per-grid verdicts, plus a consistency check of every row against
    // the first row seen for its config.
    let mut first_row: HashMap<String, ResultRow> = HashMap::new();
    let mut fresh_insts = 0u64;
    let (mut jobs, mut merged, mut journaled) = (0u64, 0u64, 0u64);
    let mut turnaround = Vec::new();
    let mut first_rows = Vec::new();
    let mut acks = Vec::new();
    for (round, (s, p)) in rounds.iter().enumerate() {
        let warmup = grids(&traces, args.seed, round).0.warmup;
        for (tenant, tr) in [s, p].into_iter().enumerate() {
            jobs += tr.grid_jobs;
            merged += tr.merged;
            journaled += tr.journaled;
            let mut verdict = match (&tr.error, &tr.done) {
                (Some(e), _) => Err(e.clone()),
                (None, Some(done)) => checks::serve_done(done),
                (None, None) => Err("no done line".to_string()),
            };
            if verdict.is_ok() && tr.rows.len() as u64 != tr.grid_jobs {
                verdict = Err(format!("{} rows for {} jobs", tr.rows.len(), tr.grid_jobs));
            }
            for row in &tr.rows {
                match first_row.get(&row.hash) {
                    Some(first) => {
                        if verdict.is_ok() {
                            verdict = checks::serve_rows(first, row);
                        }
                    }
                    None => {
                        if row.source == "simulated" {
                            fresh_insts += warmup + row.instructions;
                        }
                        first_row.insert(row.hash.clone(), row.clone());
                    }
                }
            }
            run.op(verdict.map_err(|e| format!("round {round} tenant {tenant}: {e}")));
        }
        turnaround.push(s.ms);
        first_rows.push(s.first_row_ms);
        acks.push(p.ms);
    }
    // Every status and metrics call is one operation; the failed ones
    // left an error behind.
    let calls = control.status_ms.len() + control.metrics_ms.len();
    for _ in control.errors.len()..calls {
        run.op(Ok(()));
    }
    for e in &control.errors {
        run.op(Err(e.clone()));
    }
    match &snap {
        Ok(_) => run.op(Ok(())),
        Err(e) => run.op(Err(format!("final metrics scrape: {e}"))),
    }

    run.m
        .set("throughput_per_s", ratio(fresh_insts as f64, wall), "1/s");
    run.m.set("op_ms_p50", median(&turnaround), "ms");
    let (t, pct, n) = tail(&turnaround);
    run.m.set("op_ms_tail", t, "ms");
    run.note(format!(
        "sim_insts_per_s {:.0}; turnaround tail is p{pct:.1} of {n} grids; {} rounds",
        ratio(fresh_insts as f64, wall),
        rounds.len()
    ));

    // After timing: round 0's first streamer trace, uncompressed and
    // base-victim, run directly; the served rows must match, and the
    // pair gives the model fingerprint (a function of the seed alone).
    let grid0 = grids(&traces, args.seed, 0).0;
    let served0: Vec<&ResultRow> = rounds
        .first()
        .map(|(s, _)| {
            s.rows
                .iter()
                .filter(|r| r.trace == grid0.traces[0])
                .collect()
        })
        .unwrap_or_default();
    let mut direct: HashMap<&str, bv_sim::RunResult> = HashMap::new();
    for org in ["uncompressed", "base-victim"] {
        let Some(row) = served0.iter().find(|r| r.llc == org) else {
            run.op(Err(format!(
                "round 0 has no {org} row for {}",
                grid0.traces[0]
            )));
            continue;
        };
        let job = job_of(row, grid0.warmup);
        let wl = &registry.get(&job.trace).expect("served trace").workload;
        let d = System::new(job.cfg).run_with_warmup(wl, job.warmup, job.insts);
        run.op(checks::serve_sample(row, &d).map_err(|e| format!("{} {}: {e}", row.trace, row.llc)));
        if org == "base-victim" {
            let mut off = d.clone();
            off.instructions += 1;
            run.selftest("serve sample", checks::serve_sample(row, &off));
            let mut changed = (*row).clone();
            changed.ipc = f64::from_bits(row.ipc.to_bits() + 1);
            run.selftest("serve identical rows", checks::serve_rows(row, &changed));
            let mut twice = (*row).clone();
            twice.source = "simulated".to_string();
            let mut other = twice.clone();
            other.trace_id.push('x');
            run.selftest("serve simulated once", checks::serve_rows(&twice, &other));
        }
        direct.insert(org, d);
    }
    if let Some(done) = rounds.first().and_then(|(s, _)| s.done.clone()) {
        let mut bad = done;
        bad.failed += 1;
        run.selftest("serve done", checks::serve_done(&bad));
    }
    if let (Some(u), Some(b)) = (direct.get("uncompressed"), direct.get("base-victim")) {
        run.m.set("model.bv_ipc_gain", b.ipc_ratio(u), "ratio");
        run.m
            .set("model.bv_dram_read_ratio", b.dram_read_ratio(u), "ratio");
    }

    if !args.trace {
        return;
    }
    serve_layer_metrics(
        run,
        &rounds,
        &control,
        &snap,
        wall,
        jobs,
        merged,
        journaled,
        &acks,
        &first_rows,
    );
    // Sim layers: replay sampled served jobs with spans.
    let budget = args.seconds * 0.3;
    let t0 = Instant::now();
    let mut totals = LayerTotals::default();
    let (mut traced_ns, mut served_s) = (0f64, 0f64);
    let rows: Vec<&ResultRow> = rounds
        .iter()
        .flat_map(|(s, _)| s.rows.iter())
        .filter(|r| r.source == "simulated")
        .collect();
    for (i, row) in rows.iter().enumerate() {
        if i >= ORGS.len() && t0.elapsed().as_secs_f64() >= budget {
            break;
        }
        let round = rounds
            .iter()
            .position(|(s, _)| s.rows.iter().any(|r| r.hash == row.hash))
            .unwrap_or(0);
        let job = job_of(row, grids(&traces, args.seed, round).0.warmup);
        let wl = &registry.get(&job.trace).expect("served trace").workload;
        let tj = layers::replay_job(&job, wl, i as u32);
        if checks::serve_sample(row, &tj.result).is_err() {
            run.fidelity(format!(
                "{} {}: traced replay differs from the served row",
                row.trace, row.llc
            ));
        }
        if let Some(e) = tj.dram_mismatch {
            run.fidelity(format!("{} {}: {e}", row.trace, row.llc));
        }
        traced_ns += tj.totals.wall_ns as f64;
        served_s += row.wall_secs;
        totals.merge(&tj.totals);
        run.spans.extend(tj.spans);
    }
    totals.report(&mut run.m);
    run.m.set(
        "bench.trace_overhead_pct",
        100.0 * (ratio(traced_ns, served_s * 1e9) - 1.0),
        "%",
    );
    run.layer_table(&totals, (t0.elapsed().as_nanos()) as u64);
}

#[allow(clippy::too_many_arguments)]
fn serve_layer_metrics(
    run: &mut Run,
    rounds: &[(TenantRound, TenantRound)],
    control: &Control,
    snap: &Result<bv_metrics::Snapshot, String>,
    wall: f64,
    jobs: u64,
    merged: u64,
    journaled: u64,
    acks: &[f64],
    first_rows: &[f64],
) {
    let m = &mut run.m;
    m.set("serve.submit_ack_ms_p50", median(acks), "ms");
    m.set("serve.first_row_ms_p50", median(first_rows), "ms");
    if let Ok(snap) = snap {
        let pct = |name: &str, q: f64| {
            snap.histogram(name)
                .and_then(|h| h.hist.percentile(q))
                .map_or(0.0, |v| v as f64)
        };
        let tail_q = |name: &str| {
            let n = snap.histogram(name).map_or(0, |h| h.hist.count());
            if n > 10 {
                1.0 - 10.0 / n as f64
            } else {
                1.0
            }
        };
        m.set(
            "serve.queue_wait_ms_p50",
            pct("job_queue_wait_ms", 0.5),
            "ms",
        );
        m.set(
            "serve.queue_wait_ms_tail",
            pct("job_queue_wait_ms", tail_q("job_queue_wait_ms")),
            "ms",
        );
        m.set("serve.sim_ms_p50", pct("job_sim_ms", 0.5), "ms");
        m.set("serve.journal_ms_p50", pct("job_journal_ms", 0.5), "ms");
        m.set(
            "serve.journal_ms_tail",
            pct("job_journal_ms", tail_q("job_journal_ms")),
            "ms",
        );
        let busy_ms = snap.histogram("job_sim_ms").map_or(0, |h| h.sum)
            + snap.histogram("job_journal_ms").map_or(0, |h| h.sum);
        m.set(
            "serve.worker_util",
            ratio(busy_ms as f64, WORKERS as f64 * wall * 1e3),
            "ratio",
        );
        m.set(
            "serve.retries",
            snap.counter("job_retries_total") as f64,
            "count",
        );
        m.set(
            "serve.timeouts",
            snap.counter("job_timeouts_total") as f64,
            "count",
        );
        m.set(
            "serve.crashes",
            snap.counter("worker_crashes_total") as f64,
            "count",
        );
    }
    m.set(
        "serve.queue_depth_max",
        control.queue_depth_max as f64,
        "count",
    );
    m.set(
        "serve.merged_ratio",
        ratio(merged as f64, jobs as f64),
        "ratio",
    );
    m.set(
        "serve.journal_hit_ratio",
        ratio(journaled as f64, jobs as f64),
        "ratio",
    );
    m.set("serve.status_ms_p50", median(&control.status_ms), "ms");
    m.set("serve.metrics_ms_p50", median(&control.metrics_ms), "ms");
    let all: Vec<f64> = control
        .status_ms
        .iter()
        .chain(&control.metrics_ms)
        .copied()
        .collect();
    let (t, pct, n) = tail(&all);
    m.set("serve.control_ms_tail", t, "ms");
    run.table_line(format!(
        "serve: {} rounds, {} grid jobs ({} merged, {} journaled); control tail p{pct:.1} of {n}",
        rounds.len(),
        jobs,
        merged,
        journaled
    ));
}
