//! `bvsim` — command-line driver for the Base-Victim simulator.
//!
//! ```text
//! bvsim --list-traces
//! bvsim --trace specint.mcf.07 --llc base-victim --compare
//! bvsim --trace client.octane.00 --llc two-tag --policy srrip \
//!       --llc-mb 4 --ways 16 --warmup 2000000 --insts 3000000
//! bvsim --trace specint.mcf.07 --telemetry mcf.jsonl --epoch 100000
//! bvsim sweep --jobs 8 --journal results/journal
//! bvsim sweep --resume        # continue an interrupted sweep
//! bvsim sweep --telemetry-dir results/telemetry
//! bvsim bench                 # full perf suite, writes BENCH.json
//! bvsim bench --quick --baseline BENCH.json   # CI regression gate
//! bvsim report mcf.jsonl      # per-epoch TSV + sparklines
//! bvsim sweep --spans spans.json              # Perfetto span export
//! bvsim trace --trace specint.mcf.07 --out events.jsonl --kinds eviction,victim-hit
//! bvsim trace --audit --inject 200            # divergence-auditor self-test
//! bvsim kv --dist web --compare               # kv tier: all three organizations
//! bvsim kv --sweep                            # every org x dist via the runner pool
//! bvsim kv --lockstep --dist social           # kv baseline-mirror auditor
//! bvsim fuzz --cases 200 --seed 1             # adversarial property fuzzing
//! bvsim fuzz --inject                         # fault-detection self-test
//! bvsim fuzz --replay tests/corpus/kv-inject-mirror.bvfuzz.json
//! bvsim serve --addr 127.0.0.1:0 --port-file serve.addr    # sweep daemon
//! bvsim submit --traces specint.mcf.07,client.octane.00 --llcs uncompressed,base-victim
//! bvsim watch --ticket 1                      # re-attach to a running sweep
//! bvsim ctl --status                          # daemon counters
//! bvsim ctl --shutdown                        # drain in-flight work, then exit
//! ```
//!
//! Argument parsing lives in [`base_victim::cli`] so it can be
//! unit-tested; this binary only dispatches the parsed command.

use base_victim::bench::perf;
use base_victim::cli::{
    self, BenchArgs, Command, CtlAction, CtlArgs, FuzzArgs, KvArgs, RunArgs, ServeArgs, SubmitArgs,
    SweepArgs, TopArgs, TraceArgs, WatchArgs, USAGE,
};
use base_victim::events::{CacheEvent, EventFilter, EventKind, RingSink};
use base_victim::fuzz as bvfuzz;
use base_victim::kvcache::{
    run_kv as kv_replay, run_kv_sampled, run_kv_traced, KvConfig, KvOrgKind, KvRunResult,
    KvTelemetry, LockstepConfig,
};
use base_victim::llc::audit::{self, AuditConfig};
use base_victim::serve::{
    client, Daemon, DoneSummary, Request, Response, ResultRow, ServeConfig, SweepGrid, TopView,
};
use base_victim::sim::SimTelemetry;
use base_victim::trace::request::RequestProfile;
use base_victim::{CacheGeometry, LlcKind, SimConfig, System, TraceRegistry, TraceSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Every subcommand reports a failure it cannot go on from as an
    // `Err` message, printed here; verdicts (an audit that diverged, a
    // fuzz case that failed) are exit codes.
    let outcome = match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Command::ListTraces => {
            list_traces();
            Ok(ExitCode::SUCCESS)
        }
        Command::Run(run) => run_one(&run),
        Command::Sweep(sweep) => run_sweep(&sweep),
        Command::Bench(bench) => run_bench(&bench),
        Command::Report(path) => run_report(&path),
        Command::Trace(trace) => run_trace(&trace),
        Command::Kv(kv) => run_kv(&kv),
        Command::Fuzz(fuzz) => run_fuzz(&fuzz),
        Command::Serve(serve) => run_serve(&serve),
        Command::Submit(submit) => run_submit(&submit),
        Command::Watch(watch) => run_watch(&watch),
        Command::Ctl(ctl) => run_ctl(&ctl),
        Command::Top(top) => run_top(&top),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Writes `text` to `path`; `what` (e.g. `"telemetry "`) precedes the path
/// in the error.
fn write_file(path: &Path, text: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {what}{}: {e}", path.display()))
}

fn list_traces() {
    let registry = TraceRegistry::paper_default();
    println!(
        "{:28} {:12} {:10} {:12} {:>8}",
        "name", "category", "sensitive", "compressible", "WS(MB)"
    );
    for t in registry.all() {
        println!(
            "{:28} {:12} {:10} {:12} {:>8}",
            t.name,
            t.category.name(),
            t.cache_sensitive,
            t.compression_friendly,
            t.workload.working_set_bytes() >> 20
        );
    }
}

/// Looks a trace up in the paper's registry.
fn registry_trace(name: &str) -> Result<TraceSpec, String> {
    TraceRegistry::paper_default()
        .get(name)
        .cloned()
        .ok_or_else(|| format!("trace '{name}' not in the registry (try --list-traces)"))
}

fn run_one(args: &RunArgs) -> Result<ExitCode, String> {
    let trace = registry_trace(&args.trace)?;
    let cfg = args.sim_config()?;
    println!(
        "trace {} | LLC {} {} MB {}-way, {} policy | warmup {} + measure {} instructions",
        trace.name,
        args.llc.name(),
        args.llc_mb,
        args.ways,
        args.policy.name(),
        args.warmup,
        args.insts
    );

    let system = System::new(cfg);
    let run = match &args.telemetry {
        Some(path) => {
            let mut tel = SimTelemetry::new(args.epoch)
                .with_meta("trace", &trace.name)
                .with_meta("llc", args.llc.name())
                .with_meta("policy", args.policy.name());
            let run = system.run_sampled(&trace.workload, args.warmup, args.insts, &mut tel);
            let report = tel.into_report();
            write_file(path, &report.to_jsonl(), "telemetry ")?;
            println!(
                "telemetry           : {} epochs of {} insts -> {}",
                report.series.rows(),
                args.epoch,
                path.display()
            );
            run
        }
        None => system.run_with_warmup(&trace.workload, args.warmup, args.insts),
    };
    println!("\n=== {} ===", run.llc_name);
    println!("IPC                 : {:.4}", run.ipc());
    println!("cycles              : {}", run.cycles);
    println!(
        "LLC hits            : {} base + {} victim, {} misses (hit rate {:.1}%)",
        run.llc.base_hits,
        run.llc.victim_hits,
        run.llc.read_misses,
        run.llc.hit_rate() * 100.0
    );
    println!(
        "DRAM                : {} reads, {} writes (row-hit {:.0}%)",
        run.dram.reads,
        run.dram.writes,
        run.dram.row_hit_rate() * 100.0
    );
    println!(
        "compressed size     : {:.0}% of uncompressed (mean over LLC fills)",
        run.compression.mean_ratio() * 100.0
    );
    println!("level mix (L1/L2/LLCb/LLCv/mem): {:?}", run.level_hits);

    if args.compare {
        let base_cfg = SimConfig {
            llc_kind: LlcKind::Uncompressed,
            ..cfg
        };
        let base = System::new(base_cfg).run_with_warmup(&trace.workload, args.warmup, args.insts);
        println!("\n=== vs uncompressed baseline ===");
        println!(
            "IPC ratio           : {:.4} ({:+.2}%)",
            run.ipc_ratio(&base),
            (run.ipc_ratio(&base) - 1.0) * 100.0
        );
        println!("DRAM read ratio     : {:.4}", run.dram_read_ratio(&base));
        println!(
            "baseline IPC        : {:.4}, reads {}",
            base.ipc(),
            base.dram.reads
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn run_sweep(args: &SweepArgs) -> Result<ExitCode, String> {
    let workers = args
        .jobs
        .unwrap_or_else(base_victim::runner::pool::default_workers);
    let runner = base_victim::runner::Runner::new(workers)
        .with_journal(&args.journal, args.resume)
        .map_err(|e| format!("cannot open journal {}: {e}", args.journal.display()))?
        .with_progress(true);
    let runner = match &args.telemetry_dir {
        Some(dir) => runner
            .with_telemetry(dir, args.epoch)
            .map_err(|e| format!("cannot create telemetry dir {}: {e}", dir.display()))?,
        None => runner,
    };
    let runner = if args.spans.is_some() {
        runner.with_spans()
    } else {
        runner
    };
    // Ctrl-C checkpoints in-flight state and leaves a resumable journal
    // instead of killing the process mid-write.
    let interrupted = sigint::install();
    let runner = runner.with_cancel(std::sync::Arc::clone(&interrupted));
    let ctx = base_victim::bench::Ctx::with_runner(runner);
    println!(
        "sweep: {} worker(s), journal {}{}, warmup {} + measure {} instructions per run",
        ctx.runner.workers(),
        args.journal.display(),
        if args.resume { " (resuming)" } else { "" },
        ctx.budget.warmup,
        ctx.budget.insts
    );
    let t0 = std::time::Instant::now();
    let report = base_victim::bench::figures::plan_suite(&ctx);
    println!(
        "sweep: {} jobs requested, {} unique; {} from memory, {} from journal, {} simulated; {:.1}s",
        report.requested,
        report.unique,
        report.from_memory,
        report.from_journal,
        report.simulated,
        t0.elapsed().as_secs_f64()
    );
    if report.canceled > 0 {
        println!("sweep: {} job(s) skipped after Ctrl-C", report.canceled);
    }
    if let Some(journal) = ctx.runner.journal() {
        println!(
            "sweep: {} checkpoints under {} (runs.jsonl has one line per completed job)",
            journal.checkpoint_count(),
            journal.dir().display()
        );
    }
    if let Some(path) = &args.spans {
        let spans = ctx.runner.take_spans();
        write_file(
            path,
            &base_victim::runner::chrome_trace_json(&spans),
            "spans ",
        )?;
        println!(
            "sweep: {} -> {} (load in Perfetto or chrome://tracing)",
            base_victim::runner::utilization_summary(&spans),
            path.display()
        );
    }
    if report.canceled > 0 {
        eprintln!(
            "sweep: interrupted — completed work is checkpointed; rerun with --resume \
             --journal {} to continue",
            args.journal.display()
        );
        // The conventional exit status for death-by-SIGINT.
        return Ok(ExitCode::from(130));
    }
    Ok(ExitCode::SUCCESS)
}

fn run_report(path: &Path) -> Result<ExitCode, String> {
    let report = base_victim::load_report(path)?;
    print!("{}", base_victim::telemetry::render(&report));
    Ok(ExitCode::SUCCESS)
}

fn run_trace(args: &TraceArgs) -> Result<ExitCode, String> {
    if args.audit {
        return Ok(run_audit(args));
    }
    let trace = registry_trace(&args.trace)?;
    let cfg = args.sim_config()?;
    let mut filter = EventFilter::all();
    if let Some(kinds) = &args.kinds {
        filter = filter.with_kind_names(kinds)?;
    }
    // CLI ranges are inclusive; the filter is half-open.
    if let Some((lo, hi)) = args.sets {
        filter = filter.with_sets(lo, hi.saturating_add(1));
    }
    if let Some((lo, hi)) = args.window {
        filter = filter.with_seq_window(lo, hi.saturating_add(1));
    }
    let sink = RingSink::new(args.capacity).with_filter(filter);
    let llc = cfg.llc_kind.build_traced(cfg.llc, cfg.llc_policy, sink);

    println!(
        "trace {} | LLC {} {} MB {}-way, {} policy | warmup {} + capture {} instructions, \
         ring capacity {}",
        trace.name,
        args.llc.name(),
        args.llc_mb,
        args.ways,
        args.policy.name(),
        args.warmup,
        args.budget,
        args.capacity
    );
    let system = System::new(cfg);
    let (run, mut llc) = system.run_traced(&trace.workload, args.warmup, args.budget, llc);
    let events = llc.drain_events();
    let dropped = llc.events_dropped();

    println!(
        "captured {} event(s) ({} overwritten by newer ones) | run IPC {:.4}",
        events.len(),
        dropped,
        run.ipc()
    );
    print_kind_summary(&events);
    if args.heatmap {
        print_set_heatmap(&events, cfg.llc.sets());
    }

    if let Some(path) = &args.out {
        let mut meta = BTreeMap::new();
        meta.insert("trace".to_string(), trace.name.clone());
        meta.insert("llc".to_string(), args.llc.name().to_string());
        meta.insert("policy".to_string(), args.policy.name().to_string());
        let text = base_victim::telemetry::write_events(&events, dropped, &meta);
        write_file(path, &text, "")?;
        println!("events -> {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Per-kind event counts, most frequent first.
fn print_kind_summary(events: &[CacheEvent]) {
    let mut counts = [0u64; EventKind::NAMES.len()];
    for ev in events {
        counts[ev.kind.bit() as usize] += 1;
    }
    let mut rows: Vec<(u64, &str)> = EventKind::NAMES
        .iter()
        .enumerate()
        .filter(|&(i, _)| counts[i] > 0)
        .map(|(i, &name)| (counts[i], name))
        .collect();
    rows.sort_by(|a, b| b.cmp(a));
    for (count, name) in rows {
        println!("{name:>18} {count:>10}");
    }
}

/// Event density per set, bucketed into a terminal-width sparkline.
fn print_set_heatmap(events: &[CacheEvent], sets: usize) {
    let mut per_set = vec![0u64; sets];
    for ev in events {
        if let Some(slot) = per_set.get_mut(ev.set as usize) {
            *slot += 1;
        }
    }
    const WIDTH: usize = 64;
    let bucket = sets.div_ceil(WIDTH).max(1);
    let density: Vec<f64> = per_set
        .chunks(bucket)
        .map(|c| c.iter().sum::<u64>() as f64)
        .collect();
    println!(
        "set heatmap ({} sets per column): {}",
        bucket,
        base_victim::telemetry::sparkline(&density, WIDTH)
    );
}

fn run_audit(args: &TraceArgs) -> ExitCode {
    // A small LLC so the op budget exercises evictions in every set.
    let geom = CacheGeometry::new(64 * 1024, 8, 64);
    let cfg = AuditConfig {
        ops: args.ops,
        seed: args.seed,
        context: args.context,
        inject_at: args.inject,
        policy: args.policy,
        ..AuditConfig::default()
    };
    println!(
        "audit: {} ops, seed {}, {} policy, 64 KiB 8-way LLC{}",
        cfg.ops,
        cfg.seed,
        args.policy.name(),
        match args.inject {
            Some(op) => format!(", injecting a policy perturbation at op {op}"),
            None => String::new(),
        }
    );
    let report = audit::run_audit(geom, &cfg);
    println!(
        "audit: {} ops run, {} event(s) observed",
        report.ops_run, report.events_seen
    );
    match (&report.divergence, report.injected) {
        (Some(d), injected) => {
            print!("{}", audit::render_divergence(d));
            if injected {
                println!("audit: injected fault detected, as required");
                ExitCode::SUCCESS
            } else {
                eprintln!("audit: FAILED — base-victim Baseline diverged from uncompressed");
                ExitCode::FAILURE
            }
        }
        (None, true) => {
            eprintln!("audit: FAILED — injected fault was not detected");
            ExitCode::FAILURE
        }
        (None, false) => {
            println!("audit: PASSED — Baseline contents matched the uncompressed LLC throughout");
            ExitCode::SUCCESS
        }
    }
}

fn run_kv(args: &KvArgs) -> Result<ExitCode, String> {
    if args.lockstep {
        return Ok(run_kv_lockstep(args));
    }
    if args.sweep {
        return Ok(run_kv_sweep(args));
    }
    let profile = RequestProfile::by_name(&args.dist).expect("dist validated at parse time");
    let mut cfg = KvConfig::new(args.org, profile);
    cfg.budget = args.budget_kib * 1024;
    cfg.requests = args.requests;
    cfg.warmup = args.warmup;
    cfg.seed = args.seed;

    if args.compare {
        println!(
            "kv compare | dist {} | budget {} KiB | warmup {} + measure {} requests, seed {}",
            args.dist, args.budget_kib, args.warmup, args.requests, args.seed
        );
        print_kv_header();
        for org in KvOrgKind::ALL {
            cfg.org = org;
            print_kv_row(&kv_replay(&cfg));
        }
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "kv {} | dist {} | budget {} KiB | warmup {} + measure {} requests, seed {}",
        args.org.name(),
        args.dist,
        args.budget_kib,
        args.warmup,
        args.requests,
        args.seed
    );
    let result = if let Some(path) = &args.telemetry {
        let mut tel = KvTelemetry::new(args.epoch)
            .with_meta("org", args.org.name())
            .with_meta("dist", &args.dist);
        let result = run_kv_sampled(&cfg, &mut tel);
        let report = tel.into_report();
        write_file(path, &report.to_jsonl(), "telemetry ")?;
        println!(
            "telemetry           : {} epochs of {} requests -> {}",
            report.series.rows(),
            args.epoch,
            path.display()
        );
        result
    } else if let Some(path) = &args.events {
        let (result, events, dropped) = run_kv_traced(&cfg, RingSink::new(args.capacity));
        println!(
            "captured {} event(s) ({} overwritten by newer ones)",
            events.len(),
            dropped
        );
        print_kind_summary(&events);
        let mut meta = BTreeMap::new();
        meta.insert("kv-org".to_string(), args.org.name().to_string());
        meta.insert("kv-dist".to_string(), args.dist.clone());
        let text = base_victim::telemetry::write_events(&events, dropped, &meta);
        write_file(path, &text, "")?;
        println!("events -> {}", path.display());
        result
    } else {
        kv_replay(&cfg)
    };

    let s = &result.stats;
    println!(
        "hit rate            : {:.2}% ({} base + {} victim hits, {} misses)",
        result.hit_rate() * 100.0,
        s.base_hits,
        s.victim_hits,
        s.misses
    );
    println!(
        "admissions          : {} admitted, {} bypassed, {} evictions",
        s.admitted, s.bypassed, s.evictions
    );
    println!(
        "victim area         : {} parked, {} no-room, {} displaced, {} slack drops",
        s.victim_inserts, s.victim_insert_failures, s.victim_evictions, s.victim_overflow_drops
    );
    println!(
        "occupancy           : {} physical / {} logical bytes, {} + {} entries \
         (bytes-effective {:.2}x)",
        result.occupancy.resident_bytes,
        result.occupancy.logical_bytes,
        result.occupancy.entries,
        result.occupancy.victim_entries,
        result.bytes_effective()
    );
    println!(
        "compression         : {:.0}% of uncompressed (mean over admissions)",
        s.compression_ratio() * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn print_kv_header() {
    println!(
        "\n{:14} {:10} {:>9} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "org", "dist", "hit rate", "base hits", "vict hits", "misses", "byte eff", "ratio"
    );
}

fn print_kv_row(r: &KvRunResult) {
    println!(
        "{:14} {:10} {:>8.2}% {:>10} {:>10} {:>10} {:>7.2}x {:>7.0}%",
        r.org.name(),
        r.profile,
        r.hit_rate() * 100.0,
        r.stats.base_hits,
        r.stats.victim_hits,
        r.stats.misses,
        r.bytes_effective(),
        r.stats.compression_ratio() * 100.0
    );
}

fn run_kv_sweep(args: &KvArgs) -> ExitCode {
    let workers = args
        .jobs
        .unwrap_or_else(base_victim::runner::pool::default_workers);
    let mut jobs = Vec::new();
    for name in RequestProfile::NAMES {
        for org in KvOrgKind::ALL {
            let mut cfg = KvConfig::new(org, RequestProfile::by_name(name).expect("preset name"));
            cfg.budget = args.budget_kib * 1024;
            cfg.requests = args.requests;
            cfg.warmup = args.warmup;
            cfg.seed = args.seed;
            jobs.push(cfg);
        }
    }
    println!(
        "kv sweep: {} jobs ({} dists x {} orgs) on {} worker(s), budget {} KiB, \
         warmup {} + measure {} requests",
        jobs.len(),
        RequestProfile::NAMES.len(),
        KvOrgKind::ALL.len(),
        workers,
        args.budget_kib,
        args.warmup,
        args.requests
    );
    let t0 = std::time::Instant::now();
    let results =
        base_victim::runner::pool::parallel_map(jobs, workers, |_w, _i, cfg| kv_replay(&cfg));
    println!("kv sweep: done in {:.1}s", t0.elapsed().as_secs_f64());
    print_kv_header();
    for r in &results {
        print_kv_row(r);
    }
    // The guarantee, checked across the whole sweep: base-victim never
    // hits less than uncompressed on the same traffic.
    for chunk in results.chunks(KvOrgKind::ALL.len()) {
        let unc = chunk.iter().find(|r| r.org == KvOrgKind::Uncompressed);
        let bv = chunk.iter().find(|r| r.org == KvOrgKind::BaseVictim);
        if let (Some(unc), Some(bv)) = (unc, bv) {
            if bv.stats.hits() < unc.stats.hits() {
                eprintln!(
                    "kv sweep: FAILED — base-victim hits {} below uncompressed {} on {}",
                    bv.stats.hits(),
                    unc.stats.hits(),
                    unc.profile
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!("kv sweep: base-victim >= uncompressed hits on every dist");
    ExitCode::SUCCESS
}

fn run_kv_lockstep(args: &KvArgs) -> ExitCode {
    let profile = RequestProfile::by_name(&args.dist).expect("dist validated at parse time");
    let cfg = LockstepConfig {
        profile,
        seed: args.seed,
        requests: args.requests,
        budget: args.budget_kib * 1024,
        inject_at: args.inject,
    };
    println!(
        "kv lockstep: dist {}, budget {} KiB, {} requests, seed {}{}",
        args.dist,
        args.budget_kib,
        args.requests,
        args.seed,
        match args.inject {
            Some(op) => format!(", injecting a baseline perturbation at request {op}"),
            None => String::new(),
        }
    );
    let report = base_victim::kvcache::run_lockstep(&cfg);
    println!(
        "kv lockstep: {} requests run; base-victim {} hits ({} from the victim area) \
         vs uncompressed {}",
        report.ops, report.bv_hits, report.victim_hits, report.unc_hits
    );
    match (&report.divergence, args.inject.is_some()) {
        (Some(d), injected) => {
            println!(
                "divergence at request {} ({:?} client {} key {}): {}",
                d.op_index, d.request.op, d.request.client, d.request.key, d.detail
            );
            if injected {
                println!("kv lockstep: injected fault detected, as required");
                ExitCode::SUCCESS
            } else {
                eprintln!("kv lockstep: FAILED — baseline diverged from the uncompressed tier");
                ExitCode::FAILURE
            }
        }
        (None, true) => {
            eprintln!("kv lockstep: FAILED — injected fault was not detected");
            ExitCode::FAILURE
        }
        (None, false) => {
            println!(
                "kv lockstep: PASSED — baseline mirrored the uncompressed tier after every request"
            );
            ExitCode::SUCCESS
        }
    }
}

/// A current-over-baseline throughput ratio, rendered as `1.23x`, or `-`
/// when the row has no baseline counterpart.
fn vs_baseline(ratio: Option<f64>) -> String {
    match ratio {
        Some(r) => format!("{r:.2}x"),
        None => "-".to_string(),
    }
}

fn run_bench(args: &BenchArgs) -> Result<ExitCode, String> {
    let cfg = if args.quick {
        perf::BenchConfig::quick()
    } else {
        perf::BenchConfig::full()
    };
    // Load the baseline up front so every row prints with its
    // speedup-vs-baseline column, not just a raw rate.
    let baseline = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let report = perf::BenchReport::from_json(&text)
                .map_err(|e| format!("bad baseline {}: {e}", path.display()))?;
            Some(report)
        }
        None => None,
    };
    println!(
        "bench: {} suite ({} corpus lines x {} sample(s), {} sim insts x {} sample(s))",
        if args.quick { "quick" } else { "full" },
        cfg.corpus_lines,
        cfg.kernel_samples,
        cfg.sim_insts,
        cfg.sim_samples
    );
    let t0 = std::time::Instant::now();
    let report = perf::run(&cfg);
    println!("bench: done in {:.1}s\n", t0.elapsed().as_secs_f64());

    println!(
        "{:12} {:10} {:>14} {:>12}",
        "kernel", "impl", "rate/s", "vs-baseline"
    );
    for k in &report.kernels {
        let ratio = baseline
            .as_ref()
            .and_then(|b| b.kernel(&k.kernel, &k.implementation))
            .map(|b| k.lines_per_sec / b.lines_per_sec.max(f64::MIN_POSITIVE));
        println!(
            "{:12} {:10} {:>14.3e} {:>12}",
            k.kernel,
            k.implementation,
            k.lines_per_sec,
            vs_baseline(ratio)
        );
    }
    for (kernel, speedup) in report.kernel_speedups() {
        println!("{kernel:12} speedup    {speedup:>13.2}x");
    }
    println!(
        "\n{:24} {:>14} {:>12}",
        "end-to-end llc", "insts/s", "vs-baseline"
    );
    for e in &report.end_to_end {
        let ratio = baseline
            .as_ref()
            .and_then(|b| b.end_to_end.iter().find(|be| be.llc == e.llc))
            .map(|b| e.insts_per_sec / b.insts_per_sec.max(f64::MIN_POSITIVE));
        println!(
            "{:24} {:>14.3e} {:>12}",
            e.llc,
            e.insts_per_sec,
            vs_baseline(ratio)
        );
    }
    if let Some(pct) = report.telemetry_overhead_pct() {
        println!("{:24} {:>13.2}%", "telemetry overhead", pct);
    }
    if let Some(pct) = report.events_disabled_overhead_pct() {
        println!("{:24} {:>13.2}%", "events-off overhead", pct);
    }
    if let Some(pct) = report.serve_metrics_overhead_pct() {
        println!("{:24} {:>13.2}%", "serve-metrics overhead", pct);
    }

    let mut text = report.to_json();
    text.push('\n');
    write_file(&args.out, &text, "")?;
    println!("\nbench: report written to {}", args.out.display());

    if let Some(baseline) = &baseline {
        let baseline_path = args.baseline.as_ref().expect("baseline parsed from path");
        let regressions = perf::compare(&report, baseline, f64::from(args.max_regress));
        if regressions.is_empty() {
            println!(
                "bench: no regression beyond {}% vs {}",
                args.max_regress,
                baseline_path.display()
            );
        } else {
            for r in &regressions {
                eprintln!("regression: {r}");
            }
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Op-count bound a minimized `--inject` reproducer must meet: larger
/// means the shrinker regressed.
const FUZZ_INJECT_BOUND: u64 = 64;

fn run_fuzz(args: &FuzzArgs) -> Result<ExitCode, String> {
    if let Some(path) = &args.replay {
        return run_fuzz_replay(args, path);
    }
    if args.inject {
        return Ok(run_fuzz_inject(args));
    }
    run_fuzz_campaign(args)
}

/// Writes the reproducer to `--out` when given, else prints its JSON so
/// it can be piped straight into a `tests/corpus/` file.
fn emit_reproducer(out: Option<&Path>, case: &bvfuzz::FuzzCase) -> Result<(), String> {
    match out {
        Some(path) => {
            bvfuzz::save(path, case)?;
            println!("reproducer          : {}", path.display());
        }
        None => {
            println!("reproducer ({} ops):", case.op_count());
            println!("{}", bvfuzz::to_json(case));
        }
    }
    Ok(())
}

fn run_fuzz_campaign(args: &FuzzArgs) -> Result<ExitCode, String> {
    let cfg = bvfuzz::FuzzConfig {
        cases: args.cases,
        seed: args.seed,
        domain: args.domain,
        shrink: true,
    };
    println!(
        "fuzz | {} case(s), seed {}, domains {}",
        args.cases,
        args.seed,
        args.domain.map_or("llc+kv", bvfuzz::Domain::name)
    );
    let report = bvfuzz::run_fuzz(&cfg, |done, total| {
        if done % 50 == 0 && done < total {
            println!("  checked {done}/{total}");
        }
    });
    for (name, v) in report.counters.iter() {
        println!("{name:<20}: {v}");
    }
    match &report.failure {
        None => {
            println!("all {} case(s) passed", report.cases_run);
            Ok(ExitCode::SUCCESS)
        }
        Some(f) => {
            eprintln!(
                "FAIL case {} (seed {}) | {}: {}",
                f.case_index, f.case_seed, f.failure.property, f.failure.detail
            );
            let minimized = f.shrunk.as_ref().map_or(&f.original, |s| &s.case);
            if let Some(s) = &f.shrunk {
                println!(
                    "shrunk {} -> {} ops ({} candidate(s), {} accepted)",
                    f.original.op_count(),
                    s.case.op_count(),
                    s.attempts,
                    s.accepted
                );
            }
            emit_reproducer(args.out.as_deref(), minimized)?;
            Ok(ExitCode::FAILURE)
        }
    }
}

fn run_fuzz_inject(args: &FuzzArgs) -> ExitCode {
    let cfg = bvfuzz::FuzzConfig {
        cases: args.cases,
        seed: args.seed,
        domain: args.domain,
        shrink: true,
    };
    println!(
        "fuzz inject self-test | seed {}, domains {}",
        args.seed,
        args.domain.map_or("llc+kv", bvfuzz::Domain::name)
    );
    let mut ok = true;
    for r in bvfuzz::run_inject_selftest(&cfg) {
        match (&r.detected_seed, &r.shrunk) {
            (Some(seed), Some(s)) => {
                println!(
                    "{:<4}: fault detected (seed {seed}, {} tried), shrunk {} -> {} ops",
                    r.domain.name(),
                    r.tried,
                    r.original_ops,
                    s.case.op_count()
                );
                // One domain per file: suffix when the other may follow.
                if let Some(out) = &args.out {
                    let path = if args.domain.is_some() {
                        out.clone()
                    } else {
                        out.with_extension(format!("{}.{}", r.domain.name(), bvfuzz::EXTENSION))
                    };
                    if let Err(e) = emit_reproducer(Some(&path), &s.case) {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
            _ => eprintln!(
                "{:<4}: no injected fault surfaced in {} seed(s) — the auditor is blind",
                r.domain.name(),
                r.tried
            ),
        }
        if !r.passed(FUZZ_INJECT_BOUND) {
            ok = false;
        }
    }
    if ok {
        println!("inject self-test passed (reproducers within {FUZZ_INJECT_BOUND} ops)");
        ExitCode::SUCCESS
    } else {
        eprintln!("inject self-test FAILED");
        ExitCode::FAILURE
    }
}

fn run_fuzz_replay(args: &FuzzArgs, path: &Path) -> Result<ExitCode, String> {
    let case = bvfuzz::load(path)?;
    println!(
        "fuzz replay {} | {} case, {} ops{}",
        path.display(),
        case.domain().name(),
        case.op_count(),
        case.inject_at
            .map_or(String::new(), |at| format!(", fault injected at op {at}"))
    );
    match bvfuzz::verdict(&case) {
        Ok(()) => {
            println!(
                "reproducer passes{}",
                if case.inject_at.is_some() {
                    " (injected fault detected)"
                } else {
                    ""
                }
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(f) => {
            eprintln!("FAIL {}: {}", f.property, f.detail);
            if args.shrink && bvfuzz::observe(&case).is_some() {
                let out = bvfuzz::shrink(&case);
                println!(
                    "shrunk {} -> {} ops ({} candidate(s), {} accepted)",
                    case.op_count(),
                    out.case.op_count(),
                    out.attempts,
                    out.accepted
                );
                emit_reproducer(args.out.as_deref(), &out.case)?;
            }
            Ok(ExitCode::FAILURE)
        }
    }
}

/// SIGINT -> a shared flag the sweep runner polls between jobs, so
/// Ctrl-C checkpoints in-flight state instead of killing the process
/// mid-write. The handler only performs an atomic store, which is
/// async-signal-safe.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_sigint(_sig: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the handler (idempotent) and returns the flag it sets.
    pub fn install() -> Arc<AtomicBool> {
        const SIGINT: i32 = 2;
        let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
        // SAFETY: libc `signal` with a handler that only stores to a
        // static atomic — the minimal async-signal-safe use.
        unsafe {
            signal(SIGINT, on_sigint);
        }
        flag
    }
}

/// Non-unix fallback: no handler is installed; the flag never trips and
/// Ctrl-C keeps its default behavior.
#[cfg(not(unix))]
mod sigint {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub fn install() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

fn run_serve(args: &ServeArgs) -> Result<ExitCode, String> {
    let workers = args
        .workers
        .unwrap_or_else(base_victim::runner::pool::default_workers);
    let daemon = Daemon::start(ServeConfig {
        addr: args.addr.clone(),
        workers,
        journal: args.journal.clone(),
        timeout: std::time::Duration::from_secs(args.timeout_secs),
        retries: args.retries,
        port_file: args.port_file.clone(),
        spans: args.spans.clone(),
        metrics: args.metrics,
        metrics_port: args.metrics_port,
    })
    .map_err(|e| format!("cannot start daemon on {}: {e}", args.addr))?;
    println!(
        "serve: listening on {} | {} worker(s), journal {}, job timeout {}s, {} retries",
        daemon.addr(),
        workers,
        args.journal.display(),
        args.timeout_secs,
        args.retries
    );
    if let Some(addr) = daemon.metrics_addr() {
        println!("serve: metrics exposition on http://{addr}/metrics");
    }
    println!(
        "serve: submit with `bvsim submit --addr {0} --traces <a,b,...>`; stop with \
         `bvsim ctl --addr {0} --shutdown`",
        daemon.addr()
    );
    let summary = daemon
        .wait()
        .map_err(|e| format!("span export failed: {e}"))?;
    if let (Some(summary), Some(path)) = (summary, &args.spans) {
        println!("serve: {summary} -> {}", path.display());
    }
    println!("serve: drained and stopped");
    Ok(ExitCode::SUCCESS)
}

/// Prints each streamed result row and optionally appends it to an
/// `--out` file as a bare runs.jsonl-shaped line.
struct RowSink {
    file: Option<std::fs::File>,
    write_err: Option<String>,
    rows: u64,
}

impl RowSink {
    fn open(out: Option<&Path>) -> Result<RowSink, String> {
        let file = match out {
            Some(path) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open {}: {e}", path.display()))?,
            ),
            None => None,
        };
        Ok(RowSink {
            file,
            write_err: None,
            rows: 0,
        })
    }

    fn push(&mut self, row: &ResultRow) {
        self.rows += 1;
        println!(
            "  [{}] {} {} {} | IPC {:.4}, hit {:.1}%, size {:.0}% | {} \
             (worker {}, attempt {})",
            row.seq,
            row.trace,
            row.llc,
            row.policy,
            row.ipc,
            row.llc_hit_rate * 100.0,
            row.comp_ratio * 100.0,
            row.source,
            row.worker,
            row.attempt
        );
        if let Some(file) = &mut self.file {
            let mut line = row.to_jsonl_line();
            line.push('\n');
            // One write_all per row keeps appended lines atomic.
            if let Err(e) = std::io::Write::write_all(file, line.as_bytes()) {
                let _ = self
                    .write_err
                    .get_or_insert_with(|| format!("cannot append result row: {e}"));
            }
        }
    }

    fn finish(self) -> Result<u64, String> {
        match self.write_err {
            Some(e) => Err(e),
            None => Ok(self.rows),
        }
    }
}

fn print_done(done: &DoneSummary) {
    println!(
        "done: ticket {} | {} job(s): {} simulated, {} journaled, {} merged, {} failed{}",
        done.ticket,
        done.jobs,
        done.simulated,
        done.journaled,
        done.merged,
        done.failed,
        if done.canceled { " (canceled)" } else { "" }
    );
}

/// Drains the sink; on success reports the `--out` row count.
fn close_sink(sink: RowSink, out: Option<&Path>) -> Result<(), String> {
    let rows = sink.finish()?;
    if let Some(out) = out {
        println!("{rows} row(s) -> {}", out.display());
    }
    Ok(())
}

fn run_submit(args: &SubmitArgs) -> Result<ExitCode, String> {
    let grid = SweepGrid {
        traces: args.traces.clone(),
        llcs: args.llcs.clone(),
        policies: args.policies.clone(),
        llc_mb: args.llc_mb,
        ways: args.ways,
        warmup: args.warmup,
        insts: args.insts,
    };
    let mut sink = RowSink::open(args.out.as_deref())?;
    let outcome = client::submit(&args.addr, &grid, !args.no_wait, |row| sink.push(row))?;
    println!(
        "submit: ticket {} | {} job(s): {} fresh, {} journaled, {} merged",
        outcome.ticket, outcome.jobs, outcome.fresh, outcome.journaled, outcome.merged
    );
    match &outcome.done {
        Some(done) => print_done(done),
        None => println!(
            "submit: not waiting — stream later with `bvsim watch --addr {} --ticket {}`",
            args.addr, outcome.ticket
        ),
    }
    close_sink(sink, args.out.as_deref())?;
    Ok(match &outcome.done {
        Some(done) if done.failed > 0 || done.canceled => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    })
}

fn run_watch(args: &WatchArgs) -> Result<ExitCode, String> {
    let mut sink = RowSink::open(args.out.as_deref())?;
    let done = client::watch(&args.addr, args.ticket, |row| sink.push(row))?;
    print_done(&done);
    close_sink(sink, args.out.as_deref())?;
    Ok(if done.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_ctl(args: &CtlArgs) -> Result<ExitCode, String> {
    let req = match &args.action {
        CtlAction::Status => Request::Status,
        CtlAction::Cancel(ticket) => Request::Cancel { ticket: *ticket },
        CtlAction::KillWorker(worker) => Request::KillWorker { worker: *worker },
        CtlAction::Shutdown => Request::Shutdown,
    };
    match client::control(&args.addr, &req)? {
        Response::Status(s) => {
            println!(
                "workers             : {} started, {} alive",
                s.workers, s.alive
            );
            println!(
                "jobs                : {} pending, {} running, {} done, {} failed",
                s.pending, s.running, s.done, s.failed
            );
            println!("tickets             : {}", s.tickets);
            println!(
                "recovery            : {} worker crash(es), {} job re-queue(s)",
                s.crashes, s.retries
            );
            println!(
                "job duration        : p50 {} ms, p95 {} ms, p99 {} ms",
                s.p50_ms, s.p95_ms, s.p99_ms
            );
            let per: Vec<String> = s.per_worker_done.iter().map(u64::to_string).collect();
            println!("per-worker done     : [{}]", per.join(", "));
            Ok(ExitCode::SUCCESS)
        }
        Response::Ok { info } => {
            println!("ok: {info}");
            Ok(ExitCode::SUCCESS)
        }
        Response::Error { error } => Err(error),
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

/// The live dashboard: polls the daemon's `metrics` snapshot every
/// interval and redraws the frame in place. `--once` prints a single
/// frame without clearing the screen (for scripts and smoke tests).
fn run_top(args: &TopArgs) -> Result<ExitCode, String> {
    let mut view = TopView::new();
    let interval = std::time::Duration::from_millis(args.interval_ms);
    let mut last = std::time::Instant::now();
    loop {
        let snap = client::metrics(&args.addr)?;
        let elapsed = last.elapsed().as_secs_f64();
        last = std::time::Instant::now();
        let frame = view.frame(&snap, elapsed, &args.addr);
        if args.once {
            print!("{frame}");
            return Ok(ExitCode::SUCCESS);
        }
        // Clear + home, then the frame; the daemon going away ends the
        // loop through the connect error above.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(interval);
    }
}
