//! The repository's benchmark: three workloads over the simulator stack,
//! end-to-end metrics untraced (`--trace 0`) and a per-layer cost table
//! from a separate traced run (`--trace 1`). See `bvbench/README.md`.
//!
//! ```text
//! bvbench --workload <sweep-reuse|serve-mix|kv-mix>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--setup-only 1` (used by the benchmark itself, see [`probe_setups`])
//! sets the workload up, prints `setup_s <seconds>` and exits.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod kv;
mod layers;
mod serve_mix;
mod sweep;
mod util;

use layers::{LayerTotals, Span};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use util::{json_str, num, ratio, Metrics};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep-reuse", "serve-mix", "kv-mix"];

/// End-to-end metrics (`--trace 0`), every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// Per-layer metrics (`--trace 1`), every workload; a layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.events", "count"),
    ("trace.ns_per_event", "ns"),
    ("trace.share", "ratio"),
    ("sim.core_model.ns_per_event", "ns"),
    ("sim.core_model.share", "ratio"),
    ("sim.hierarchy.accesses", "count"),
    ("sim.hierarchy.self_ns_per_access", "ns"),
    ("sim.hierarchy.share", "ratio"),
    ("sim.hierarchy.l1_hit_ratio", "ratio"),
    ("sim.hierarchy.l2_hit_ratio", "ratio"),
    ("core.read.calls", "count"),
    ("core.read.ns_per_call", "ns"),
    ("core.writeback.calls", "count"),
    ("core.writeback.ns_per_call", "ns"),
    ("core.fill.calls", "count"),
    ("core.fill.ns_per_call", "ns"),
    ("core.prefetch_fill.calls", "count"),
    ("core.prefetch_fill.ns_per_call", "ns"),
    ("core.share", "ratio"),
    ("core.read_hit_ratio", "ratio"),
    ("core.victim_hit_ratio", "ratio"),
    ("core.prefetch_install_ratio", "ratio"),
    ("core.memory_writes", "count"),
    ("core.uncompressed.insts_per_s", "1/s"),
    ("core.base-victim.insts_per_s", "1/s"),
    ("core.two-tag.insts_per_s", "1/s"),
    ("core.vsc.insts_per_s", "1/s"),
    ("core.dcc.insts_per_s", "1/s"),
    ("compress.calls", "count"),
    ("compress.ns_per_call", "ns"),
    ("compress.share", "ratio"),
    ("compress.calls_per_insert", "ratio"),
    ("compress.mean_segments", "segments"),
    ("sim.dram.reads", "count"),
    ("sim.dram.writes", "count"),
    ("sim.dram.ns_per_access", "ns"),
    ("sim.dram.share", "ratio"),
    ("sim.dram.row_hit_ratio", "ratio"),
    ("runner.jobs", "count"),
    ("runner.worker_util", "ratio"),
    ("runner.tail_idle_s", "s"),
    ("serve.submit_ack_ms_p50", "ms"),
    ("serve.first_row_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_tail", "ms"),
    ("serve.sim_ms_p50", "ms"),
    ("serve.journal_ms_p50", "ms"),
    ("serve.journal_ms_tail", "ms"),
    ("serve.worker_util", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.merged_ratio", "ratio"),
    ("serve.journal_hit_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.timeouts", "count"),
    ("serve.crashes", "count"),
    ("serve.status_ms_p50", "ms"),
    ("serve.metrics_ms_p50", "ms"),
    ("serve.control_ms_tail", "ms"),
    ("kvcache.requests", "count"),
    ("kvcache.get_ns_per_op", "ns"),
    ("kvcache.put_ns_per_op", "ns"),
    ("kvcache.stream_ns_per_request", "ns"),
    ("kvcache.compress_ns_per_call", "ns"),
    ("kvcache.compress_calls_per_miss", "ratio"),
    ("kvcache.hit_ratio", "ratio"),
    ("kvcache.victim_hit_ratio", "ratio"),
    ("kvcache.bytes_effective", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.layer_sum_ratio", "ratio"),
    ("bench.fail_ratio", "ratio"),
    ("bench.peak_rss_mb", "MB"),
    ("model.bv_ipc_gain", "ratio"),
    ("model.bv_dram_read_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up, report `setup_s` and exit (a set-up probe).
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--setup-only" => {
                setup_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--setup-only takes 0 or 1".to_string()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// Everything one run accumulates.
pub struct Run {
    pub m: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    fidelity: Vec<String>,
    selftests: Vec<(String, bool)>,
    notes: Vec<String>,
    table: Vec<String>,
    pub spans: Vec<Span>,
    /// Per-run scratch directory (journals), removed at exit.
    pub scratch: PathBuf,
    /// When the benchmark's own start-up (arguments, scratch directory)
    /// was done and the workload's set-up began.
    started: Instant,
    /// Seconds from `started` to the first operation issued.
    setup_s: Option<f64>,
}

impl Run {
    /// Marks the end of set-up: the workload issues its first operation
    /// next.
    pub fn first_op(&mut self) {
        self.setup_s
            .get_or_insert(self.started.elapsed().as_secs_f64());
    }

    /// Counts one operation, failed when `verdict` is an error.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Records a harness-fidelity failure (fails the run).
    pub fn fidelity(&mut self, what: String) {
        self.fidelity.push(what);
    }

    /// Records a self-test: `verdict` is a check's answer on a corrupted
    /// result and must be an error.
    pub fn selftest(&mut self, name: &str, verdict: Result<(), String>) {
        self.selftests.push((name.to_string(), verdict.is_err()));
    }

    /// A line for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Renders the per-layer cost table of the sim layers.
    pub fn layer_table(&mut self, t: &LayerTotals, traced_wall_ns: u64) {
        let wall = t.wall_ns as f64;
        self.table.push(format!(
            "layer             self_ms     share   ({} jobs; drive loops {:.1} ms, elapsed {:.1} ms)",
            t.jobs,
            wall / 1e6,
            traced_wall_ns as f64 / 1e6
        ));
        let mut sum = 0.0;
        for (name, ns) in t.self_times() {
            sum += ns;
            self.table.push(format!(
                "{name:<16} {:>9.1} {:>8.3}",
                ns / 1e6,
                ratio(ns, wall)
            ));
        }
        let harness = t.harness_ns();
        for (name, ns) in [
            ("sum", sum),
            ("harness", harness),
            ("unaccounted", wall - sum - harness),
        ] {
            self.table.push(format!(
                "{name:<16} {:>9.1} {:>8.3}",
                ns / 1e6,
                ratio(ns, wall)
            ));
        }
    }

    /// Adds rows to the per-layer table.
    pub fn table_line(&mut self, line: String) {
        self.table.push(line);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.fidelity.is_empty() && self.selftests.iter().all(|s| s.1)
    }
}

/// Set-up probes per untraced run. Each is a fresh process that sets
/// the same workload up and exits; `setup_s` is the median over the
/// probes and the run itself, so one process's cold state (page faults,
/// heap layout, file-system latency) does not decide it.
const SETUP_PROBES: usize = 20;

/// Runs [`SETUP_PROBES`] set-up probes one after another and returns
/// their `setup_s`.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--setup-only", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match (out.status.success(), value) {
            (true, Some(v)) => times.push(v),
            _ => return Err(format!("probe exited with {}", out.status)),
        }
    }
    Ok(times)
}

/// Where results, span files and scratch state go: the build directory
/// (`$CARGO_TARGET_DIR`, else `target`), which is never committed.
fn out_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("bvbench")
}

fn main() {
    let t_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bvbench: {e}");
            std::process::exit(2);
        }
    };
    let out = out_dir();
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("bvbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let mut run = Run {
        m: Metrics::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        fidelity: Vec::new(),
        selftests: Vec::new(),
        notes: Vec::new(),
        table: Vec::new(),
        spans: Vec::new(),
        scratch: scratch.clone(),
        started: Instant::now(),
        setup_s: None,
    };
    match args.workload.as_str() {
        "sweep-reuse" => sweep::run(&args, &mut run),
        "serve-mix" => serve_mix::run(&args, &mut run),
        "kv-mix" => kv::run(&args, &mut run),
        _ => unreachable!("workload validated by parse_args"),
    }
    if args.setup_only {
        let _ = std::fs::remove_dir_all(&scratch);
        println!("setup_s {}", run.setup_s.unwrap_or(0.0));
        return;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if !args.trace {
        // Let the file system settle the run's journal writes first, so
        // the probes' journal creation does not queue behind them.
        let _ = std::fs::File::open(&out).and_then(|d| d.sync_all());
        match probe_setups(&args) {
            Ok(mut times) => {
                times.extend(run.setup_s);
                run.m.set("setup_s", util::median(&times), "s");
                run.note(format!(
                    "setup_s is the median of {} processes: {}",
                    times.len(),
                    times
                        .iter()
                        .map(|t| format!("{:.0} us", t * 1e6))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            Err(e) => run.fidelity(format!("set-up probe: {e}")),
        }
    }
    run.m.set("bench.peak_rss_mb", util::peak_rss_mb(), "MB");
    run.m.set(
        "bench.fail_ratio",
        ratio(run.failed as f64, run.attempted as f64),
        "ratio",
    );

    let selected = run
        .m
        .select(if args.trace { PER_LAYER } else { END_TO_END });
    let correct = run.correct() && run.attempted > 0;
    report(&args, &run, &selected, correct, t_start, &out);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        selected.to_json()
    );
}

/// Prints the human-readable report and appends the fingerprinted
/// record to `<out>/runs.jsonl` (and the spans of a traced run).
fn report(
    args: &Args,
    run: &Run,
    selected: &Metrics,
    correct: bool,
    t_start: Instant,
    out: &std::path::Path,
) {
    let fingerprint = util::host_fingerprint();
    println!(
        "bvbench {} seed={} seconds={} trace={} ({:.1} s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        t_start.elapsed().as_secs_f64()
    );
    for (k, v) in &fingerprint {
        println!("  host.{k}: {v}");
    }
    for n in &run.notes {
        println!("  {n}");
    }
    for line in &run.table {
        println!("  {line}");
    }
    for (name, value, unit) in selected.rows() {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    for (name, caught) in &run.selftests {
        println!(
            "  selftest {name}: corrupted result {}",
            if *caught { "caught" } else { "NOT caught" }
        );
    }
    for f in run.failures.iter().take(10) {
        println!("  FAILED: {f}");
    }
    for f in &run.fidelity {
        println!("  FIDELITY: {f}");
    }
    println!(
        "  correct={correct} attempted={} failed={}",
        run.attempted, run.failed
    );

    let fp: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let all: Vec<String> = run
        .m
        .rows()
        .iter()
        .map(|(n, v, _)| format!("{}: {}", json_str(n), num(*v)))
        .collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"host\": {{{}}}, \"metrics\": {{{}}}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.attempted,
        run.failed,
        fp.join(", "),
        all.join(", ")
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("runs.jsonl"))
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("bvbench: cannot append to runs.jsonl: {e}");
    }
    if args.trace && !run.spans.is_empty() {
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = layers::write_spans(&path, &run.spans) {
            eprintln!("bvbench: cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names here and in `BENCHMARK.json` agree.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to bvbench/");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap_or("")
                        .to_string()
                })
                .collect()
        };
        let want =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        assert_eq!(names("workloads"), WORKLOADS.map(String::from).to_vec());
    }
}
