//! Argument parsing for the `bvsim` binary, separated from the binary so
//! it can be unit-tested: parsing consumes a plain `&[String]` (no
//! process state) and returns either a [`Command`] or an error message.

use bv_cache::PolicyKind;
use bv_kvcache::KvOrgKind;
use bv_sim::{LlcKind, SimConfig};
use bv_trace::request::RequestProfile;
use std::fmt::Display;
use std::ops::Deref;
use std::path::PathBuf;
use std::str::FromStr;

/// The `bvsim` usage text.
pub const USAGE: &str = "\
bvsim — trace-driven simulation of the Base-Victim compressed LLC

USAGE:
    bvsim --trace <name> [options]
    bvsim --list-traces
    bvsim sweep [--jobs <n>] [--resume] [--journal <dir>] [--telemetry-dir <dir>]
                [--spans <trace.json>]
    bvsim bench [--quick] [--out <file>] [--baseline <file>] [--max-regress <pct>]
    bvsim report <telemetry.jsonl>
    bvsim trace --trace <name> [--out <events.jsonl>] [filters]
    bvsim trace --audit [--ops <n>] [--seed <n>] [--inject <op>]
    bvsim kv [--dist <name>] [--org <name>] [--compare | --sweep | --lockstep]
    bvsim fuzz [--cases <n>] [--seed <n>] [--llc | --kv] [--inject]
    bvsim fuzz --replay <file> [--shrink] [--out <file>]
    bvsim serve [--addr <host:port>] [--workers <n>] [--journal <dir>]
                [--metrics-port <p>] [--no-metrics]
    bvsim submit --traces <a,b,...> [--llcs <a,b,...>] [--policies <a,b,...>]
    bvsim watch --ticket <n> [--addr <host:port>] [--out <file>]
    bvsim ctl [--addr <host:port>] (--status | --cancel <t> | --kill-worker <w>
                                    | --shutdown)
    bvsim top [--addr <host:port>] [--interval-ms <n>] [--once]

OPTIONS:
    --trace <name>      registry trace to run (see --list-traces)
    --list-traces       print the 100-trace registry and exit
    --llc <kind>        uncompressed | two-tag | two-tag-ecm | base-victim
                        | base-victim-ni | base-victim-random-fit | vsc | dcc
                        (default: base-victim; dcc is the decoupled
                        super-block state of the art, vsc the decoupled
                        variable-segment cache)
    --policy <name>     lru | nru | srrip | char | camp | random
                        (default: nru, as in the paper)
    --llc-mb <n>        LLC capacity in MB (default: 2)
    --ways <n>          LLC associativity, 1 to 64, at most 32 for
                        two-tag, two-tag-ecm, vsc and dcc, which keep two
                        tags per way (default: 16); the capacity over
                        ways x 64 B lines must be a power-of-two set
                        count (3 MB needs 24 ways, not 16)
    --warmup <n>        warmup instructions (default: 1000000)
    --insts <n>         measured instructions (default: 1500000)
    --compare           also run the uncompressed baseline and print ratios
    --telemetry <file>  write an epoch-sampled bvsim-telemetry-v1 JSONL
                        time series of the measured phase
    --epoch <insts>     telemetry sampling period in committed
                        instructions (default: 100000)
    --help              this text

SWEEP (runs the full experiment suite's job set through the parallel runner):
    --jobs <n>          worker threads (default: $BV_JOBS, else all cores)
    --resume            satisfy jobs from existing journal checkpoints
    --journal <dir>     checkpoint/journal directory (default: results/journal)
    --telemetry-dir <dir>  write one <hash>.telemetry.jsonl per simulated
                        job; the path is recorded in runs.jsonl
    --epoch <insts>     telemetry sampling period (default: 100000)
    --spans <file>      export per-job wall-clock spans as Chrome
                        trace-event JSON (open in Perfetto / chrome://tracing)
  Budgets come from BV_WARMUP / BV_INSTS as for the experiment binaries.

TRACE (captures event-level cache activity from one run, or audits fidelity):
    --trace <name>      registry trace to run (required unless --audit)
    --llc, --policy, --llc-mb, --ways, --warmup  as for a plain run
    --budget <n>        measured instructions (default: 1500000)
    --out <file>        write the capture as bvsim-events-v1 JSONL
                        (default: print a per-kind summary only)
    --kinds <list>      comma-separated event kinds to keep (e.g.
                        fill,eviction,victim-hit; default: all)
    --sets <lo:hi>      keep only events in this inclusive set range
    --window <lo:hi>    keep only events in this inclusive seq range
    --capacity <n>      ring-buffer capacity; older events drop first
                        (default: 65536)
    --heatmap           print a per-set event-density sparkline
    --audit             run the baseline-divergence auditor instead: a
                        base-victim LLC and an uncompressed LLC run the
                        same ops in lockstep on a small 64 KiB cache, and
                        any Baseline-content mismatch is reported with
                        the diverging set's recent events
    --ops <n>           audit operation count (default: 2000)
    --seed <n>          audit op-stream seed (default: 1)
    --context <n>       divergence context events to show (default: 8)
    --inject <op>       inject a baseline-policy perturbation at this op
                        (self-test: the auditor must then report a
                        divergence, and exits nonzero if it does not)

REPORT (renders a telemetry file: per-epoch TSV plus sparkline summaries):
    bvsim report results/telemetry/0123456789abcdef.telemetry.jsonl

KV (replays server-style request traffic against the compressed kv tier):
    --dist <name>       request profile: web | analytics | social
                        (default: web)
    --org <name>        tier organization: uncompressed | compressed
                        | base-victim (default: base-victim)
    --budget-kib <n>    tier byte budget in KiB (default: 1024)
    --requests <n>      measured requests (default: 150000)
    --warmup <n>        warmup requests (default: 50000)
    --seed <n>          request-stream seed (default: 42)
    --compare           run all three organizations and print a table
    --sweep             run every organization x profile through the
                        parallel runner pool
    --jobs <n>          sweep worker threads (default: all cores)
    --telemetry <file>  write an epoch-sampled bvsim-telemetry-v1 JSONL
                        (epochs are counted in requests)
    --epoch <requests>  telemetry sampling period (default: 10000)
    --events <file>     capture per-decision events as bvsim-events-v1
                        JSONL (sets are 1024 key buckets, sizes in
                        64-byte lines)
    --capacity <n>      event ring capacity (default: 65536)
    --lockstep          run the baseline-mirror auditor: a base-victim
                        tier and an uncompressed tier replay the same
                        stream and the recency state is compared after
                        every request; exits nonzero on divergence
    --inject <op>       perturb the baseline at this request (lockstep
                        self-test: the auditor must report divergence)

FUZZ (hunts for hit-rate-guarantee violations on adversarial random workloads):
    --cases <n>         workloads to generate and check (default: 100)
    --seed <n>          campaign master seed (default: 1)
    --llc               only LLC cases: the baseline-divergence auditor
                        plus stats identity across every organization
    --kv                only kv cases: the lockstep auditor plus budget
                        and determinism across the three organizations
    --inject            self-test: arm a synthetic fault per domain and
                        require the auditors to detect it and the
                        shrinker to minimize it; exits nonzero otherwise
    --replay <file>     replay one committed .bvfuzz.json reproducer
                        instead of a campaign (injected reproducers pass
                        when the fault is detected)
    --shrink            with --replay: minimize a failing reproducer
    --out <file>        write the failing (or minimized) case as a
                        .bvfuzz.json reproducer (default: print it)

SERVE (runs the multi-tenant sweep-serving daemon over bvsim-serve-v1):
    --addr <host:port>  listen address; port 0 picks an ephemeral port
                        (default: 127.0.0.1:7070)
    --workers <n>       simulation worker threads (default: all cores)
    --journal <dir>     crash-recovery journal; restarts re-simulate
                        nothing already journaled (default: results/journal)
    --timeout-secs <n>  per-job wall-clock timeout before re-queue
                        (default: 300)
    --retries <n>       per-job retry budget after crash/timeout (default: 3)
    --port-file <file>  atomically write the bound address here once
                        listening (for scripts using port 0); with
                        --metrics-port the exposition address lands in a
                        sibling <file>.metrics
    --spans <file>      export per-worker job spans as Chrome trace-event
                        JSON on shutdown, plus a utilization summary
    --metrics-port <p>  also serve Prometheus text exposition over plain
                        HTTP (`GET /metrics`) on this port; 0 picks an
                        ephemeral port
    --no-metrics        disable the metrics registry entirely: every
                        record call becomes a no-op and snapshots are
                        empty

SUBMIT (plans a sweep grid and submits it to a running daemon):
    --addr <host:port>  daemon address (default: 127.0.0.1:7070)
    --traces <a,b,...>  comma-separated registry trace names (required)
    --llcs <a,b,...>    LLC kinds to cross (default: base-victim)
    --policies <a,...>  replacement policies to cross (default: nru)
    --llc-mb, --ways, --warmup, --insts  as for a plain run
    --out <file>        append streamed result rows as runs.jsonl lines
    --no-wait           return the ticket immediately instead of
                        streaming results to completion

WATCH (attaches to an existing ticket and streams its results):
    --ticket <n>        ticket number from submit (required)
    --addr <host:port>  daemon address (default: 127.0.0.1:7070)
    --out <file>        append streamed rows as runs.jsonl lines

CTL (single-shot daemon control; exactly one action):
    --status            print worker/queue/ticket counters plus
                        p50/p95/p99 job-duration percentiles
    --cancel <t>        cancel ticket <t>; pending jobs are dropped
    --kill-worker <w>   arm worker <w> to crash after its next claim
                        (crash-recovery drills)
    --shutdown          drain all in-flight work, then exit

TOP (live daemon dashboard, refreshed from the metrics snapshot):
    --addr <host:port>  daemon address (default: 127.0.0.1:7070)
    --interval-ms <n>   refresh period in milliseconds (default: 1000)
    --once              render a single frame and exit (no screen
                        clearing; for scripts and smoke tests)

BENCH (times the compression kernels and end-to-end simulation, writes BENCH.json):
    --quick             smaller corpus and budgets (the CI gate sizing)
    --out <file>        report destination (default: BENCH.json)
    --baseline <file>   compare against a committed report; exit nonzero on
                        regression
    --max-regress <pct> allowed throughput drop vs the baseline, percent
                        (default: 20)
";

/// A parsed `bvsim` invocation.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// `--help`: print [`USAGE`] and exit successfully.
    Help,
    /// `--list-traces`: print the trace registry.
    ListTraces,
    /// Single-trace simulation (the default command).
    Run(RunArgs),
    /// `sweep`: run the experiment suite's jobs through the runner.
    Sweep(SweepArgs),
    /// `bench`: run the perf suite and write/compare `BENCH.json`.
    Bench(BenchArgs),
    /// `report`: render a telemetry JSONL file for human reading.
    Report(PathBuf),
    /// `trace`: capture event-level cache activity, or run the
    /// baseline-divergence auditor (`--audit`).
    Trace(TraceArgs),
    /// `kv`: replay server-style request traffic against the
    /// software-managed compressed kv tier.
    Kv(KvArgs),
    /// `fuzz`: hunt for hit-rate-guarantee violations on adversarial
    /// random workloads, with shrinking and reproducer replay.
    Fuzz(FuzzArgs),
    /// `serve`: run the multi-tenant sweep-serving daemon.
    Serve(ServeArgs),
    /// `submit`: submit a sweep grid to a running daemon.
    Submit(SubmitArgs),
    /// `watch`: attach to a daemon ticket and stream its results.
    Watch(WatchArgs),
    /// `ctl`: one-shot daemon control (status/cancel/kill-worker/shutdown).
    Ctl(CtlArgs),
    /// `top`: live refreshing daemon dashboard.
    Top(TopArgs),
}

/// The `--llc` values [`parse_llc`] accepts, for error messages.
pub const LLC_KINDS: &str = LlcKind::NAMES;

/// The `--policy` values [`parse_policy`] accepts, for error messages.
pub const POLICY_NAMES: &str = PolicyKind::NAMES;

/// The kv `--org` values [`parse_kv_org`] accepts, for error messages.
pub const KV_ORGS: &str = "uncompressed, compressed, base-victim";

/// The kv `--dist` values `kv` accepts, for error messages.
pub const KV_DISTS: &str = "web, analytics, social";

/// The LLC flags a plain run and `trace` share: organization,
/// replacement policy, geometry and warmup. [`RunArgs`] and
/// [`TraceArgs`] deref to it, so these read as their own fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LlcArgs {
    /// LLC organization.
    pub llc: LlcKind,
    /// Baseline replacement policy.
    pub policy: PolicyKind,
    /// LLC capacity in megabytes.
    pub llc_mb: usize,
    /// LLC associativity.
    pub ways: usize,
    /// Warmup instructions.
    pub warmup: u64,
}

impl Default for LlcArgs {
    fn default() -> LlcArgs {
        LlcArgs {
            llc: LlcKind::BaseVictim,
            policy: PolicyKind::Nru,
            llc_mb: 2,
            ways: 16,
            warmup: 1_000_000,
        }
    }
}

impl LlcArgs {
    /// The single-core configuration these flags select.
    ///
    /// # Errors
    ///
    /// Returns the `bad LLC geometry` error [`parse`] reports for an
    /// `--llc-mb`/`--ways` pair this `--llc` cannot have.
    pub fn sim_config(&self) -> Result<SimConfig, String> {
        Ok(llc_config(self.llc, self.llc_mb as u64, self.ways as u64)?.with_policy(self.policy))
    }

    /// The shared LLC flag table: parses `f` when it holds one of these
    /// flags.
    fn flag(&mut self, f: &mut Flags) -> Result<bool, Stop> {
        match f.flag {
            "--llc" => self.llc = lookup(&f.value()?, parse_llc, "LLC kind", LLC_KINDS)?,
            "--policy" => self.policy = lookup(&f.value()?, parse_policy, "policy", POLICY_NAMES)?,
            "--llc-mb" => self.llc_mb = f.num()?,
            "--ways" => self.ways = f.num()?,
            "--warmup" => self.warmup = f.num()?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Arguments for a single-trace simulation.
#[derive(Debug, PartialEq, Eq)]
pub struct RunArgs {
    /// Registry trace name.
    pub trace: String,
    /// LLC organization, policy, geometry and warmup.
    pub cache: LlcArgs,
    /// Measured instructions.
    pub insts: u64,
    /// Also run the uncompressed baseline and print ratios.
    pub compare: bool,
    /// Write an epoch-sampled telemetry JSONL file here, if set.
    pub telemetry: Option<PathBuf>,
    /// Telemetry sampling period in committed instructions.
    pub epoch: u64,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            trace: String::new(),
            cache: LlcArgs::default(),
            insts: 1_500_000,
            compare: false,
            telemetry: None,
            epoch: bv_sim::DEFAULT_EPOCH_INSTS,
        }
    }
}

impl Deref for RunArgs {
    type Target = LlcArgs;

    fn deref(&self) -> &LlcArgs {
        &self.cache
    }
}

/// Arguments for the `sweep` subcommand.
#[derive(Debug, PartialEq, Eq)]
pub struct SweepArgs {
    /// Worker threads; `None` defers to `BV_JOBS` / the core count.
    pub jobs: Option<usize>,
    /// Satisfy jobs from existing checkpoints instead of re-simulating.
    pub resume: bool,
    /// Checkpoint/journal directory.
    pub journal: PathBuf,
    /// Write one telemetry file per simulated job here, if set.
    pub telemetry_dir: Option<PathBuf>,
    /// Telemetry sampling period in committed instructions.
    pub epoch: u64,
    /// Export per-job wall-clock spans as Chrome trace-event JSON here,
    /// if set.
    pub spans: Option<PathBuf>,
}

impl Default for SweepArgs {
    fn default() -> SweepArgs {
        SweepArgs {
            jobs: None,
            resume: false,
            journal: PathBuf::from("results/journal"),
            telemetry_dir: None,
            epoch: bv_sim::DEFAULT_EPOCH_INSTS,
            spans: None,
        }
    }
}

/// Arguments for the `trace` subcommand.
#[derive(Debug, PartialEq, Eq)]
pub struct TraceArgs {
    /// Registry trace name (empty in `--audit` mode).
    pub trace: String,
    /// LLC organization, policy, geometry and warmup (events are not
    /// captured during warmup).
    pub cache: LlcArgs,
    /// Measured (captured) instructions.
    pub budget: u64,
    /// Write the capture as `bvsim-events-v1` JSONL here, if set.
    pub out: Option<PathBuf>,
    /// Comma-separated event-kind filter, validated at parse time.
    pub kinds: Option<String>,
    /// Inclusive set-index filter range.
    pub sets: Option<(u32, u32)>,
    /// Inclusive sequence-number filter window.
    pub window: Option<(u64, u64)>,
    /// Ring-buffer capacity: the capture keeps the last N matching
    /// events.
    pub capacity: usize,
    /// Print a per-set event-density sparkline.
    pub heatmap: bool,
    /// Run the baseline-divergence auditor instead of a capture.
    pub audit: bool,
    /// Auditor operation count.
    pub ops: usize,
    /// Auditor op-stream seed.
    pub seed: u64,
    /// Divergence context events to report.
    pub context: usize,
    /// Inject a baseline-policy perturbation at this op (auditor
    /// self-test).
    pub inject: Option<usize>,
}

impl Default for TraceArgs {
    fn default() -> TraceArgs {
        TraceArgs {
            trace: String::new(),
            cache: LlcArgs::default(),
            budget: 1_500_000,
            out: None,
            kinds: None,
            sets: None,
            window: None,
            capacity: 65_536,
            heatmap: false,
            audit: false,
            ops: 2_000,
            seed: 1,
            context: 8,
            inject: None,
        }
    }
}

impl Deref for TraceArgs {
    type Target = LlcArgs;

    fn deref(&self) -> &LlcArgs {
        &self.cache
    }
}

/// Arguments for the `kv` subcommand.
#[derive(Debug, PartialEq, Eq)]
pub struct KvArgs {
    /// Tier organization.
    pub org: KvOrgKind,
    /// Request-profile name (validated at parse time; resolved by the
    /// binary).
    pub dist: String,
    /// Tier byte budget in KiB.
    pub budget_kib: u64,
    /// Measured requests.
    pub requests: u64,
    /// Warmup requests.
    pub warmup: u64,
    /// Request-stream seed.
    pub seed: u64,
    /// Run all three organizations and print a comparison table.
    pub compare: bool,
    /// Run every organization x profile through the runner pool.
    pub sweep: bool,
    /// Sweep worker threads; `None` uses every core.
    pub jobs: Option<usize>,
    /// Write an epoch-sampled telemetry JSONL file here, if set.
    pub telemetry: Option<PathBuf>,
    /// Telemetry sampling period in requests.
    pub epoch: u64,
    /// Write a per-decision event capture here, if set.
    pub events: Option<PathBuf>,
    /// Event ring capacity.
    pub capacity: usize,
    /// Run the baseline-mirror auditor instead of a replay.
    pub lockstep: bool,
    /// Perturb the baseline at this request (auditor self-test).
    pub inject: Option<u64>,
}

impl Default for KvArgs {
    fn default() -> KvArgs {
        KvArgs {
            org: KvOrgKind::BaseVictim,
            dist: "web".to_string(),
            budget_kib: 1024,
            requests: 150_000,
            warmup: 50_000,
            seed: 42,
            compare: false,
            sweep: false,
            jobs: None,
            telemetry: None,
            epoch: bv_kvcache::DEFAULT_EPOCH_REQUESTS,
            events: None,
            capacity: 65_536,
            lockstep: false,
            inject: None,
        }
    }
}

/// Arguments for the `fuzz` subcommand.
#[derive(Debug, PartialEq, Eq)]
pub struct FuzzArgs {
    /// Workloads to generate and check.
    pub cases: u64,
    /// Campaign master seed.
    pub seed: u64,
    /// Restrict to one property domain (`--llc` / `--kv`).
    pub domain: Option<bv_fuzz::Domain>,
    /// Run the per-domain injection self-test instead of a campaign.
    pub inject: bool,
    /// Replay this reproducer file instead of running a campaign.
    pub replay: Option<PathBuf>,
    /// With `--replay`: minimize a failing reproducer.
    pub shrink: bool,
    /// Write the failing (or minimized) case here instead of printing it.
    pub out: Option<PathBuf>,
}

impl Default for FuzzArgs {
    fn default() -> FuzzArgs {
        FuzzArgs {
            cases: 100,
            seed: 1,
            domain: None,
            inject: false,
            replay: None,
            shrink: false,
            out: None,
        }
    }
}

/// Arguments for the `bench` subcommand.
#[derive(Debug, PartialEq, Eq)]
pub struct BenchArgs {
    /// Use the smaller quick sizing (the CI gate) instead of the full
    /// suite.
    pub quick: bool,
    /// Where the report is written.
    pub out: PathBuf,
    /// Baseline report to compare against, if any.
    pub baseline: Option<PathBuf>,
    /// Allowed throughput drop vs the baseline, in percent.
    pub max_regress: u32,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs {
            quick: false,
            out: PathBuf::from("BENCH.json"),
            baseline: None,
            max_regress: 20,
        }
    }
}

/// The default daemon address for `serve` / `submit` / `watch` / `ctl`.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7070";

/// Arguments for the `serve` subcommand (the sweep daemon).
#[derive(Debug, PartialEq, Eq)]
pub struct ServeArgs {
    /// Bind address (`:0` selects an ephemeral port).
    pub addr: String,
    /// Worker threads; `None` defers to `BV_JOBS` / the core count.
    pub workers: Option<usize>,
    /// Checkpoint/journal directory (shared with `sweep`).
    pub journal: PathBuf,
    /// Per-job hang timeout in seconds.
    pub timeout_secs: u64,
    /// Re-queues allowed per job after its first attempt.
    pub retries: u32,
    /// Write the actual bound address here once listening.
    pub port_file: Option<PathBuf>,
    /// Export worker spans as Chrome trace-event JSON on shutdown.
    pub spans: Option<PathBuf>,
    /// Record live metrics (`--no-metrics` clears it).
    pub metrics: bool,
    /// Serve HTTP `GET /metrics` on this port (0 = ephemeral).
    pub metrics_port: Option<u16>,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        ServeArgs {
            addr: DEFAULT_SERVE_ADDR.to_string(),
            workers: None,
            journal: PathBuf::from("results/journal"),
            timeout_secs: 300,
            retries: 3,
            port_file: None,
            spans: None,
            metrics: true,
            metrics_port: None,
        }
    }
}

/// Arguments for the `submit` subcommand (client of a running daemon).
#[derive(Debug, PartialEq, Eq)]
pub struct SubmitArgs {
    /// Daemon address.
    pub addr: String,
    /// Trace names (comma-separated on the command line).
    pub traces: Vec<String>,
    /// LLC organization names.
    pub llcs: Vec<String>,
    /// Replacement policy names.
    pub policies: Vec<String>,
    /// LLC capacity in megabytes.
    pub llc_mb: u64,
    /// LLC associativity.
    pub ways: u64,
    /// Warmup instructions per job.
    pub warmup: u64,
    /// Measured instructions per job.
    pub insts: u64,
    /// Append received result lines here (runs.jsonl-shaped).
    pub out: Option<PathBuf>,
    /// Return after the ticket ack instead of streaming to completion.
    pub no_wait: bool,
}

impl Default for SubmitArgs {
    fn default() -> SubmitArgs {
        SubmitArgs {
            addr: DEFAULT_SERVE_ADDR.to_string(),
            traces: Vec::new(),
            llcs: vec!["base-victim".to_string()],
            policies: vec!["nru".to_string()],
            llc_mb: 2,
            ways: 16,
            warmup: 1_000_000,
            insts: 1_500_000,
            out: None,
            no_wait: false,
        }
    }
}

/// Arguments for the `watch` subcommand.
#[derive(Debug, PartialEq, Eq)]
pub struct WatchArgs {
    /// Daemon address.
    pub addr: String,
    /// The ticket to stream.
    pub ticket: u64,
    /// Append received result lines here.
    pub out: Option<PathBuf>,
}

/// What a `ctl` invocation asks the daemon to do.
#[derive(Debug, PartialEq, Eq)]
pub enum CtlAction {
    /// Print queue/worker counters.
    Status,
    /// Cancel a ticket.
    Cancel(u64),
    /// Arm a worker to die on its next claim (crash-recovery testing).
    KillWorker(u64),
    /// Drain and stop the daemon.
    Shutdown,
}

/// Arguments for the `ctl` subcommand.
#[derive(Debug, PartialEq, Eq)]
pub struct CtlArgs {
    /// Daemon address.
    pub addr: String,
    /// The control action to perform.
    pub action: CtlAction,
}

/// Arguments for the `top` subcommand (live dashboard).
#[derive(Debug, PartialEq, Eq)]
pub struct TopArgs {
    /// Daemon address.
    pub addr: String,
    /// Refresh period in milliseconds.
    pub interval_ms: u64,
    /// Render one frame and exit instead of refreshing.
    pub once: bool,
}

impl Default for TopArgs {
    fn default() -> TopArgs {
        TopArgs {
            addr: DEFAULT_SERVE_ADDR.to_string(),
            interval_ms: 1_000,
            once: false,
        }
    }
}

/// Parses an LLC organization name.
#[must_use]
pub fn parse_llc(s: &str) -> Option<LlcKind> {
    LlcKind::from_name(s)
}

/// Parses a kv-tier organization name.
#[must_use]
pub fn parse_kv_org(s: &str) -> Option<KvOrgKind> {
    KvOrgKind::from_name(s)
}

/// Parses a replacement-policy name.
#[must_use]
pub fn parse_policy(s: &str) -> Option<PolicyKind> {
    PolicyKind::from_name(s)
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values,
/// or unparsable numbers; the caller prints it alongside [`USAGE`].
pub fn parse(args: &[String]) -> Result<Command, String> {
    let rest = args.get(1..).unwrap_or_default();
    let parsed = match args.first().map(String::as_str) {
        Some("sweep") => parse_sweep(rest),
        Some("bench") => parse_bench(rest),
        Some("report") => parse_report(rest),
        Some("trace") => parse_trace(rest),
        Some("kv") => parse_kv(rest),
        Some("fuzz") => parse_fuzz(rest),
        Some("serve") => parse_serve(rest),
        Some("submit") => parse_submit(rest),
        Some("watch") => parse_watch(rest),
        Some("ctl") => parse_ctl(rest),
        Some("top") => parse_top(rest),
        _ => parse_run(args),
    };
    match parsed {
        Ok(cmd) => Ok(cmd),
        Err(Stop::Help) => Ok(Command::Help),
        Err(Stop::ListTraces) => Ok(Command::ListTraces),
        Err(Stop::Error(e)) => Err(e),
    }
}

/// Why parsing ended before a subcommand's own result: a flag that
/// answers on its own, or an error.
enum Stop {
    Help,
    ListTraces,
    Error(String),
}

impl From<String> for Stop {
    fn from(e: String) -> Stop {
        Stop::Error(e)
    }
}

impl From<&str> for Stop {
    fn from(e: &str) -> Stop {
        Stop::Error(e.to_string())
    }
}

fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// A subcommand's flag table reads the current flag and takes its value
/// from here.
struct Flags<'a> {
    flag: &'a str,
    rest: std::slice::Iter<'a, String>,
}

impl Flags<'_> {
    /// The argument after the flag.
    fn value(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("missing value for {}", self.flag))
    }

    fn path(&mut self) -> Result<PathBuf, String> {
        self.value().map(PathBuf::from)
    }

    fn num<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value()?
            .parse()
            .map_err(|e| format!("{}: {e}", self.flag))
    }

    fn at_least_1<T: FromStr + From<u8> + PartialOrd>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.num()?;
        if v < T::from(1) {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(v)
    }

    /// A comma-separated list without empty elements.
    fn list(&mut self) -> Result<Vec<String>, String> {
        let v = self.value()?;
        let items: Vec<String> = v.split(',').map(str::trim).map(str::to_string).collect();
        if items.iter().any(String::is_empty) {
            return Err(format!(
                "{}: expected a comma-separated list, got '{v}'",
                self.flag
            ));
        }
        Ok(items)
    }

    /// An inclusive `lo:hi` range with `lo <= hi`.
    fn range<T: FromStr + PartialOrd>(&mut self) -> Result<(T, T), String> {
        let (flag, v) = (self.flag, self.value()?);
        let (lo, hi) = v
            .split_once(':')
            .ok_or_else(|| format!("{flag}: expected <lo>:<hi>, got '{v}'"))?;
        let lo: T = lo
            .parse()
            .map_err(|_| format!("{flag}: bad lower bound '{lo}'"))?;
        let hi: T = hi
            .parse()
            .map_err(|_| format!("{flag}: bad upper bound '{hi}'"))?;
        if lo > hi {
            return Err(format!("{flag}: range is inverted"));
        }
        Ok((lo, hi))
    }
}

/// Walks `args`, handing each flag to `table`, which parses it and
/// returns `Ok(false)` for a flag it does not know. `cmd` prefixes the
/// unknown-flag message (`"sweep "`; empty for a plain run).
fn walk(
    cmd: &str,
    args: &[String],
    mut table: impl FnMut(&mut Flags) -> Result<bool, Stop>,
) -> Result<(), Stop> {
    let mut f = Flags {
        flag: "",
        rest: args.iter(),
    };
    while let Some(flag) = f.rest.next() {
        if is_help(flag) {
            return Err(Stop::Help);
        }
        f.flag = flag;
        if !table(&mut f)? {
            return Err(format!("unknown {cmd}flag '{flag}' (try --help)").into());
        }
    }
    Ok(())
}

/// Resolves `name` with `find`, or lists the `valid` names of `what`.
fn lookup<T>(
    name: &str,
    find: impl Fn(&str) -> Option<T>,
    what: &str,
    valid: &str,
) -> Result<T, String> {
    find(name).ok_or_else(|| format!("unknown {what} '{name}' (valid: {valid})"))
}

/// The single-core `llc` an `--llc-mb`/`--ways` pair describes; a pair
/// no such cache can be built with fails here instead of panicking in the
/// simulator.
fn llc_config(llc: LlcKind, llc_mb: u64, ways: u64) -> Result<SimConfig, String> {
    SimConfig::single_thread(llc)
        .try_with_llc_size(llc_mb, ways)
        .map_err(|e| format!("bad LLC geometry (--llc-mb {llc_mb}, --ways {ways}): {e}"))
}

fn parse_run(args: &[String]) -> Result<Command, Stop> {
    let mut run = RunArgs::default();
    let mut trace = None;
    walk("", args, |f| {
        match f.flag {
            "--trace" => trace = Some(f.value()?),
            "--list-traces" => return Err(Stop::ListTraces),
            "--insts" => run.insts = f.num()?,
            "--compare" => run.compare = true,
            "--telemetry" => run.telemetry = Some(f.path()?),
            "--epoch" => run.epoch = f.at_least_1()?,
            _ => return run.cache.flag(f),
        }
        Ok(true)
    })?;
    run.sim_config()?;
    run.trace = trace.ok_or("--trace <name> or --list-traces required")?;
    Ok(Command::Run(run))
}

fn parse_sweep(args: &[String]) -> Result<Command, Stop> {
    let mut sweep = SweepArgs::default();
    walk("sweep ", args, |f| {
        match f.flag {
            "--jobs" => sweep.jobs = Some(f.at_least_1()?),
            "--resume" => sweep.resume = true,
            "--journal" => sweep.journal = f.path()?,
            "--telemetry-dir" => sweep.telemetry_dir = Some(f.path()?),
            "--epoch" => sweep.epoch = f.at_least_1()?,
            "--spans" => sweep.spans = Some(f.path()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Command::Sweep(sweep))
}

fn parse_serve(args: &[String]) -> Result<Command, Stop> {
    let mut serve = ServeArgs::default();
    walk("serve ", args, |f| {
        match f.flag {
            "--addr" => serve.addr = f.value()?,
            "--workers" => serve.workers = Some(f.at_least_1()?),
            "--journal" => serve.journal = f.path()?,
            "--timeout-secs" => serve.timeout_secs = f.num()?,
            "--retries" => serve.retries = f.num()?,
            "--port-file" => serve.port_file = Some(f.path()?),
            "--spans" => serve.spans = Some(f.path()?),
            "--metrics-port" => serve.metrics_port = Some(f.num()?),
            "--no-metrics" => serve.metrics = false,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Command::Serve(serve))
}

fn parse_submit(args: &[String]) -> Result<Command, Stop> {
    let mut submit = SubmitArgs::default();
    walk("submit ", args, |f| {
        match f.flag {
            "--addr" => submit.addr = f.value()?,
            "--traces" => submit.traces = f.list()?,
            "--llcs" => {
                submit.llcs = f.list()?;
                for name in &submit.llcs {
                    lookup(name, parse_llc, "LLC kind", LLC_KINDS)?;
                }
            }
            "--policies" => {
                submit.policies = f.list()?;
                for name in &submit.policies {
                    lookup(name, parse_policy, "policy", POLICY_NAMES)?;
                }
            }
            "--llc-mb" => submit.llc_mb = f.num()?,
            "--ways" => submit.ways = f.num()?,
            "--warmup" => submit.warmup = f.num()?,
            "--insts" => submit.insts = f.num()?,
            "--out" => submit.out = Some(f.path()?),
            "--no-wait" => submit.no_wait = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // The `--llcs` arm has already rejected unknown names.
    for llc in submit.llcs.iter().filter_map(|name| parse_llc(name)) {
        llc_config(llc, submit.llc_mb, submit.ways)?;
    }
    if submit.traces.is_empty() {
        return Err("submit requires --traces <a,b,...>".into());
    }
    Ok(Command::Submit(submit))
}

fn parse_watch(args: &[String]) -> Result<Command, Stop> {
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut ticket = None;
    let mut out = None;
    walk("watch ", args, |f| {
        match f.flag {
            "--addr" => addr = f.value()?,
            "--ticket" => ticket = Some(f.num()?),
            "--out" => out = Some(f.path()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let ticket = ticket.ok_or("watch requires --ticket <n>")?;
    Ok(Command::Watch(WatchArgs { addr, ticket, out }))
}

fn parse_ctl(args: &[String]) -> Result<Command, Stop> {
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut action = None;
    walk("ctl ", args, |f| {
        let next = match f.flag {
            "--addr" => {
                addr = f.value()?;
                return Ok(true);
            }
            "--status" => CtlAction::Status,
            "--cancel" => CtlAction::Cancel(f.num()?),
            "--kill-worker" => CtlAction::KillWorker(f.num()?),
            "--shutdown" => CtlAction::Shutdown,
            _ => return Ok(false),
        };
        if action.replace(next).is_some() {
            return Err("ctl takes exactly one action".into());
        }
        Ok(true)
    })?;
    let action =
        action.ok_or("ctl requires one of --status | --cancel | --kill-worker | --shutdown")?;
    Ok(Command::Ctl(CtlArgs { addr, action }))
}

fn parse_top(args: &[String]) -> Result<Command, Stop> {
    let mut top = TopArgs::default();
    walk("top ", args, |f| {
        match f.flag {
            "--addr" => top.addr = f.value()?,
            "--interval-ms" => top.interval_ms = f.at_least_1()?,
            "--once" => top.once = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Command::Top(top))
}

fn parse_trace(args: &[String]) -> Result<Command, Stop> {
    let mut t = TraceArgs::default();
    let mut trace = None;
    walk("trace ", args, |f| {
        match f.flag {
            "--trace" => trace = Some(f.value()?),
            "--budget" => t.budget = f.num()?,
            "--out" => t.out = Some(f.path()?),
            "--kinds" => {
                let v = f.value()?;
                // Validate now so an unknown kind fails before a long run.
                bv_events::EventFilter::all().with_kind_names(&v)?;
                t.kinds = Some(v);
            }
            "--sets" => t.sets = Some(f.range()?),
            "--window" => t.window = Some(f.range()?),
            "--capacity" => t.capacity = f.at_least_1()?,
            "--heatmap" => t.heatmap = true,
            "--audit" => t.audit = true,
            "--ops" => t.ops = f.num()?,
            "--seed" => t.seed = f.num()?,
            "--context" => t.context = f.num()?,
            "--inject" => t.inject = Some(f.num()?),
            _ => return t.cache.flag(f),
        }
        Ok(true)
    })?;
    // The auditor runs a fixed 64 KiB 8-way LLC and ignores these flags.
    if !t.audit {
        t.sim_config()?;
    }
    match trace {
        Some(name) => t.trace = name,
        None if t.audit => {}
        None => return Err("trace requires --trace <name> (or --audit)".into()),
    }
    Ok(Command::Trace(t))
}

fn parse_kv(args: &[String]) -> Result<Command, Stop> {
    let mut kv = KvArgs::default();
    walk("kv ", args, |f| {
        match f.flag {
            "--org" => kv.org = lookup(&f.value()?, parse_kv_org, "kv org", KV_ORGS)?,
            "--dist" => {
                let dist = f.value()?;
                lookup(&dist, RequestProfile::by_name, "kv dist", KV_DISTS)?;
                kv.dist = dist;
            }
            "--budget-kib" => kv.budget_kib = f.at_least_1()?,
            "--requests" => kv.requests = f.num()?,
            "--warmup" => kv.warmup = f.num()?,
            "--seed" => kv.seed = f.num()?,
            "--compare" => kv.compare = true,
            "--sweep" => kv.sweep = true,
            "--jobs" => kv.jobs = Some(f.at_least_1()?),
            "--telemetry" => kv.telemetry = Some(f.path()?),
            "--epoch" => kv.epoch = f.at_least_1()?,
            "--events" => kv.events = Some(f.path()?),
            "--capacity" => kv.capacity = f.at_least_1()?,
            "--lockstep" => kv.lockstep = true,
            "--inject" => kv.inject = Some(f.num()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if kv.compare && kv.sweep {
        return Err("--compare and --sweep are mutually exclusive".into());
    }
    if kv.lockstep && (kv.compare || kv.sweep) {
        return Err("--lockstep runs alone (drop --compare/--sweep)".into());
    }
    if kv.inject.is_some() && !kv.lockstep {
        return Err("--inject requires --lockstep".into());
    }
    Ok(Command::Kv(kv))
}

fn parse_fuzz(args: &[String]) -> Result<Command, Stop> {
    let mut fz = FuzzArgs::default();
    let mut cases_given = false;
    // --llc/--kv may each appear, but the last one silently winning
    // would hide a typo; catch the contradiction instead.
    let mut domain_clash = false;
    walk("fuzz ", args, |f| {
        match f.flag {
            "--cases" => {
                fz.cases = f.at_least_1()?;
                cases_given = true;
            }
            "--seed" => fz.seed = f.num()?,
            "--llc" | "--kv" => {
                let domain = if f.flag == "--llc" {
                    bv_fuzz::Domain::Llc
                } else {
                    bv_fuzz::Domain::Kv
                };
                domain_clash |= fz.domain.is_some_and(|d| d != domain);
                fz.domain = Some(domain);
            }
            "--inject" => fz.inject = true,
            "--replay" => fz.replay = Some(f.path()?),
            "--shrink" => fz.shrink = true,
            "--out" => fz.out = Some(f.path()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if domain_clash {
        return Err("--llc and --kv are mutually exclusive".into());
    }
    if fz.replay.is_some() && fz.inject {
        return Err("--replay and --inject are mutually exclusive".into());
    }
    if fz.replay.is_some() && cases_given {
        return Err("--cases has no effect with --replay".into());
    }
    if fz.shrink && fz.replay.is_none() {
        return Err("--shrink requires --replay (campaigns always shrink)".into());
    }
    Ok(Command::Fuzz(fz))
}

fn parse_report(args: &[String]) -> Result<Command, Stop> {
    match args {
        [flag] if is_help(flag) => Ok(Command::Help),
        [path] => Ok(Command::Report(PathBuf::from(path))),
        [] => Err("report requires a telemetry file path".into()),
        _ => Err("report takes exactly one telemetry file path".into()),
    }
}

fn parse_bench(args: &[String]) -> Result<Command, Stop> {
    let mut bench = BenchArgs::default();
    walk("bench ", args, |f| {
        match f.flag {
            "--quick" => bench.quick = true,
            "--out" => bench.out = f.path()?,
            "--baseline" => bench.baseline = Some(f.path()?),
            "--max-regress" => {
                bench.max_regress = f.num()?;
                if bench.max_regress >= 100 {
                    return Err("--max-regress must be below 100".into());
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Command::Bench(bench))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_with_defaults() {
        let cmd = parse(&argv("--trace specint.mcf.07")).expect("parse");
        let Command::Run(run) = cmd else {
            panic!("expected Run, got {cmd:?}")
        };
        assert_eq!(run.trace, "specint.mcf.07");
        assert_eq!(run.llc, LlcKind::BaseVictim);
        assert_eq!(run.policy, PolicyKind::Nru);
        assert_eq!((run.llc_mb, run.ways), (2, 16));
        assert!(!run.compare);
    }

    #[test]
    fn run_with_every_flag() {
        let cmd = parse(&argv(
            "--trace t --llc two-tag-ecm --policy srrip --llc-mb 4 --ways 8 \
             --warmup 5 --insts 7 --compare",
        ))
        .expect("parse");
        let Command::Run(run) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(run.llc, LlcKind::TwoTagEcm);
        assert_eq!(run.policy, PolicyKind::Srrip);
        assert_eq!((run.llc_mb, run.ways), (4, 8));
        assert_eq!((run.warmup, run.insts), (5, 7));
        assert!(run.compare);
    }

    #[test]
    fn list_and_help_short_circuit() {
        assert_eq!(parse(&argv("--list-traces")).unwrap(), Command::ListTraces);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("sweep --help")).unwrap(), Command::Help);
    }

    #[test]
    fn sweep_defaults() {
        let cmd = parse(&argv("sweep")).expect("parse");
        assert_eq!(cmd, Command::Sweep(SweepArgs::default()));
    }

    #[test]
    fn sweep_with_flags() {
        let cmd = parse(&argv(
            "sweep --jobs 4 --resume --journal /tmp/j --telemetry-dir /tmp/t --epoch 50000 \
             --spans /tmp/spans.json",
        ))
        .expect("parse");
        assert_eq!(
            cmd,
            Command::Sweep(SweepArgs {
                jobs: Some(4),
                resume: true,
                journal: PathBuf::from("/tmp/j"),
                telemetry_dir: Some(PathBuf::from("/tmp/t")),
                epoch: 50_000,
                spans: Some(PathBuf::from("/tmp/spans.json")),
            })
        );
    }

    #[test]
    fn trace_capture_flags() {
        let cmd = parse(&argv(
            "trace --trace t --llc base-victim --policy lru --budget 9000 --warmup 100 \
             --out ev.jsonl --kinds fill,eviction --sets 0:15 --window 10:99 \
             --capacity 128 --heatmap",
        ))
        .expect("parse");
        let Command::Trace(t) = cmd else {
            panic!("expected Trace")
        };
        assert_eq!(t.trace, "t");
        assert_eq!(t.policy, PolicyKind::Lru);
        assert_eq!((t.warmup, t.budget), (100, 9_000));
        assert_eq!(t.out, Some(PathBuf::from("ev.jsonl")));
        assert_eq!(t.kinds.as_deref(), Some("fill,eviction"));
        assert_eq!(t.sets, Some((0, 15)));
        assert_eq!(t.window, Some((10, 99)));
        assert_eq!(t.capacity, 128);
        assert!(t.heatmap && !t.audit);
    }

    #[test]
    fn trace_audit_flags() {
        let cmd = parse(&argv(
            "trace --audit --ops 500 --seed 9 --context 4 --inject 50",
        ))
        .expect("parse");
        let Command::Trace(t) = cmd else {
            panic!("expected Trace")
        };
        assert!(t.audit);
        assert!(t.trace.is_empty());
        assert_eq!((t.ops, t.seed, t.context), (500, 9, 4));
        assert_eq!(t.inject, Some(50));
        assert_eq!(parse(&argv("trace --help")).unwrap(), Command::Help);
    }

    #[test]
    fn trace_rejects_bad_filters() {
        // A capture needs a trace name; audit mode does not.
        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace --heatmap")).is_err());
        // Unknown kinds fail at parse time, naming the valid set.
        let err = parse(&argv("trace --trace t --kinds fill,bogus")).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        // Malformed and inverted ranges.
        assert!(parse(&argv("trace --trace t --sets 5")).is_err());
        assert!(parse(&argv("trace --trace t --sets 9:2")).is_err());
        assert!(parse(&argv("trace --trace t --window a:b")).is_err());
        assert!(parse(&argv("trace --trace t --capacity 0")).is_err());
    }

    #[test]
    fn run_telemetry_flags() {
        let cmd = parse(&argv("--trace t --telemetry /tmp/t.jsonl --epoch 1000")).expect("parse");
        let Command::Run(run) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(run.telemetry, Some(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(run.epoch, 1_000);
        // The default epoch applies when only the destination is given.
        let cmd = parse(&argv("--trace t --telemetry out.jsonl")).expect("parse");
        let Command::Run(run) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(run.epoch, bv_sim::DEFAULT_EPOCH_INSTS);
        assert!(parse(&argv("--trace t --epoch 0")).is_err());
        assert!(parse(&argv("--trace t --epoch soon")).is_err());
        assert!(parse(&argv("sweep --epoch 0")).is_err());
    }

    #[test]
    fn report_takes_one_path() {
        let cmd = parse(&argv("report results/t.jsonl")).expect("parse");
        assert_eq!(cmd, Command::Report(PathBuf::from("results/t.jsonl")));
        assert_eq!(parse(&argv("report --help")).unwrap(), Command::Help);
        assert!(parse(&argv("report")).is_err());
        assert!(parse(&argv("report a b")).is_err());
    }

    #[test]
    fn unknown_llc_error_lists_valid_kinds() {
        let err = parse(&argv("--trace t --llc nonsense")).unwrap_err();
        assert!(err.contains("unknown LLC kind 'nonsense'"), "{err}");
        for kind in ["uncompressed", "base-victim-random-fit", "vsc", "dcc"] {
            assert!(err.contains(kind), "error lists '{kind}': {err}");
        }
    }

    #[test]
    fn unknown_policy_error_lists_valid_names() {
        let err = parse(&argv("--trace t --policy mru")).unwrap_err();
        assert!(err.contains("unknown policy 'mru'"), "{err}");
        for name in ["lru", "nru", "srrip", "char", "camp", "random"] {
            assert!(err.contains(name), "error lists '{name}': {err}");
        }
    }

    #[test]
    fn kv_defaults() {
        let cmd = parse(&argv("kv")).expect("parse");
        assert_eq!(cmd, Command::Kv(KvArgs::default()));
        assert_eq!(parse(&argv("kv --help")).unwrap(), Command::Help);
    }

    #[test]
    fn kv_with_every_flag() {
        let cmd = parse(&argv(
            "kv --org compressed --dist analytics --budget-kib 512 --requests 9000 \
             --warmup 100 --seed 7 --telemetry /tmp/kv.jsonl --epoch 500 \
             --events /tmp/kv.events.jsonl --capacity 256",
        ))
        .expect("parse");
        let Command::Kv(kv) = cmd else {
            panic!("expected Kv")
        };
        assert_eq!(kv.org, KvOrgKind::Compressed);
        assert_eq!(kv.dist, "analytics");
        assert_eq!(kv.budget_kib, 512);
        assert_eq!((kv.requests, kv.warmup, kv.seed), (9_000, 100, 7));
        assert_eq!(kv.telemetry, Some(PathBuf::from("/tmp/kv.jsonl")));
        assert_eq!(kv.epoch, 500);
        assert_eq!(kv.events, Some(PathBuf::from("/tmp/kv.events.jsonl")));
        assert_eq!(kv.capacity, 256);
    }

    #[test]
    fn kv_modes_parse_and_exclude_each_other() {
        let Command::Kv(kv) = parse(&argv("kv --compare")).expect("parse") else {
            panic!("expected Kv")
        };
        assert!(kv.compare);
        let Command::Kv(kv) = parse(&argv("kv --sweep --jobs 2")).expect("parse") else {
            panic!("expected Kv")
        };
        assert!(kv.sweep);
        assert_eq!(kv.jobs, Some(2));
        let Command::Kv(kv) = parse(&argv("kv --lockstep --inject 99")).expect("parse") else {
            panic!("expected Kv")
        };
        assert!(kv.lockstep);
        assert_eq!(kv.inject, Some(99));
        assert!(parse(&argv("kv --compare --sweep")).is_err());
        assert!(parse(&argv("kv --lockstep --compare")).is_err());
        assert!(parse(&argv("kv --inject 5")).is_err());
    }

    #[test]
    fn unknown_kv_org_error_lists_valid_orgs() {
        let err = parse(&argv("kv --org nonsense")).unwrap_err();
        assert!(err.contains("unknown kv org 'nonsense'"), "{err}");
        for org in ["uncompressed", "compressed", "base-victim"] {
            assert!(err.contains(org), "error lists '{org}': {err}");
        }
    }

    #[test]
    fn unknown_kv_dist_error_lists_valid_dists() {
        let err = parse(&argv("kv --dist nonsense")).unwrap_err();
        assert!(err.contains("unknown kv dist 'nonsense'"), "{err}");
        for dist in ["web", "analytics", "social"] {
            assert!(err.contains(dist), "error lists '{dist}': {err}");
        }
    }

    #[test]
    fn kv_rejects_bad_values() {
        assert!(parse(&argv("kv --budget-kib 0")).is_err());
        assert!(parse(&argv("kv --budget-kib big")).is_err());
        assert!(parse(&argv("kv --jobs 0")).is_err());
        assert!(parse(&argv("kv --capacity 0")).is_err());
        assert!(parse(&argv("kv --epoch 0")).is_err());
        assert!(parse(&argv("kv --requests soon")).is_err());
        assert!(parse(&argv("kv --bogus")).is_err());
        assert!(parse(&argv("kv --dist")).is_err());
    }

    #[test]
    fn fuzz_defaults() {
        let cmd = parse(&argv("fuzz")).expect("parse");
        assert_eq!(cmd, Command::Fuzz(FuzzArgs::default()));
        assert_eq!(parse(&argv("fuzz --help")).unwrap(), Command::Help);
    }

    #[test]
    fn fuzz_campaign_flags() {
        let cmd = parse(&argv(
            "fuzz --cases 25 --seed 7 --kv --out /tmp/f.bvfuzz.json",
        ))
        .expect("parse");
        let Command::Fuzz(f) = cmd else {
            panic!("expected Fuzz")
        };
        assert_eq!((f.cases, f.seed), (25, 7));
        assert_eq!(f.domain, Some(bv_fuzz::Domain::Kv));
        assert_eq!(f.out, Some(PathBuf::from("/tmp/f.bvfuzz.json")));
        assert!(!f.inject && f.replay.is_none() && !f.shrink);
        let Command::Fuzz(f) = parse(&argv("fuzz --llc --inject")).expect("parse") else {
            panic!("expected Fuzz")
        };
        assert_eq!(f.domain, Some(bv_fuzz::Domain::Llc));
        assert!(f.inject);
    }

    #[test]
    fn fuzz_replay_flags() {
        let cmd = parse(&argv("fuzz --replay tests/corpus/x.bvfuzz.json --shrink")).expect("parse");
        let Command::Fuzz(f) = cmd else {
            panic!("expected Fuzz")
        };
        assert_eq!(f.replay, Some(PathBuf::from("tests/corpus/x.bvfuzz.json")));
        assert!(f.shrink);
    }

    #[test]
    fn fuzz_rejects_contradictions() {
        assert!(parse(&argv("fuzz --llc --kv")).is_err());
        assert!(parse(&argv("fuzz --replay f --inject")).is_err());
        assert!(parse(&argv("fuzz --replay f --cases 5")).is_err());
        assert!(parse(&argv("fuzz --shrink")).is_err());
        assert!(parse(&argv("fuzz --cases 0")).is_err());
        assert!(parse(&argv("fuzz --cases many")).is_err());
        assert!(parse(&argv("fuzz --replay")).is_err());
        assert!(parse(&argv("fuzz --bogus")).is_err());
    }

    #[test]
    fn bench_defaults() {
        let cmd = parse(&argv("bench")).expect("parse");
        assert_eq!(
            cmd,
            Command::Bench(BenchArgs {
                quick: false,
                out: PathBuf::from("BENCH.json"),
                baseline: None,
                max_regress: 20,
            })
        );
    }

    #[test]
    fn bench_with_flags() {
        let cmd = parse(&argv(
            "bench --quick --out /tmp/b.json --baseline BENCH.json --max-regress 35",
        ))
        .expect("parse");
        assert_eq!(
            cmd,
            Command::Bench(BenchArgs {
                quick: true,
                out: PathBuf::from("/tmp/b.json"),
                baseline: Some(PathBuf::from("BENCH.json")),
                max_regress: 35,
            })
        );
        assert_eq!(parse(&argv("bench --help")).unwrap(), Command::Help);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("--trace")).is_err());
        assert!(parse(&argv("--trace t --llc nonsense")).is_err());
        assert!(parse(&argv("--trace t --ways wide")).is_err());
        assert!(parse(&argv("sweep --jobs 0")).is_err());
        assert!(parse(&argv("sweep --jobs many")).is_err());
        assert!(parse(&argv("sweep --journal")).is_err());
        assert!(parse(&argv("sweep --trace t")).is_err());
        assert!(parse(&argv("bench --out")).is_err());
        assert!(parse(&argv("bench --max-regress 150")).is_err());
        assert!(parse(&argv("bench --max-regress some")).is_err());
        assert!(parse(&argv("bench --trace t")).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        let cmd = parse(&argv(
            "serve --addr 127.0.0.1:0 --workers 3 --journal /tmp/j --timeout-secs 10 \
             --retries 1 --port-file /tmp/p --spans /tmp/s.json --metrics-port 9100 \
             --no-metrics",
        ))
        .expect("parse");
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                addr: "127.0.0.1:0".to_string(),
                workers: Some(3),
                journal: PathBuf::from("/tmp/j"),
                timeout_secs: 10,
                retries: 1,
                port_file: Some(PathBuf::from("/tmp/p")),
                spans: Some(PathBuf::from("/tmp/s.json")),
                metrics: false,
                metrics_port: Some(9100),
            })
        );
        assert_eq!(parse(&argv("serve --help")).unwrap(), Command::Help);
        assert!(parse(&argv("serve --workers 0")).is_err());
        assert!(parse(&argv("serve --metrics-port 66000")).is_err());
        assert!(parse(&argv("serve --bogus")).is_err());
    }

    #[test]
    fn top_defaults_and_flags() {
        assert_eq!(
            parse(&argv("top")).unwrap(),
            Command::Top(TopArgs::default())
        );
        let cmd = parse(&argv("top --addr h:3 --interval-ms 250 --once")).expect("parse");
        assert_eq!(
            cmd,
            Command::Top(TopArgs {
                addr: "h:3".to_string(),
                interval_ms: 250,
                once: true,
            })
        );
        assert!(parse(&argv("top --interval-ms 0")).is_err());
        assert!(parse(&argv("top --bogus")).is_err());
    }

    #[test]
    fn submit_flags_and_validation() {
        let cmd = parse(&argv(
            "submit --traces a,b --llcs uncompressed,base-victim --policies nru,lru \
             --llc-mb 4 --ways 8 --warmup 10 --insts 20 --out /tmp/o.jsonl --no-wait",
        ))
        .expect("parse");
        assert_eq!(
            cmd,
            Command::Submit(SubmitArgs {
                addr: DEFAULT_SERVE_ADDR.to_string(),
                traces: vec!["a".to_string(), "b".to_string()],
                llcs: vec!["uncompressed".to_string(), "base-victim".to_string()],
                policies: vec!["nru".to_string(), "lru".to_string()],
                llc_mb: 4,
                ways: 8,
                warmup: 10,
                insts: 20,
                out: Some(PathBuf::from("/tmp/o.jsonl")),
                no_wait: true,
            })
        );
        // --traces is required; llc/policy names are checked at parse time.
        assert!(parse(&argv("submit")).is_err());
        let err = parse(&argv("submit --traces t --llcs bogus")).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        let err = parse(&argv("submit --traces t --policies bogus")).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert!(parse(&argv("submit --traces t,,u")).is_err());
    }

    #[test]
    fn watch_and_ctl_flags() {
        let cmd = parse(&argv("watch --ticket 7 --addr h:1 --out /tmp/w.jsonl")).expect("parse");
        assert_eq!(
            cmd,
            Command::Watch(WatchArgs {
                addr: "h:1".to_string(),
                ticket: 7,
                out: Some(PathBuf::from("/tmp/w.jsonl")),
            })
        );
        assert!(parse(&argv("watch")).is_err(), "--ticket is required");

        let status = parse(&argv("ctl --status")).expect("parse");
        assert_eq!(
            status,
            Command::Ctl(CtlArgs {
                addr: DEFAULT_SERVE_ADDR.to_string(),
                action: CtlAction::Status,
            })
        );
        let cancel = parse(&argv("ctl --cancel 3 --addr h:2")).expect("parse");
        assert_eq!(
            cancel,
            Command::Ctl(CtlArgs {
                addr: "h:2".to_string(),
                action: CtlAction::Cancel(3),
            })
        );
        let kill = parse(&argv("ctl --kill-worker 1")).expect("parse");
        assert_eq!(
            kill,
            Command::Ctl(CtlArgs {
                addr: DEFAULT_SERVE_ADDR.to_string(),
                action: CtlAction::KillWorker(1),
            })
        );
        let stop = parse(&argv("ctl --shutdown")).expect("parse");
        assert_eq!(
            stop,
            Command::Ctl(CtlArgs {
                addr: DEFAULT_SERVE_ADDR.to_string(),
                action: CtlAction::Shutdown,
            })
        );
        // Exactly one action: none or two both fail.
        assert!(parse(&argv("ctl")).is_err());
        assert!(parse(&argv("ctl --status --shutdown")).is_err());
    }

    /// Every subcommand's error messages, byte for byte: missing value,
    /// unknown flag, unparsable number, and each subcommand's own rules.
    #[test]
    fn error_strings_are_pinned() {
        const TABLE: &[(&str, &str)] = &[
            ("", "--trace <name> or --list-traces required"),
            ("--trace", "missing value for --trace"),
            ("--trace t --telemetry", "missing value for --telemetry"),
            ("--bogus", "unknown flag '--bogus' (try --help)"),
            ("--trace t --llc nonsense", "unknown LLC kind 'nonsense' (valid: uncompressed, two-tag, two-tag-ecm, base-victim, base-victim-ni, base-victim-random-fit, vsc, dcc)"),
            ("--trace t --policy mru", "unknown policy 'mru' (valid: lru, nru, srrip, char, camp, random)"),
            ("--trace t --llc-mb big", "--llc-mb: invalid digit found in string"),
            ("--trace t --ways wide", "--ways: invalid digit found in string"),
            ("--trace t --warmup x", "--warmup: invalid digit found in string"),
            ("--trace t --insts x", "--insts: invalid digit found in string"),
            ("--trace t --epoch soon", "--epoch: invalid digit found in string"),
            ("--trace t --epoch 0", "--epoch must be at least 1"),
            ("sweep --journal", "missing value for --journal"),
            ("sweep --trace t", "unknown sweep flag '--trace' (try --help)"),
            ("sweep --jobs many", "--jobs: invalid digit found in string"),
            ("sweep --jobs 0", "--jobs must be at least 1"),
            ("sweep --epoch 0", "--epoch must be at least 1"),
            ("bench --out", "missing value for --out"),
            ("bench --bogus", "unknown bench flag '--bogus' (try --help)"),
            ("bench --max-regress some", "--max-regress: invalid digit found in string"),
            ("bench --max-regress 100", "--max-regress must be below 100"),
            ("report", "report requires a telemetry file path"),
            ("report a b", "report takes exactly one telemetry file path"),
            ("trace", "trace requires --trace <name> (or --audit)"),
            ("trace --out", "missing value for --out"),
            ("trace --bogus", "unknown trace flag '--bogus' (try --help)"),
            ("trace --trace t --budget x", "--budget: invalid digit found in string"),
            ("trace --trace t --ways x", "--ways: invalid digit found in string"),
            ("trace --trace t --capacity 0", "--capacity must be at least 1"),
            ("trace --trace t --sets 5", "--sets: expected <lo>:<hi>, got '5'"),
            ("trace --trace t --sets 9:2", "--sets: range is inverted"),
            ("trace --trace t --window a:b", "--window: bad lower bound 'a'"),
            ("trace --trace t --window 1:b", "--window: bad upper bound 'b'"),
            ("trace --trace t --kinds fill,bogus", "unknown event kind 'bogus'"),
            ("trace --trace t --llc nonsense", "unknown LLC kind 'nonsense' (valid: uncompressed, two-tag, two-tag-ecm, base-victim, base-victim-ni, base-victim-random-fit, vsc, dcc)"),
            ("trace --audit --ops x", "--ops: invalid digit found in string"),
            ("trace --audit --inject -1", "--inject: invalid digit found in string"),
            ("kv --dist", "missing value for --dist"),
            ("kv --bogus", "unknown kv flag '--bogus' (try --help)"),
            ("kv --requests soon", "--requests: invalid digit found in string"),
            ("kv --budget-kib 0", "--budget-kib must be at least 1"),
            ("kv --jobs 0", "--jobs must be at least 1"),
            ("kv --capacity 0", "--capacity must be at least 1"),
            ("kv --epoch 0", "--epoch must be at least 1"),
            ("kv --compare --sweep", "--compare and --sweep are mutually exclusive"),
            ("kv --lockstep --compare", "--lockstep runs alone (drop --compare/--sweep)"),
            ("kv --inject 5", "--inject requires --lockstep"),
            ("kv --org nonsense", "unknown kv org 'nonsense' (valid: uncompressed, compressed, base-victim)"),
            ("kv --dist nonsense", "unknown kv dist 'nonsense' (valid: web, analytics, social)"),
            ("fuzz --replay", "missing value for --replay"),
            ("fuzz --bogus", "unknown fuzz flag '--bogus' (try --help)"),
            ("fuzz --cases many", "--cases: invalid digit found in string"),
            ("fuzz --cases 0", "--cases must be at least 1"),
            ("fuzz --llc --kv", "--llc and --kv are mutually exclusive"),
            ("fuzz --kv --seed 3 --llc", "--llc and --kv are mutually exclusive"),
            ("fuzz --replay f --inject", "--replay and --inject are mutually exclusive"),
            ("fuzz --replay f --cases 5", "--cases has no effect with --replay"),
            ("fuzz --shrink", "--shrink requires --replay (campaigns always shrink)"),
            ("serve --addr", "missing value for --addr"),
            ("serve --bogus", "unknown serve flag '--bogus' (try --help)"),
            ("serve --workers 0", "--workers must be at least 1"),
            ("serve --metrics-port 66000", "--metrics-port: number too large to fit in target type"),
            ("serve --retries x", "--retries: invalid digit found in string"),
            ("submit", "submit requires --traces <a,b,...>"),
            ("submit --traces", "missing value for --traces"),
            ("submit --bogus", "unknown submit flag '--bogus' (try --help)"),
            ("submit --traces t,,u", "--traces: expected a comma-separated list, got 't,,u'"),
            ("submit --traces t --llcs bogus", "unknown LLC kind 'bogus' (valid: uncompressed, two-tag, two-tag-ecm, base-victim, base-victim-ni, base-victim-random-fit, vsc, dcc)"),
            ("submit --traces t --policies bogus", "unknown policy 'bogus' (valid: lru, nru, srrip, char, camp, random)"),
            ("submit --traces t --ways x", "--ways: invalid digit found in string"),
            ("watch", "watch requires --ticket <n>"),
            ("watch --ticket", "missing value for --ticket"),
            ("watch --bogus", "unknown watch flag '--bogus' (try --help)"),
            ("watch --ticket x", "--ticket: invalid digit found in string"),
            ("ctl", "ctl requires one of --status | --cancel | --kill-worker | --shutdown"),
            ("ctl --status --shutdown", "ctl takes exactly one action"),
            ("ctl --cancel", "missing value for --cancel"),
            ("ctl --cancel x", "--cancel: invalid digit found in string"),
            ("ctl --bogus", "unknown ctl flag '--bogus' (try --help)"),
            ("top --addr", "missing value for --addr"),
            ("top --bogus", "unknown top flag '--bogus' (try --help)"),
            ("top --interval-ms 0", "--interval-ms must be at least 1"),
            ("top --interval-ms x", "--interval-ms: invalid digit found in string"),
        ];
        for &(args, want) in TABLE {
            assert_eq!(parse(&argv(args)), Err(want.to_string()), "bvsim {args}");
        }
    }

    #[test]
    fn bad_llc_geometry_is_an_error() {
        const TABLE: &[(&str, &str)] = &[
            ("--trace t --ways 0", "bad LLC geometry (--llc-mb 2, --ways 0): associativity must be at least 1"),
            ("--trace t --ways 128", "bad LLC geometry (--llc-mb 2, --ways 128): associativity 128 exceeds 64 ways"),
            ("--trace t --llc-mb 0", "bad LLC geometry (--llc-mb 0, --ways 16): set count 0 must be a nonzero power of two"),
            ("--trace t --llc-mb 3", "bad LLC geometry (--llc-mb 3, --ways 16): set count 3072 must be a nonzero power of two"),
            ("--trace t --llc-mb 17592186044416", "bad LLC geometry (--llc-mb 17592186044416, --ways 16): capacity overflows"),
            ("trace --trace t --ways 0", "bad LLC geometry (--llc-mb 2, --ways 0): associativity must be at least 1"),
            ("trace --trace t --llc-mb 3", "bad LLC geometry (--llc-mb 3, --ways 16): set count 3072 must be a nonzero power of two"),
            ("--trace t --llc two-tag --ways 64", "bad LLC geometry (--llc-mb 2, --ways 64): two-tag keeps 2 tags per way, so at most 32 ways"),
            ("trace --trace t --llc vsc --ways 33", "bad LLC geometry (--llc-mb 2, --ways 33): cache size 2097152 not a multiple of 33 ways x 64 B"),
            ("trace --trace t --llc vsc --llc-mb 3 --ways 48", "bad LLC geometry (--llc-mb 3, --ways 48): vsc-2x keeps 2 tags per way, so at most 32 ways"),
            ("submit --traces t --llcs base-victim,dcc --ways 64", "bad LLC geometry (--llc-mb 2, --ways 64): dcc keeps 2 tags per way, so at most 32 ways"),
            ("submit --traces t --ways 0", "bad LLC geometry (--llc-mb 2, --ways 0): associativity must be at least 1"),
            ("submit --traces t --llc-mb 3", "bad LLC geometry (--llc-mb 3, --ways 16): set count 3072 must be a nonzero power of two"),
        ];
        for &(args, want) in TABLE {
            assert_eq!(parse(&argv(args)), Err(want.to_string()), "bvsim {args}");
        }
        // The paper's 3 MB point adds 8 ways; 64 ways is the widest set.
        assert!(parse(&argv("--trace t --llc-mb 3 --ways 24")).is_ok());
        assert!(parse(&argv("trace --trace t --llc-mb 4 --ways 64")).is_ok());
        assert!(parse(&argv("submit --traces t --llc-mb 3 --ways 24")).is_ok());
        assert!(parse(&argv("--trace t --llc two-tag --ways 32")).is_ok());
        // The auditor ignores --llc-mb/--ways, so it accepts any pair.
        assert!(parse(&argv("trace --audit --ways 0")).is_ok());
        assert!(parse(&argv("trace --audit --llc-mb 3")).is_ok());
    }

    #[test]
    fn fuzz_domain_clash_reads_parsed_flags_not_raw_argv() {
        // `--kv` here is the value of `--out`, not a domain flag.
        let Command::Fuzz(f) = parse(&argv("fuzz --out --kv --llc")).expect("parse") else {
            panic!("expected Fuzz")
        };
        assert_eq!(f.out, Some(PathBuf::from("--kv")));
        assert_eq!(f.domain, Some(bv_fuzz::Domain::Llc));
        // Repeating the same domain is not a contradiction.
        assert!(parse(&argv("fuzz --kv --kv")).is_ok());
    }
}
