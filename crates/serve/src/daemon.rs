//! The sweep-serving daemon: a TCP listener, a shard of worker threads,
//! and a monitor thread, all sharing one job table.
//!
//! ## Scheduling
//!
//! Jobs are keyed by [`JobSpec::stable_hash`]. A submission plans its
//! grid, then for each job either (a) adopts an existing entry — another
//! client already submitted the same configuration, so the tickets
//! *merge* and the job simulates once — (b) satisfies it instantly from
//! the checkpoint journal, or (c) enqueues it fresh. Workers claim jobs
//! from a FIFO queue under the state mutex, simulate with the lock
//! released, and publish under the lock again.
//!
//! ## Failure model
//!
//! Every claim carries a token `(worker, attempt)`. A publisher whose
//! token no longer matches the job's phase — because the monitor timed
//! the job out and re-queued it — drops its result, so a configuration
//! can never journal twice. The monitor detects dead worker threads
//! (panic mid-job, e.g. via the `kill-worker` test hook), re-queues
//! their claimed jobs with exponential backoff, counts the crash, and
//! spawns a replacement worker; a job that exhausts its retry budget
//! moves to a terminal failed state instead of looping forever.
//! Completed jobs checkpoint through [`Journal`], so restarting the
//! daemon against the same journal directory re-simulates nothing.

use crate::proto::{DoneSummary, Request, Response, ResultRow, StatusInfo, SweepGrid};
use bv_metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
use bv_runner::{JobSpec, JobTiming, Journal, SpanLog};
use bv_sim::{RunResult, System};
use bv_trace::TraceRegistry;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead as _, BufReader, BufWriter, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a daemon is started (`bvsim serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads in the simulation shard.
    pub workers: usize,
    /// Checkpoint journal directory (shared with `bvsim sweep`).
    pub journal: PathBuf,
    /// A job running longer than this is presumed hung: it is re-queued
    /// and the eventual straggler result is dropped.
    pub timeout: Duration,
    /// Re-queues allowed per job after its first attempt.
    pub retries: u32,
    /// Write the actual bound address here (atomically) once listening —
    /// how scripts find an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Export per-job worker spans as Chrome trace-event JSON here on
    /// shutdown.
    pub spans: Option<PathBuf>,
    /// Record live metrics (counters, gauges, latency histograms).
    /// When false the registry is inert: every record call is a no-op
    /// and snapshots are empty.
    pub metrics: bool,
    /// Serve Prometheus text exposition over plain HTTP (`GET
    /// /metrics`) on this port (0 for an ephemeral one) at the same
    /// host address as the protocol listener.
    pub metrics_port: Option<u16>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            journal: PathBuf::from("results/journal"),
            timeout: Duration::from_secs(300),
            retries: 3,
            port_file: None,
            spans: None,
            metrics: true,
            metrics_port: None,
        }
    }
}

/// The daemon's pre-registered metric handles. Everything recorded on
/// the job path goes through a handle resolved once here (or once per
/// worker), so the per-job cost is a few relaxed atomic RMWs; only the
/// per-tenant request counters register lazily, and those are bounded
/// by connection rate, not job rate.
struct Metrics {
    registry: Registry,
    queue_depth: Gauge,
    jobs_running: Gauge,
    workers_alive: Gauge,
    jobs_completed_simulated: Counter,
    jobs_completed_journal: Counter,
    jobs_failed: Counter,
    worker_crashes: Counter,
    job_retries: Counter,
    job_timeouts: Counter,
    rows_streamed: Counter,
    tickets_opened: Counter,
    jobs_submitted_fresh: Counter,
    jobs_submitted_journal: Counter,
    jobs_submitted_merged: Counter,
    queue_wait_ms: Histogram,
    sim_ms: Histogram,
    journal_ms: Histogram,
    job_total_ms: Histogram,
}

impl Metrics {
    fn new(enabled: bool) -> Metrics {
        let registry = if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let counter = |name: &str| registry.counter(name, &[]);
        let completed =
            |source: &str| registry.counter("jobs_completed_total", &[("source", source)]);
        let submitted = |disposition: &str| {
            registry.counter("jobs_submitted_total", &[("disposition", disposition)])
        };
        let hist = |name: &str| registry.histogram(name, &[]);
        Metrics {
            queue_depth: registry.gauge("queue_depth", &[]),
            jobs_running: registry.gauge("jobs_running", &[]),
            workers_alive: registry.gauge("workers_alive", &[]),
            jobs_completed_simulated: completed("simulated"),
            jobs_completed_journal: completed("journal"),
            jobs_failed: counter("jobs_failed_total"),
            worker_crashes: counter("worker_crashes_total"),
            job_retries: counter("job_retries_total"),
            job_timeouts: counter("job_timeouts_total"),
            rows_streamed: counter("rows_streamed_total"),
            tickets_opened: counter("tickets_opened_total"),
            jobs_submitted_fresh: submitted("fresh"),
            jobs_submitted_journal: submitted("journal"),
            jobs_submitted_merged: submitted("merged"),
            queue_wait_ms: hist("job_queue_wait_ms"),
            sim_ms: hist("job_sim_ms"),
            journal_ms: hist("job_journal_ms"),
            job_total_ms: hist("job_total_ms"),
            registry,
        }
    }

    /// Counts one request from `tenant` (the client's IP), split by
    /// request kind — the per-tenant submit/stream/cancel rates.
    fn client_request(&self, tenant: &str, kind: &str) {
        self.registry
            .counter(
                "client_requests_total",
                &[("tenant", tenant), ("kind", kind)],
            )
            .inc();
    }

    /// The per-worker utilization pair: a busy flag and a completion
    /// counter, labeled by worker slot.
    fn worker_handles(&self, worker: usize) -> (Gauge, Counter) {
        let label = worker.to_string();
        (
            self.registry.gauge("worker_busy", &[("worker", &label)]),
            self.registry
                .counter("worker_jobs_total", &[("worker", &label)]),
        )
    }
}

/// Scheduling state of one job entry.
enum Phase {
    /// Waiting in the queue; `not_before` is the retry backoff gate and
    /// `enqueued` is when the wait began (reset on re-queue), so the
    /// claim can attribute queue-wait latency.
    Pending {
        not_before: Option<Instant>,
        enqueued: Instant,
    },
    /// Claimed by `worker` as its `attempt`-th try.
    Running {
        worker: usize,
        attempt: u32,
        since: Instant,
    },
    /// Terminal: result available in `JobEntry::row`.
    Done,
    /// Terminal: retry budget exhausted.
    Failed,
}

struct JobEntry {
    spec: JobSpec,
    phase: Phase,
    /// Attempts started so far (claims, including crashed ones).
    attempts: u32,
    /// Tickets subscribed to this job's completion.
    tickets: Vec<u64>,
    /// The completed row (ticket/seq zeroed), once terminal.
    row: Option<ResultRow>,
    /// Correlation id stamped at submit; follows the job into its
    /// result row, journal line, and span.
    trace_id: String,
}

struct Ticket {
    jobs: u64,
    merged: u64,
    failed: u64,
    canceled: bool,
    rows: Vec<ResultRow>,
}

struct WorkerSlot {
    alive: bool,
    clean_exit: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    jobs_done: u64,
}

#[derive(Default)]
struct State {
    jobs: HashMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    tickets: HashMap<u64, Ticket>,
    next_ticket: u64,
    shutting_down: bool,
    /// Worker ids armed to panic on their next claim (test hook).
    kill_armed: Vec<usize>,
    crashes: u64,
    retries: u64,
    workers: Vec<WorkerSlot>,
    /// Monotonic source for per-job trace ids.
    next_trace_id: u64,
}

/// Mints the next per-job trace id: a daemon-wide sequence number plus
/// the low half of the job's stable hash, so an id is both unique within
/// the daemon's lifetime and visually joinable to the job identity.
fn mint_trace_id(st: &mut State, hash: u64) -> String {
    st.next_trace_id += 1;
    format!("{:06x}-{:08x}", st.next_trace_id, hash & 0xffff_ffff)
}

struct Shared {
    cfg: ServeConfig,
    registry: TraceRegistry,
    journal: Journal,
    spans: SpanLog,
    metrics: Metrics,
    metrics_addr: Option<SocketAddr>,
    state: Mutex<State>,
    /// Signaled when the queue gains work, backoff expires, or shutdown
    /// begins — what idle workers wait on.
    wake_workers: Condvar,
    /// Signaled on every job completion / ticket change — what result
    /// streamers and the shutdown drain wait on.
    progress: Condvar,
    /// Stops the accept loop.
    stop: AtomicBool,
    local_addr: SocketAddr,
}

/// A running daemon: the handle the `bvsim serve` command (and the
/// integration tests) hold while the service is live.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: JoinHandle<()>,
    monitor: JoinHandle<()>,
    metrics_http: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, opens the journal, spawns the worker shard
    /// and the monitor, and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound or the
    /// journal directory cannot be opened.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let journal = Journal::open(&cfg.journal)?;
        if let Some(summary) = journal.recovery().summary() {
            eprintln!("serve: {summary}");
        }
        // Bind the exposition endpoint on the same host as the protocol
        // listener, before writing port files, so a script that sees the
        // files can scrape immediately.
        let metrics_listener = match cfg.metrics_port {
            Some(port) => Some(TcpListener::bind(SocketAddr::new(local_addr.ip(), port))?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        if let Some(path) = &cfg.port_file {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, local_addr.to_string())?;
            std::fs::rename(&tmp, path)?;
            if let Some(addr) = metrics_addr {
                // A sibling `<port-file>.metrics` file, same atomic
                // pattern, for scrape scripts.
                let sibling = PathBuf::from(format!("{}.metrics", path.display()));
                let tmp = sibling.with_extension("tmp");
                std::fs::write(&tmp, addr.to_string())?;
                std::fs::rename(&tmp, &sibling)?;
            }
        }
        let workers = cfg.workers.max(1);
        let metrics = Metrics::new(cfg.metrics);
        let shared = Arc::new(Shared {
            cfg,
            registry: TraceRegistry::paper_default(),
            journal,
            spans: SpanLog::new(),
            metrics,
            metrics_addr,
            state: Mutex::new(State {
                next_ticket: 1,
                ..State::default()
            }),
            wake_workers: Condvar::new(),
            progress: Condvar::new(),
            stop: AtomicBool::new(false),
            local_addr,
        });
        for _ in 0..workers {
            spawn_worker(&shared);
        }
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || monitor_loop(&shared))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let metrics_http = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || metrics_http_loop(&listener, &shared))
        });
        Ok(Daemon {
            shared,
            listener: accept,
            monitor,
            metrics_http,
        })
    }

    /// The bound address of the HTTP `/metrics` endpoint, when one was
    /// configured (resolves port 0 to the real port).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// The address actually bound (resolves `:0` to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Blocks until a `shutdown` request drains the daemon, then writes
    /// the span export (if configured) and returns its worker
    /// utilization summary.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the span export cannot be written.
    pub fn wait(self) -> std::io::Result<Option<String>> {
        let _ = self.listener.join();
        let _ = self.monitor.join();
        if let Some(h) = self.metrics_http {
            let _ = h.join();
        }
        // Join worker threads so every span is recorded before export.
        let handles: Vec<JoinHandle<()>> = {
            let mut st = self.shared.state.lock().expect("serve state");
            st.workers
                .iter_mut()
                .filter_map(|w| w.handle.take())
                .collect()
        };
        for h in handles {
            let _ = h.join();
        }
        let Some(path) = &self.shared.cfg.spans else {
            return Ok(None);
        };
        let spans = self.shared.spans.take();
        std::fs::write(path, bv_runner::chrome_trace_json(&spans))?;
        Ok(Some(bv_runner::utilization_summary(&spans)))
    }
}

/// Exponential claim-retry backoff: 50 ms doubling per prior attempt,
/// capped at 2 s.
fn backoff(attempts: u32) -> Duration {
    let ms = 50u64.saturating_mul(1 << attempts.min(6));
    Duration::from_millis(ms.min(2_000))
}

fn spawn_worker(shared: &Arc<Shared>) {
    let clean_exit = Arc::new(AtomicBool::new(false));
    let me = {
        let mut st = shared.state.lock().expect("serve state");
        st.workers.push(WorkerSlot {
            alive: true,
            clean_exit: Arc::clone(&clean_exit),
            handle: None,
            jobs_done: 0,
        });
        st.workers.len() - 1
    };
    let handle = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("bv-serve-worker-{me}"))
            .spawn(move || worker_loop(&shared, me, &clean_exit))
            .expect("spawn worker")
    };
    let mut st = shared.state.lock().expect("serve state");
    st.workers[me].handle = Some(handle);
}

enum Claim {
    Job(u64),
    Wait(Duration),
    Idle,
}

/// Pops the first runnable job, cycling backoff-gated entries to the
/// back and dropping stale queue slots (canceled or already-claimed
/// hashes) on the way.
fn claim_next(st: &mut State, now: Instant) -> Claim {
    let mut soonest: Option<Duration> = None;
    for _ in 0..st.queue.len() {
        let Some(hash) = st.queue.pop_front() else {
            break;
        };
        let Some(entry) = st.jobs.get(&hash) else {
            continue; // canceled underneath the queue
        };
        let Phase::Pending { not_before, .. } = &entry.phase else {
            continue; // stale: claimed or finished via another queue slot
        };
        if let Some(gate) = not_before {
            if *gate > now {
                let wait = *gate - now;
                soonest = Some(soonest.map_or(wait, |s| s.min(wait)));
                st.queue.push_back(hash);
                continue;
            }
        }
        return Claim::Job(hash);
    }
    soonest.map_or(Claim::Idle, Claim::Wait)
}

fn worker_loop(shared: &Arc<Shared>, me: usize, clean_exit: &AtomicBool) {
    let (busy, jobs_total) = shared.metrics.worker_handles(me);
    loop {
        // Claim under the lock (or exit on drained shutdown).
        let claimed = {
            let mut st = shared.state.lock().expect("serve state");
            loop {
                let now = Instant::now();
                match claim_next(&mut st, now) {
                    Claim::Job(hash) => {
                        let armed = st.kill_armed.iter().position(|&w| w == me);
                        if let Some(pos) = armed {
                            st.kill_armed.remove(pos);
                        }
                        let entry = st.jobs.get_mut(&hash).expect("claimed job");
                        let queued = match &entry.phase {
                            Phase::Pending { enqueued, .. } => {
                                now.saturating_duration_since(*enqueued)
                            }
                            _ => Duration::ZERO,
                        };
                        entry.attempts += 1;
                        let attempt = entry.attempts;
                        entry.phase = Phase::Running {
                            worker: me,
                            attempt,
                            since: now,
                        };
                        let spec = entry.spec.clone();
                        let trace_id = entry.trace_id.clone();
                        if armed.is_some() {
                            // The deterministic mid-sweep crash: die *after*
                            // claiming, so the monitor must detect the dead
                            // thread and re-queue a running job.
                            drop(st);
                            panic!("bv-serve: worker {me} killed by kill-worker hook");
                        }
                        break Some((hash, spec, attempt, queued, trace_id));
                    }
                    Claim::Wait(d) => {
                        let (guard, _) = shared
                            .wake_workers
                            .wait_timeout(st, d)
                            .expect("serve state");
                        st = guard;
                    }
                    Claim::Idle => {
                        if st.shutting_down {
                            break None;
                        }
                        let (guard, _) = shared
                            .wake_workers
                            .wait_timeout(st, Duration::from_millis(200))
                            .expect("serve state");
                        st = guard;
                    }
                }
            }
        };
        let Some((hash, spec, attempt, queued, trace_id)) = claimed else {
            clean_exit.store(true, Ordering::SeqCst);
            let mut st = shared.state.lock().expect("serve state");
            if let Some(slot) = st.workers.get_mut(me) {
                slot.alive = false;
            }
            shared.progress.notify_all();
            return;
        };

        // Queue wait is a property of the claim, not the outcome: a job
        // that goes on to crash still waited.
        shared.metrics.queue_wait_ms.observe_ms(queued);
        busy.set(1);

        // Simulate with the lock released: the daemon keeps serving
        // status/submit/stream requests while jobs run.
        let t0 = Instant::now();
        let outcome = run_spec(shared, &spec);
        let wall = t0.elapsed().as_secs_f64();
        busy.set(0);

        // Publish under the lock, but only if our claim token is still
        // current — a timed-out-and-requeued job's straggler result is
        // dropped here, which is what makes re-queue + retry free of
        // duplicate journal lines.
        let mut st = shared.state.lock().expect("serve state");
        let current = matches!(
            st.jobs.get(&hash).map(|e| &e.phase),
            Some(Phase::Running { worker, attempt: a, .. }) if *worker == me && *a == attempt
        );
        if !current {
            continue;
        }
        match outcome {
            Ok(result) => {
                // Record completion metrics before the row becomes
                // visible to streamers, so a client that just received
                // its last row never reads a snapshot missing it.
                let timing = JobTiming {
                    queue_secs: queued.as_secs_f64(),
                    sim_secs: wall,
                };
                shared.metrics.sim_ms.observe(timing.sim_ms());
                shared
                    .metrics
                    .job_total_ms
                    .observe(timing.queue_ms() + timing.sim_ms());
                shared.metrics.jobs_completed_simulated.inc();
                jobs_total.inc();
                let row = row_core(&spec, &result, wall, me, attempt, "simulated", &trace_id);
                finish_job(&mut st, hash, row);
                st.workers[me].jobs_done += 1;
                shared.progress.notify_all();
                drop(st);
                // Checkpoint outside the lock; a crash here costs one
                // re-simulation after restart, never a duplicate row.
                let tj = Instant::now();
                shared
                    .journal
                    .record(&spec, &result, timing, me, Some(&trace_id), None);
                shared.metrics.journal_ms.observe_ms(tj.elapsed());
                shared.spans.record(
                    &format!("{} {} [{trace_id}]", spec.trace, result.llc_name),
                    me,
                    t0,
                );
            }
            Err(error) => {
                eprintln!("serve: job {hash:016x} failed: {error}");
                requeue_or_fail(shared, &mut st, hash);
                shared.progress.notify_all();
            }
        }
    }
}

fn run_spec(shared: &Shared, spec: &JobSpec) -> Result<RunResult, String> {
    let workload = shared
        .registry
        .get(&spec.trace)
        .ok_or_else(|| format!("trace '{}' not in the registry", spec.trace))?
        .workload
        .clone();
    Ok(System::new(spec.cfg).run_with_warmup(&workload, spec.warmup, spec.insts))
}

/// Builds the ticket-agnostic result row for a terminal job (`ticket`
/// and `seq` are stamped per subscriber).
fn row_core(
    spec: &JobSpec,
    result: &RunResult,
    wall: f64,
    worker: usize,
    attempt: u32,
    source: &str,
    trace_id: &str,
) -> ResultRow {
    ResultRow {
        trace_id: trace_id.to_string(),
        ticket: 0,
        seq: 0,
        trace: spec.trace.clone(),
        llc: result.llc_name.to_string(),
        policy: spec.cfg.llc_policy.name().to_string(),
        hash: format!("{:016x}", spec.stable_hash()),
        ipc: result.ipc(),
        llc_hit_rate: result.llc.hit_rate(),
        comp_ratio: result.compression.mean_ratio(),
        instructions: result.instructions,
        wall_secs: wall,
        worker: worker as u64,
        attempt: u64::from(attempt),
        source: source.to_string(),
    }
}

/// Marks a job done and fans its row out to every subscribed ticket.
fn finish_job(st: &mut State, hash: u64, row: ResultRow) {
    let entry = st.jobs.get_mut(&hash).expect("finished job");
    entry.phase = Phase::Done;
    entry.row = Some(row.clone());
    let subscribers = entry.tickets.clone();
    for t in subscribers {
        push_row(st, t, &row);
    }
}

fn push_row(st: &mut State, ticket: u64, row: &ResultRow) {
    if let Some(t) = st.tickets.get_mut(&ticket) {
        let mut row = row.clone();
        row.ticket = ticket;
        row.seq = t.rows.len() as u64;
        t.rows.push(row);
    }
}

/// Re-queues a crashed/timed-out/failed job with backoff, or fails it
/// terminally once the retry budget is spent.
fn requeue_or_fail(shared: &Shared, st: &mut State, hash: u64) {
    let retries = shared.cfg.retries;
    let Some(entry) = st.jobs.get_mut(&hash) else {
        return;
    };
    if entry.attempts > retries {
        entry.phase = Phase::Failed;
        shared.metrics.jobs_failed.inc();
        let subscribers = entry.tickets.clone();
        for t in subscribers {
            if let Some(ticket) = st.tickets.get_mut(&t) {
                ticket.failed += 1;
            }
        }
    } else {
        st.retries += 1;
        shared.metrics.job_retries.inc();
        entry.phase = Phase::Pending {
            not_before: Some(Instant::now() + backoff(entry.attempts)),
            enqueued: Instant::now(),
        };
        st.queue.push_back(hash);
        shared.wake_workers.notify_all();
    }
}

/// The monitor: detects dead worker threads (re-queueing their claimed
/// jobs and spawning replacements), enforces the per-job timeout, and
/// exits once a drained shutdown completes.
fn monitor_loop(shared: &Arc<Shared>) {
    loop {
        std::thread::sleep(Duration::from_millis(25));
        let mut respawn = 0usize;
        let finished = {
            let mut st = shared.state.lock().expect("serve state");

            // Dead workers: a finished thread that never reached its
            // clean-exit marker panicked mid-job.
            let crashed: Vec<usize> = st
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && w.handle.as_ref().is_some_and(JoinHandle::is_finished))
                .map(|(i, _)| i)
                .collect();
            for w in crashed {
                let clean = st.workers[w].clean_exit.load(Ordering::SeqCst);
                st.workers[w].alive = false;
                if clean {
                    continue;
                }
                st.crashes += 1;
                shared.metrics.worker_crashes.inc();
                let orphans: Vec<u64> = st
                    .jobs
                    .iter()
                    .filter(
                        |(_, e)| matches!(e.phase, Phase::Running { worker, .. } if worker == w),
                    )
                    .map(|(&h, _)| h)
                    .collect();
                for hash in orphans {
                    requeue_or_fail(shared, &mut st, hash);
                }
                shared.progress.notify_all();
                if !st.shutting_down {
                    respawn += 1;
                }
            }

            // Hung jobs: past the timeout, re-queue; the straggler's
            // eventual publish fails its token check and is dropped.
            let now = Instant::now();
            let hung: Vec<u64> = st
                .jobs
                .iter()
                .filter(|(_, e)| {
                    matches!(e.phase, Phase::Running { since, .. } if now.duration_since(since) > shared.cfg.timeout)
                })
                .map(|(&h, _)| h)
                .collect();
            for hash in hung {
                shared.metrics.job_timeouts.inc();
                requeue_or_fail(shared, &mut st, hash);
                shared.progress.notify_all();
            }

            st.shutting_down
                && st
                    .jobs
                    .values()
                    .all(|e| matches!(e.phase, Phase::Done | Phase::Failed))
        };
        for _ in 0..respawn {
            spawn_worker(shared);
        }
        if finished {
            shared.wake_workers.notify_all();
            return;
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            if let Err(e) = handle_conn(&shared, stream) {
                // A client hanging up mid-stream is routine, not fatal.
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("serve: connection error: {e}");
                }
            }
        });
    }
}

/// The Prometheus exposition endpoint: a deliberately tiny HTTP/1.0
/// server — read the request line, answer `GET /metrics` with the
/// text-format registry snapshot, 404 anything else, close. One
/// request per connection, exactly like the protocol listener.
fn metrics_http_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let _ = serve_scrape(&shared, stream);
        });
    }
}

/// The longest request line either listener reads, newline included:
/// 1 MiB. A longer line is answered with an error and the connection is
/// closed, so a client that never sends a newline cannot grow daemon
/// memory without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Reads one request line of at most [`MAX_FRAME_BYTES`] bytes, or
/// `None` when the line is longer.
fn read_frame(stream: &TcpStream) -> std::io::Result<Option<String>> {
    let mut frame = Vec::new();
    BufReader::new(stream.take(MAX_FRAME_BYTES as u64 + 1)).read_until(b'\n', &mut frame)?;
    if frame.len() > MAX_FRAME_BYTES {
        return Ok(None);
    }
    String::from_utf8(frame)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

fn serve_scrape(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    let line = read_frame(&stream)?;
    let mut out = BufWriter::new(stream);
    let Some(line) = line else {
        write!(out, "HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n")?;
        return out.flush();
    };
    let target = line.split_whitespace().nth(1).unwrap_or("");
    if line.starts_with("GET ") && target == "/metrics" {
        let body = bv_metrics::render_exposition(&metrics_snapshot(shared));
        write!(
            out,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
    } else {
        write!(out, "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n")?;
    }
    out.flush()
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    let tenant = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.ip().to_string());
    let line = read_frame(&stream)?;
    let mut out = BufWriter::new(stream);
    let reply = |out: &mut BufWriter<TcpStream>, resp: &Response| -> std::io::Result<()> {
        writeln!(out, "{}", resp.to_line())?;
        out.flush()
    };
    let Some(line) = line else {
        let error = format!("request line exceeds {MAX_FRAME_BYTES} bytes");
        return reply(&mut out, &Response::Error { error });
    };
    let request = match Request::parse_line(&line) {
        Ok(r) => r,
        Err(error) => return reply(&mut out, &Response::Error { error }),
    };
    shared.metrics.client_request(&tenant, request.kind());
    match request {
        Request::Submit { grid, wait } => match submit(shared, &grid) {
            Ok((ticket, resp)) => {
                reply(&mut out, &resp)?;
                if wait {
                    stream_ticket(shared, &mut out, ticket)?;
                }
                Ok(())
            }
            Err(error) => reply(&mut out, &Response::Error { error }),
        },
        Request::Status => reply(&mut out, &Response::Status(status(shared))),
        Request::Metrics => reply(&mut out, &Response::Metrics(metrics_snapshot(shared))),
        Request::Stream { ticket } => {
            let known = shared
                .state
                .lock()
                .expect("serve state")
                .tickets
                .contains_key(&ticket);
            if known {
                stream_ticket(shared, &mut out, ticket)
            } else {
                reply(
                    &mut out,
                    &Response::Error {
                        error: format!("unknown ticket {ticket}"),
                    },
                )
            }
        }
        Request::Cancel { ticket } => match cancel(shared, ticket) {
            Ok(info) => reply(&mut out, &Response::Ok { info }),
            Err(error) => reply(&mut out, &Response::Error { error }),
        },
        Request::KillWorker { worker } => {
            let worker = worker as usize;
            let mut st = shared.state.lock().expect("serve state");
            if st.workers.get(worker).is_none_or(|w| !w.alive) {
                let error = format!("no live worker {worker}");
                drop(st);
                reply(&mut out, &Response::Error { error })
            } else {
                st.kill_armed.push(worker);
                drop(st);
                reply(
                    &mut out,
                    &Response::Ok {
                        info: format!("worker {worker} armed to die on its next claim"),
                    },
                )
            }
        }
        Request::Shutdown => {
            drain(shared);
            reply(
                &mut out,
                &Response::Ok {
                    info: "drained; daemon exiting".to_string(),
                },
            )?;
            // Unblock the accept loops so the listener threads exit.
            shared.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.local_addr);
            if let Some(addr) = shared.metrics_addr {
                let _ = TcpStream::connect(addr);
            }
            Ok(())
        }
    }
}

/// Plans a grid and folds it into the job table: adopt, journal-load, or
/// enqueue each configuration. Returns the new ticket and its ack.
fn submit(shared: &Shared, grid: &SweepGrid) -> Result<(u64, Response), String> {
    let specs = grid.plan()?;
    for spec in &specs {
        if shared.registry.get(&spec.trace).is_none() {
            return Err(format!("trace '{}' not in the registry", spec.trace));
        }
    }
    let mut st = shared.state.lock().expect("serve state");
    if st.shutting_down {
        return Err("daemon is shutting down".to_string());
    }
    let ticket = st.next_ticket;
    st.next_ticket += 1;
    shared.metrics.tickets_opened.inc();
    st.tickets.insert(
        ticket,
        Ticket {
            jobs: specs.len() as u64,
            merged: 0,
            failed: 0,
            canceled: false,
            rows: Vec::new(),
        },
    );
    let (mut fresh, mut journaled, mut merged) = (0u64, 0u64, 0u64);
    for spec in specs {
        let hash = spec.stable_hash();
        let adopted = st.jobs.get_mut(&hash).map(|entry| {
            entry.tickets.push(ticket);
            match entry.phase {
                Phase::Done => (entry.row.clone(), false),
                Phase::Failed => (None, true),
                Phase::Pending { .. } | Phase::Running { .. } => (None, false),
            }
        });
        if let Some((done_row, failed_now)) = adopted {
            merged += 1;
            if let Some(row) = done_row {
                push_row(&mut st, ticket, &row);
            }
            if failed_now {
                st.tickets.get_mut(&ticket).expect("new ticket").failed += 1;
            }
        } else if let Some(result) = shared.journal.load(&spec) {
            let tid = mint_trace_id(&mut st, hash);
            let row = row_core(&spec, &result, 0.0, 0, 0, "journal", &tid);
            st.jobs.insert(
                hash,
                JobEntry {
                    spec,
                    phase: Phase::Done,
                    attempts: 0,
                    tickets: vec![ticket],
                    row: Some(row.clone()),
                    trace_id: tid,
                },
            );
            push_row(&mut st, ticket, &row);
            shared.metrics.jobs_completed_journal.inc();
            journaled += 1;
        } else {
            let tid = mint_trace_id(&mut st, hash);
            st.jobs.insert(
                hash,
                JobEntry {
                    spec,
                    phase: Phase::Pending {
                        not_before: None,
                        enqueued: Instant::now(),
                    },
                    attempts: 0,
                    tickets: vec![ticket],
                    row: None,
                    trace_id: tid,
                },
            );
            st.queue.push_back(hash);
            fresh += 1;
        }
    }
    st.tickets.get_mut(&ticket).expect("new ticket").merged = merged;
    shared.metrics.jobs_submitted_fresh.add(fresh);
    shared.metrics.jobs_submitted_journal.add(journaled);
    shared.metrics.jobs_submitted_merged.add(merged);
    let jobs = fresh + journaled + merged;
    drop(st);
    shared.wake_workers.notify_all();
    shared.progress.notify_all();
    Ok((
        ticket,
        Response::Submitted {
            ticket,
            jobs,
            fresh,
            journaled,
            merged,
        },
    ))
}

fn ticket_done(ticket: u64, t: &Ticket) -> Option<DoneSummary> {
    let terminal = t.rows.len() as u64 + t.failed >= t.jobs;
    if !(terminal || t.canceled) {
        return None;
    }
    let simulated = t.rows.iter().filter(|r| r.source == "simulated").count() as u64;
    let journaled = t.rows.iter().filter(|r| r.source == "journal").count() as u64;
    Some(DoneSummary {
        ticket,
        jobs: t.jobs,
        simulated,
        journaled,
        merged: t.merged,
        failed: t.failed,
        canceled: t.canceled,
    })
}

/// Streams a ticket's rows (past and future) followed by its `done`
/// line, blocking on the progress condvar between completions.
fn stream_ticket(
    shared: &Shared,
    out: &mut BufWriter<TcpStream>,
    ticket: u64,
) -> std::io::Result<()> {
    let mut cursor = 0usize;
    loop {
        let (batch, done) = {
            let mut st = shared.state.lock().expect("serve state");
            loop {
                let Some(t) = st.tickets.get(&ticket) else {
                    drop(st);
                    writeln!(
                        out,
                        "{}",
                        Response::Error {
                            error: format!("ticket {ticket} disappeared"),
                        }
                        .to_line()
                    )?;
                    return out.flush();
                };
                if cursor < t.rows.len() {
                    break (t.rows[cursor..].to_vec(), None);
                }
                if let Some(done) = ticket_done(ticket, t) {
                    break (Vec::new(), Some(done));
                }
                let (guard, _) = shared
                    .progress
                    .wait_timeout(st, Duration::from_millis(200))
                    .expect("serve state");
                st = guard;
            }
        };
        for row in batch {
            writeln!(out, "{}", Response::Result(row).to_line())?;
            shared.metrics.rows_streamed.inc();
            cursor += 1;
        }
        out.flush()?;
        if let Some(done) = done {
            writeln!(out, "{}", Response::Done(done).to_line())?;
            return out.flush();
        }
    }
}

/// Cancels a ticket: pending jobs wanted by no other live ticket are
/// dropped from the table (their queue slots go stale); running jobs
/// finish and are journaled as usual.
fn cancel(shared: &Shared, ticket: u64) -> Result<String, String> {
    let mut st = shared.state.lock().expect("serve state");
    {
        let t = st
            .tickets
            .get_mut(&ticket)
            .ok_or_else(|| format!("unknown ticket {ticket}"))?;
        t.canceled = true;
    }
    let canceled_tickets: Vec<u64> = st
        .tickets
        .iter()
        .filter(|(_, t)| t.canceled)
        .map(|(&id, _)| id)
        .collect();
    let droppable: Vec<u64> = st
        .jobs
        .iter()
        .filter(|(_, e)| {
            matches!(e.phase, Phase::Pending { .. })
                && e.tickets.iter().all(|t| canceled_tickets.contains(t))
        })
        .map(|(&h, _)| h)
        .collect();
    let dropped = droppable.len();
    for hash in &droppable {
        st.jobs.remove(hash);
    }
    drop(st);
    shared.progress.notify_all();
    Ok(format!(
        "ticket {ticket} canceled, {dropped} pending job(s) dropped"
    ))
}

fn status(shared: &Shared) -> StatusInfo {
    let st = shared.state.lock().expect("serve state");
    let mut pending = 0u64;
    let mut running = 0u64;
    let mut done = 0u64;
    let mut failed = 0u64;
    for e in st.jobs.values() {
        match e.phase {
            Phase::Pending { .. } => pending += 1,
            Phase::Running { .. } => running += 1,
            Phase::Done => done += 1,
            Phase::Failed => failed += 1,
        }
    }
    drop(st);
    // Percentiles come from the live job_total_ms histogram; with
    // metrics disabled (or before any completion) they read 0.
    let snap = shared.metrics.registry.snapshot();
    let pct = |q: f64| {
        snap.histogram("job_total_ms")
            .and_then(|h| h.hist.percentile(q))
            .unwrap_or(0)
    };
    let st = shared.state.lock().expect("serve state");
    StatusInfo {
        workers: st.workers.len() as u64,
        alive: st.workers.iter().filter(|w| w.alive).count() as u64,
        pending,
        running,
        done,
        failed,
        tickets: st.next_ticket - 1,
        crashes: st.crashes,
        retries: st.retries,
        per_worker_done: st.workers.iter().map(|w| w.jobs_done).collect(),
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
    }
}

/// Takes a registry snapshot with the scheduler gauges (queue depth,
/// running jobs, live workers) refreshed from the job table first —
/// they describe current state, so they are computed at observation
/// time rather than maintained transitionally on every queue edge.
fn metrics_snapshot(shared: &Shared) -> Snapshot {
    {
        let st = shared.state.lock().expect("serve state");
        let pending = st
            .jobs
            .values()
            .filter(|e| matches!(e.phase, Phase::Pending { .. }))
            .count() as u64;
        let running = st
            .jobs
            .values()
            .filter(|e| matches!(e.phase, Phase::Running { .. }))
            .count() as u64;
        let alive = st.workers.iter().filter(|w| w.alive).count() as u64;
        shared.metrics.queue_depth.set(pending);
        shared.metrics.jobs_running.set(running);
        shared.metrics.workers_alive.set(alive);
    }
    shared.metrics.registry.snapshot()
}

/// The graceful drain: refuse new submissions, let workers finish every
/// queued job, and return once the job table is fully terminal.
fn drain(shared: &Shared) {
    let mut st: MutexGuard<'_, State> = shared.state.lock().expect("serve state");
    st.shutting_down = true;
    shared.wake_workers.notify_all();
    while !st
        .jobs
        .values()
        .all(|e| matches!(e.phase, Phase::Done | Phase::Failed))
    {
        let (guard, _) = shared
            .progress
            .wait_timeout(st, Duration::from_millis(200))
            .expect("serve state");
        st = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(50));
        assert_eq!(backoff(1), Duration::from_millis(100));
        assert_eq!(backoff(3), Duration::from_millis(400));
        assert_eq!(backoff(10), Duration::from_millis(2_000));
        assert_eq!(backoff(u32::MAX), Duration::from_millis(2_000));
    }

    #[test]
    fn claim_skips_stale_and_gated_entries() {
        let mut st = State::default();
        let spec = JobSpec::new(
            "t",
            bv_sim::SimConfig::single_thread(bv_sim::LlcKind::Uncompressed),
            0,
            100,
        );
        let now = Instant::now();
        // 1: gated into the future; 2: stale (no entry); 3: runnable.
        st.jobs.insert(
            1,
            JobEntry {
                spec: spec.clone(),
                phase: Phase::Pending {
                    not_before: Some(now + Duration::from_secs(60)),
                    enqueued: now,
                },
                attempts: 1,
                tickets: vec![],
                row: None,
                trace_id: "000001-00000001".to_string(),
            },
        );
        st.jobs.insert(
            3,
            JobEntry {
                spec,
                phase: Phase::Pending {
                    not_before: None,
                    enqueued: now,
                },
                attempts: 0,
                tickets: vec![],
                row: None,
                trace_id: "000002-00000003".to_string(),
            },
        );
        st.queue.extend([1, 2, 3]);
        match claim_next(&mut st, now) {
            Claim::Job(h) => assert_eq!(h, 3),
            _ => panic!("expected the runnable job"),
        }
        // Only the gated job remains queued; claiming again reports how
        // long to wait for it.
        match claim_next(&mut st, now) {
            Claim::Wait(d) => assert!(d <= Duration::from_secs(60)),
            _ => panic!("expected a backoff wait"),
        }
        assert_eq!(st.queue.len(), 1);
    }
}
