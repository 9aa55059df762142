//! `kv-mix`: single-thread replays of the `web` (95% gets, small values)
//! and `analytics` (80% gets, large float values) request profiles
//! through all three kv organizations at the `KvConfig` default budget.
//! Each round draws one stream seed per profile from the benchmark seed;
//! the three organizations replay the same stream, so the kv Base-Victim
//! guarantee can be checked on every round.
//!
//! Every config is replayed twice. `run_kv`'s loop, rebuilt from public
//! calls, times every batch of [`BATCH`] requests for `op_ms_*`; then
//! `run_kv` itself is timed whole for `throughput_per_s`, and the two
//! must agree on the statistics. `web` replays three times as many
//! measured requests as `analytics`, so the median batch is a `web`
//! batch and the tail an `analytics` batch, whatever the seed.

use crate::checks;
use crate::util::{median, ns_between, ratio, tail, Rng};
use crate::{Args, Run};
use bv_kvcache::{compress_value, run_kv, KvCache, KvConfig, KvOrgKind, KvStats, ValueMeta};
use bv_trace::request::{KvOp, RequestProfile, RequestStream};
use std::cell::Cell;
use std::time::Instant;

/// Requests per timed batch. An `analytics` batch takes about 0.1 s, so
/// a host scheduling stall of a few milliseconds moves it by a few
/// percent; at 4096 requests stalls made up the top dozen batches of a
/// run and decided `op_ms_tail`.
const BATCH: u64 = 16_384;

fn profiles() -> [RequestProfile; 2] {
    [RequestProfile::web(), RequestProfile::analytics()]
}

/// One config's replays: `run_kv`'s statistics and host time, and the
/// batch loop's statistics, host time and batch latencies.
struct Replay {
    cfg: KvConfig,
    stats: KvStats,
    ms: f64,
    batch_stats: KvStats,
    batch_loop_ms: f64,
    batch_ms: Vec<f64>,
}

/// A config with its tier and request stream, ready for its first
/// request.
type Ready = (KvConfig, KvCache, RequestStream);

/// The replays of round `round`, in order.
fn round_configs(seed: u64, round: u64) -> Vec<KvConfig> {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut out = Vec::new();
    for profile in profiles() {
        let stream_seed = rng.next();
        for org in KvOrgKind::ALL {
            let mut cfg = KvConfig::new(org, profile.clone());
            cfg.seed = stream_seed;
            if profile.name == "analytics" {
                cfg.requests /= 3;
            }
            out.push(cfg);
        }
    }
    out
}

/// Tier allocation and stream construction for round `round`.
fn prepare(seed: u64, round: u64) -> Vec<Ready> {
    round_configs(seed, round)
        .into_iter()
        .map(|c| {
            let tier = c.org.build(c.budget);
            let stream = RequestStream::new(c.profile.clone(), c.seed);
            (c, tier, stream)
        })
        .collect()
}

/// Whole rounds, starting with the prepared round 0, until `seconds`
/// have passed.
fn untraced(seed: u64, seconds: f64, first: Vec<Ready>) -> Vec<Replay> {
    let t0 = Instant::now();
    let mut replays = Vec::new();
    let mut next = Some(first);
    let mut round = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        for (cfg, tier, stream) in next.take().unwrap_or_else(|| prepare(seed, round)) {
            let t = Instant::now();
            let (batch_stats, batch_ms) = replay(&cfg, tier, stream);
            let batch_loop_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let stats = run_kv(&cfg).stats;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            replays.push(Replay {
                cfg,
                stats,
                ms,
                batch_stats,
                batch_loop_ms,
                batch_ms,
            });
        }
        round += 1;
    }
    replays
}

/// `run_kv`'s loop, timing each batch of [`BATCH`] requests. Returns
/// the measured-phase statistics and the batch latencies in ms.
fn replay(cfg: &KvConfig, mut tier: KvCache, mut stream: RequestStream) -> (KvStats, Vec<f64>) {
    let profile = &cfg.profile;
    let mut batch_ms = Vec::new();
    let mut t = Instant::now();
    let mut in_batch = 0;
    for (i, phase) in [cfg.warmup, cfg.requests].into_iter().enumerate() {
        for req in (&mut stream).take(phase as usize) {
            let fetch = || compress_value(req.key, profile.value_spec(req.key));
            match req.op {
                KvOp::Get => {
                    tier.get(req.key, fetch);
                }
                KvOp::Put => tier.put(req.key, fetch),
            }
            in_batch += 1;
            if in_batch == BATCH {
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                t = Instant::now();
                in_batch = 0;
            }
        }
        if i == 0 {
            tier.reset_stats();
        }
    }
    (*tier.stats(), batch_ms)
}

/// Per-layer totals of traced kv replays.
#[derive(Default)]
struct KvTotals {
    wall_ns: u64,
    requests: u64,
    stream_ns: u64,
    get_ns: u64,
    gets: u64,
    put_ns: u64,
    puts: u64,
    compress_ns: u64,
    compress_calls: u64,
    /// The fetch closure's own bookkeeping, inside get/put but in no
    /// layer.
    harness_ns: u64,
    hits: u64,
    victim_hits: u64,
    measured_gets: u64,
    /// Get misses over warmup and measured requests.
    get_misses: u64,
    logical_bytes: u64,
    budget: u64,
}

/// `run_kv`'s loop rebuilt from public calls, with the request stream,
/// the tier's get/put, and the compression fetch each timed on their
/// own; the loop's bookkeeping is left unattributed. Returns the
/// measured-phase statistics, which must equal `run_kv`'s.
fn replay_traced(cfg: &KvConfig, t: &mut KvTotals) -> KvStats {
    let mut tier = cfg.org.build(cfg.budget);
    let mut stream = RequestStream::new(cfg.profile.clone(), cfg.seed);
    let profile = &cfg.profile;
    let compress_ns = Cell::new(0u64);
    let compress_calls = Cell::new(0u64);
    let harness_ns = Cell::new(0u64);
    let fetch_for = |key: u64| {
        let (compress_ns, compress_calls, harness_ns) =
            (&compress_ns, &compress_calls, &harness_ns);
        move || -> ValueMeta {
            let a = Instant::now();
            let v = compress_value(key, profile.value_spec(key));
            let b = Instant::now();
            compress_ns.set(compress_ns.get() + ns_between(a, b));
            compress_calls.set(compress_calls.get() + 1);
            harness_ns.set(harness_ns.get() + ns_between(b, Instant::now()));
            v
        }
    };
    let start = Instant::now();
    for (i, phase) in [cfg.warmup, cfg.requests].into_iter().enumerate() {
        for _ in 0..phase {
            let t0 = Instant::now();
            let req = stream.next().expect("request streams are endless");
            let t1 = Instant::now();
            let before = compress_ns.get() + harness_ns.get();
            let hit = match req.op {
                KvOp::Get => Some(tier.get(req.key, fetch_for(req.key)).is_hit()),
                KvOp::Put => {
                    tier.put(req.key, fetch_for(req.key));
                    None
                }
            };
            let t2 = Instant::now();
            t.stream_ns += ns_between(t0, t1);
            let inner = compress_ns.get() + harness_ns.get() - before;
            let self_ns = ns_between(t1, t2).saturating_sub(inner);
            if let Some(hit) = hit {
                t.get_misses += u64::from(!hit);
                t.get_ns += self_ns;
                t.gets += 1;
            } else {
                t.put_ns += self_ns;
                t.puts += 1;
            }
        }
        if i == 0 {
            tier.reset_stats();
        }
    }
    t.wall_ns += ns_between(start, Instant::now());
    t.harness_ns += harness_ns.get();
    t.requests += cfg.warmup + cfg.requests;
    t.compress_ns += compress_ns.get();
    t.compress_calls += compress_calls.get();
    let s = *tier.stats();
    t.hits += s.hits();
    t.victim_hits += s.victim_hits;
    t.measured_gets += s.gets;
    t.logical_bytes += tier.occupancy().logical_bytes;
    t.budget += tier.budget();
    s
}

pub fn run(args: &Args, run: &mut Run) {
    let first = prepare(args.seed, 0);
    run.first_op();
    if args.setup_only {
        return;
    }

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let replays = untraced(args.seed, window, first);
    let measured: u64 = replays.iter().map(|r| r.cfg.requests).sum();
    let wall: f64 = replays.iter().map(|r| r.ms / 1e3).sum();
    let lat: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.batch_ms.iter().copied())
        .collect();
    run.m
        .set("throughput_per_s", ratio(measured as f64, wall), "1/s");
    run.m.set("op_ms_p50", median(&lat), "ms");
    let (t, pct, n) = tail(&lat);
    run.m.set("op_ms_tail", t, "ms");
    run.note(format!(
        "kv_requests_per_s {:.0}; batch latency tail is p{pct:.1} of {n} batches of {BATCH} requests",
        ratio(measured as f64, wall)
    ));

    // Every `run_kv` call is an operation; a base-victim replay fails
    // when its baseline hits differ from the uncompressed hits on its
    // stream. The batch loop must reproduce `run_kv`.
    for (i, r) in replays.iter().enumerate() {
        if r.batch_stats != r.stats {
            run.fidelity(format!(
                "kv {} {}: batch loop statistics differ from run_kv",
                r.cfg.profile.name,
                r.cfg.org.name()
            ));
        }
        let verdict = if r.cfg.org == KvOrgKind::BaseVictim {
            replays[..i]
                .iter()
                .rev()
                .find(|u| u.cfg.org == KvOrgKind::Uncompressed && u.cfg.seed == r.cfg.seed)
                .map_or(
                    Err("no uncompressed replay of the same stream".to_string()),
                    |u| checks::kv_pair(&u.stats, &r.stats),
                )
        } else {
            Ok(())
        };
        run.op(verdict.map_err(|e| format!("kv {} {}: {e}", r.cfg.profile.name, r.cfg.org.name())));
    }
    if let Some(r) = replays.iter().find(|r| r.cfg.org == KvOrgKind::BaseVictim) {
        if let Some(u) = replays
            .iter()
            .find(|u| u.cfg.org == KvOrgKind::Uncompressed && u.cfg.seed == r.cfg.seed)
        {
            let mut bad = r.stats;
            bad.base_hits += 1;
            run.selftest("kv guarantee", checks::kv_pair(&u.stats, &bad));
        }
    }

    if !args.trace {
        return;
    }
    // Traced half: replay the same configs with spans, checking the
    // traced and the untraced replay against `run_kv`.
    let t0 = Instant::now();
    let mut t = KvTotals::default();
    let mut reference_ms = 0.0;
    for (i, r) in replays.iter().enumerate() {
        if i >= 6 && t0.elapsed().as_secs_f64() >= window {
            break;
        }
        if replay_traced(&r.cfg, &mut t) != r.stats {
            run.fidelity(format!(
                "kv {} {}: replay statistics differ from run_kv",
                r.cfg.profile.name,
                r.cfg.org.name()
            ));
        }
        reference_ms += r.batch_loop_ms;
    }
    let m = &mut run.m;
    let wall_ns = t.wall_ns as f64;
    let kv_self = (t.get_ns + t.put_ns) as f64;
    m.set("kvcache.requests", t.requests as f64, "count");
    m.set(
        "kvcache.get_ns_per_op",
        ratio(t.get_ns as f64, t.gets as f64),
        "ns",
    );
    m.set(
        "kvcache.put_ns_per_op",
        ratio(t.put_ns as f64, t.puts as f64),
        "ns",
    );
    m.set(
        "kvcache.stream_ns_per_request",
        ratio(t.stream_ns as f64, t.requests as f64),
        "ns",
    );
    m.set(
        "kvcache.compress_ns_per_call",
        ratio(t.compress_ns as f64, t.compress_calls as f64),
        "ns",
    );
    m.set(
        "kvcache.compress_calls_per_miss",
        ratio(t.compress_calls as f64, (t.get_misses + t.puts) as f64),
        "ratio",
    );
    m.set(
        "kvcache.hit_ratio",
        ratio(t.hits as f64, t.measured_gets as f64),
        "ratio",
    );
    m.set(
        "kvcache.victim_hit_ratio",
        ratio(t.victim_hits as f64, t.measured_gets as f64),
        "ratio",
    );
    m.set(
        "kvcache.bytes_effective",
        ratio(t.logical_bytes as f64, t.budget as f64),
        "ratio",
    );
    m.set("compress.calls", t.compress_calls as f64, "count");
    m.set(
        "compress.ns_per_call",
        ratio(t.compress_ns as f64, t.compress_calls as f64),
        "ns",
    );
    m.set(
        "compress.share",
        ratio(t.compress_ns as f64, wall_ns),
        "ratio",
    );
    let layer_sum = t.stream_ns as f64 + kv_self + t.compress_ns as f64;
    m.set("bench.layer_sum_ratio", ratio(layer_sum, wall_ns), "ratio");
    let harness = t.harness_ns as f64;
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (ratio(wall_ns, reference_ms * 1e6) - 1.0),
        "%",
    );
    run.table_line(format!(
        "layer             self_ms     share   ({:.1} ms traced kv wall)",
        wall_ns / 1e6
    ));
    for (name, ns) in [
        ("request stream", t.stream_ns as f64),
        ("kvcache", kv_self),
        ("compress", t.compress_ns as f64),
        ("sum", layer_sum),
        ("harness", harness),
        ("unaccounted", wall_ns - layer_sum - harness),
    ] {
        run.table_line(format!(
            "{name:<16} {:>9.1} {:>8.3}",
            ns / 1e6,
            ratio(ns, wall_ns)
        ));
    }
}
