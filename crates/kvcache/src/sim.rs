//! The request-replay driver: profile + seed + budget in,
//! counters / telemetry / events out.
//!
//! [`run_kv`] replays a [`RequestStream`] against one organization and
//! returns the measured-phase [`KvStats`] plus end-of-run occupancy.
//! [`run_kv_sampled`] additionally drives a [`KvTelemetry`] sampler
//! whose epoch clock is *committed requests* (the kv analogue of the
//! LLC's committed-instruction clock — deterministic, never wall time),
//! and [`run_kv_traced`] captures per-decision [`CacheEvent`]s through
//! any [`EventSink`].
//!
//! The tiers still fetch a value on every miss and put, exactly as a
//! real software cache tier does, but a value's compressed size is pure
//! in its key: each replay answers those fetches from one
//! [`ValueSizes`] table, so the BDI kernel runs at most once per
//! distinct key per replay. Hits never fetch at all.

use std::collections::BTreeMap;

use bv_events::{CacheEvent, EventSink, NoEventSink};
use bv_telemetry::{ColumnId, Log2Histogram, TelemetryReport, TimeSeries};
use bv_trace::request::{KvOp, RequestProfile, RequestStream};

use crate::org::{KvCacheWith, KvOccupancy, KvOrgKind, KvStats};
use crate::value::ValueSizes;

/// Default sampling period: one epoch per 10k requests.
pub const DEFAULT_EPOCH_REQUESTS: u64 = 10_000;

/// One kv replay, fully specified.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Which organization to build.
    pub org: KvOrgKind,
    /// The request-traffic shape.
    pub profile: RequestProfile,
    /// Tier byte budget.
    pub budget: u64,
    /// Measured requests.
    pub requests: u64,
    /// Warmup requests (replayed, then counters reset).
    pub warmup: u64,
    /// Stream seed.
    pub seed: u64,
}

impl KvConfig {
    /// A sensible default around a profile: 1 MiB budget, 50k warmup,
    /// 150k measured requests, seed 42.
    #[must_use]
    pub fn new(org: KvOrgKind, profile: RequestProfile) -> KvConfig {
        KvConfig {
            org,
            profile,
            budget: 1 << 20,
            requests: 150_000,
            warmup: 50_000,
            seed: 42,
        }
    }
}

/// What one replay produced.
#[derive(Clone, Debug)]
pub struct KvRunResult {
    /// Organization replayed.
    pub org: KvOrgKind,
    /// Profile name.
    pub profile: String,
    /// Tier byte budget.
    pub budget: u64,
    /// Measured requests.
    pub requests: u64,
    /// Warmup requests.
    pub warmup: u64,
    /// Stream seed.
    pub seed: u64,
    /// Measured-phase counters.
    pub stats: KvStats,
    /// End-of-run occupancy.
    pub occupancy: KvOccupancy,
}

impl KvRunResult {
    /// Measured-phase get hit rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Logical bytes served per physical budget byte at end of run
    /// (the "bytes-effective" expansion; 1.0 for a full uncompressed
    /// tier).
    #[must_use]
    pub fn bytes_effective(&self) -> f64 {
        if self.budget == 0 {
            0.0
        } else {
            self.occupancy.logical_bytes as f64 / self.budget as f64
        }
    }
}

/// Replays the stream untraced and unsampled.
#[must_use]
pub fn run_kv(cfg: &KvConfig) -> KvRunResult {
    let (result, _) = drive(cfg, &mut ValueSizes::new(&cfg.profile), NoEventSink, None);
    result
}

/// Replays the stream with an epoch sampler attached.
#[must_use]
pub fn run_kv_sampled(cfg: &KvConfig, telemetry: &mut KvTelemetry) -> KvRunResult {
    let sizes = &mut ValueSizes::new(&cfg.profile);
    let (result, _) = drive(cfg, sizes, NoEventSink, Some(telemetry));
    result
}

/// Replays the stream through an event sink; returns the retained
/// events (oldest first) and how many the sink overwrote.
#[must_use]
pub fn run_kv_traced<S: EventSink>(cfg: &KvConfig, sink: S) -> (KvRunResult, Vec<CacheEvent>, u64) {
    let (result, mut tier) = drive(cfg, &mut ValueSizes::new(&cfg.profile), sink, None);
    let dropped = tier.events_dropped();
    (result, tier.drain_events(), dropped)
}

/// Replays `cfg`, answering the tier's fetches from `sizes`.
fn drive<S: EventSink>(
    cfg: &KvConfig,
    sizes: &mut ValueSizes,
    sink: S,
    mut telemetry: Option<&mut KvTelemetry>,
) -> (KvRunResult, KvCacheWith<S>) {
    let mut tier = cfg.org.build_traced(cfg.budget, sink);
    let mut stream = RequestStream::new(cfg.profile.clone(), cfg.seed);

    for req in (&mut stream).take(cfg.warmup as usize) {
        apply(&mut tier, sizes, req.key, req.op);
    }
    tier.reset_stats();

    if let Some(tel) = telemetry.as_deref_mut() {
        tel.begin(&tier);
    }
    let mut issued = 0u64;
    for req in (&mut stream).take(cfg.requests as usize) {
        apply(&mut tier, sizes, req.key, req.op);
        issued += 1;
        if let Some(tel) = telemetry.as_deref_mut() {
            if issued.is_multiple_of(tel.epoch_requests) {
                tel.sample(issued, &tier);
            }
        }
    }
    if let Some(tel) = telemetry {
        tel.finish(issued, &tier);
    }

    let result = KvRunResult {
        org: cfg.org,
        profile: cfg.profile.name.to_string(),
        budget: cfg.budget,
        requests: cfg.requests,
        warmup: cfg.warmup,
        seed: cfg.seed,
        stats: *tier.stats(),
        occupancy: tier.occupancy(),
    };
    (result, tier)
}

fn apply<S: EventSink>(tier: &mut KvCacheWith<S>, sizes: &mut ValueSizes, key: u64, op: KvOp) {
    let fetch = || sizes.get(key);
    match op {
        KvOp::Get => {
            tier.get(key, fetch);
        }
        KvOp::Put => tier.put(key, fetch),
    }
}

/// The kv epoch sampler: one row per `epoch_requests` measured
/// requests, plus whole-run counters and two epoch histograms, all
/// feeding the standard `bvsim-telemetry-v1` sink.
///
/// The report's `epoch_insts` field carries the request period and the
/// meta map records `epoch_unit = requests`, so readers can tell the
/// clock apart from the LLC samplers'.
///
/// # Examples
///
/// ```
/// use bv_kvcache::{run_kv_sampled, KvConfig, KvOrgKind, KvTelemetry};
/// use bv_trace::request::RequestProfile;
///
/// let mut cfg = KvConfig::new(KvOrgKind::BaseVictim, RequestProfile::web());
/// cfg.requests = 30_000;
/// cfg.warmup = 10_000;
/// let mut tel = KvTelemetry::new(10_000).with_meta("dist", "web");
/// let result = run_kv_sampled(&cfg, &mut tel);
/// let report = tel.into_report();
/// assert_eq!(report.series.rows(), 3);
/// assert!(result.hit_rate() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct KvTelemetry {
    epoch_requests: u64,
    meta: BTreeMap<String, String>,
    series: TimeSeries,
    cols: KvColumns,
    prev: KvStats,
    last_sampled: u64,
    epoch_misses: Log2Histogram,
    epoch_victim_hits: Log2Histogram,
    counters: Vec<(String, u64)>,
}

#[derive(Clone, Debug)]
struct KvColumns {
    requests: ColumnId,
    hit_rate: ColumnId,
    gets: ColumnId,
    hits: ColumnId,
    victim_hits: ColumnId,
    misses: ColumnId,
    puts: ColumnId,
    evictions: ColumnId,
    victim_inserts: ColumnId,
    resident_bytes: ColumnId,
    logical_bytes: ColumnId,
    victim_bytes: ColumnId,
    entries: ColumnId,
    bytes_effective: ColumnId,
    comp_ratio: ColumnId,
}

impl KvTelemetry {
    /// Creates a sampler that fires every `epoch_requests` measured
    /// requests ([`DEFAULT_EPOCH_REQUESTS`] is the CLI default).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_requests` is zero.
    #[must_use]
    pub fn new(epoch_requests: u64) -> KvTelemetry {
        assert!(epoch_requests > 0, "epoch must be at least one request");
        let mut series = TimeSeries::new();
        let cols = KvColumns {
            requests: series.u64_column("requests"),
            hit_rate: series.f64_column("hit_rate"),
            gets: series.u64_column("gets"),
            hits: series.u64_column("hits"),
            victim_hits: series.u64_column("victim_hits"),
            misses: series.u64_column("misses"),
            puts: series.u64_column("puts"),
            evictions: series.u64_column("evictions"),
            victim_inserts: series.u64_column("victim_inserts"),
            resident_bytes: series.u64_column("resident_bytes"),
            logical_bytes: series.u64_column("logical_bytes"),
            victim_bytes: series.u64_column("victim_bytes"),
            entries: series.u64_column("entries"),
            bytes_effective: series.f64_column("bytes_effective"),
            comp_ratio: series.f64_column("comp_ratio"),
        };
        let mut meta = BTreeMap::new();
        meta.insert("epoch_unit".to_string(), "requests".to_string());
        KvTelemetry {
            epoch_requests,
            meta,
            series,
            cols,
            prev: KvStats::default(),
            last_sampled: 0,
            epoch_misses: Log2Histogram::new(),
            epoch_victim_hits: Log2Histogram::new(),
            counters: Vec::new(),
        }
    }

    /// Attaches a run-identity key (`org`, `dist`, ...) to the report
    /// header.
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: &str) -> KvTelemetry {
        self.meta.insert(key.to_string(), value.to_string());
        self
    }

    /// The configured sampling period.
    #[must_use]
    pub fn epoch_requests(&self) -> u64 {
        self.epoch_requests
    }

    fn begin<S: EventSink>(&mut self, tier: &KvCacheWith<S>) {
        self.prev = *tier.stats();
        self.last_sampled = 0;
    }

    fn sample<S: EventSink>(&mut self, issued: u64, tier: &KvCacheWith<S>) {
        let cur = *tier.stats();
        let occ = tier.occupancy();
        let d_gets = cur.gets - self.prev.gets;
        let d_hits = cur.hits() - self.prev.hits();
        let d_misses = cur.misses - self.prev.misses;
        let d_victim_hits = cur.victim_hits - self.prev.victim_hits;
        let budget = tier.budget();

        self.series.push_u64(self.cols.requests, issued);
        self.series.push_f64(
            self.cols.hit_rate,
            if d_gets == 0 {
                0.0
            } else {
                d_hits as f64 / d_gets as f64
            },
        );
        self.series.push_u64(self.cols.gets, d_gets);
        self.series.push_u64(self.cols.hits, d_hits);
        self.series.push_u64(self.cols.victim_hits, d_victim_hits);
        self.series.push_u64(self.cols.misses, d_misses);
        self.series
            .push_u64(self.cols.puts, cur.puts - self.prev.puts);
        self.series
            .push_u64(self.cols.evictions, cur.evictions - self.prev.evictions);
        self.series.push_u64(
            self.cols.victim_inserts,
            cur.victim_inserts - self.prev.victim_inserts,
        );
        self.series
            .push_u64(self.cols.resident_bytes, occ.resident_bytes);
        self.series
            .push_u64(self.cols.logical_bytes, occ.logical_bytes);
        self.series
            .push_u64(self.cols.victim_bytes, occ.victim_bytes);
        self.series
            .push_u64(self.cols.entries, occ.entries + occ.victim_entries);
        self.series.push_f64(
            self.cols.bytes_effective,
            if budget == 0 {
                0.0
            } else {
                occ.logical_bytes as f64 / budget as f64
            },
        );
        self.series
            .push_f64(self.cols.comp_ratio, cur.compression_ratio());
        self.series.end_row();

        self.epoch_misses.record(d_misses);
        self.epoch_victim_hits.record(d_victim_hits);
        self.prev = cur;
        self.last_sampled = issued;
    }

    fn finish<S: EventSink>(&mut self, issued: u64, tier: &KvCacheWith<S>) {
        if issued > self.last_sampled {
            // Tail shorter than one epoch.
            self.sample(issued, tier);
        }
        let s = tier.stats();
        self.counters = vec![
            ("kv.gets".to_string(), s.gets),
            ("kv.base_hits".to_string(), s.base_hits),
            ("kv.victim_hits".to_string(), s.victim_hits),
            ("kv.misses".to_string(), s.misses),
            ("kv.puts".to_string(), s.puts),
            ("kv.admitted".to_string(), s.admitted),
            ("kv.bypassed".to_string(), s.bypassed),
            ("kv.evictions".to_string(), s.evictions),
            ("kv.victim_inserts".to_string(), s.victim_inserts),
            (
                "kv.victim_insert_failures".to_string(),
                s.victim_insert_failures,
            ),
            ("kv.victim_evictions".to_string(), s.victim_evictions),
            (
                "kv.victim_overflow_drops".to_string(),
                s.victim_overflow_drops,
            ),
            ("kv.admitted_bytes".to_string(), s.admitted_bytes),
            (
                "kv.admitted_compressed_bytes".to_string(),
                s.admitted_compressed_bytes,
            ),
        ];
    }

    /// Consumes the sampler into the serializable report. Call after
    /// the run completes.
    #[must_use]
    pub fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            epoch_insts: self.epoch_requests,
            meta: self.meta,
            series: self.series,
            histograms: vec![
                ("epoch_misses".to_string(), self.epoch_misses),
                ("epoch_victim_hits".to_string(), self.epoch_victim_hits),
            ],
            counters: self.counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bv_events::RingSink;

    fn small(org: KvOrgKind) -> KvConfig {
        let mut cfg = KvConfig::new(org, RequestProfile::web());
        cfg.budget = 256 * 1024;
        cfg.requests = 40_000;
        cfg.warmup = 10_000;
        cfg
    }

    #[test]
    fn replay_is_deterministic() {
        for org in KvOrgKind::ALL {
            let a = run_kv(&small(org));
            let b = run_kv(&small(org));
            assert_eq!(a.stats, b.stats, "{}", org.name());
            assert_eq!(a.occupancy, b.occupancy, "{}", org.name());
        }
    }

    #[test]
    fn base_victim_never_loses_to_uncompressed() {
        let unc = run_kv(&small(KvOrgKind::Uncompressed));
        let bv = run_kv(&small(KvOrgKind::BaseVictim));
        assert!(bv.stats.hits() >= unc.stats.hits());
        assert_eq!(bv.stats.base_hits, unc.stats.base_hits, "mirror identity");
    }

    #[test]
    fn sampled_run_matches_unsampled_run_exactly() {
        let cfg = small(KvOrgKind::BaseVictim);
        let plain = run_kv(&cfg);
        let mut tel = KvTelemetry::new(10_000);
        let sampled = run_kv_sampled(&cfg, &mut tel);
        assert_eq!(plain.stats, sampled.stats, "observer perturbed the replay");
        let report = tel.into_report();
        assert_eq!(report.series.rows(), 4);
        let requests = report.series.u64s("requests").expect("requests column");
        assert_eq!(*requests.last().unwrap(), cfg.requests);
        // Epoch miss deltas sum to the whole-run counter.
        let misses: u64 = report.series.u64s("misses").unwrap().iter().sum();
        let counter = report
            .counters
            .iter()
            .find(|(n, _)| n == "kv.misses")
            .expect("kv.misses");
        assert_eq!(misses, counter.1);
        assert_eq!(counter.1, sampled.stats.misses);
    }

    #[test]
    fn telemetry_report_round_trips_through_jsonl() {
        let cfg = small(KvOrgKind::BaseVictim);
        let mut tel = KvTelemetry::new(10_000).with_meta("org", "base-victim");
        let _ = run_kv_sampled(&cfg, &mut tel);
        let report = tel.into_report();
        let jsonl = report.to_jsonl();
        let back = TelemetryReport::from_jsonl(&jsonl).expect("round trip");
        assert_eq!(report, back);
        assert_eq!(
            back.meta.get("epoch_unit").map(String::as_str),
            Some("requests")
        );
    }

    #[test]
    fn traced_run_captures_decisions() {
        let cfg = small(KvOrgKind::BaseVictim);
        let (result, events, _dropped) = run_kv_traced(&cfg, RingSink::new(4096));
        assert_eq!(events.len(), 4096, "ring fills on this traffic");
        assert!(result.stats.victim_inserts > 0);
        // seq stamps are monotone and sets stay inside the bucket space.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events
            .iter()
            .all(|e| u64::from(e.set) < crate::org::KV_EVENT_BUCKETS));
    }

    #[test]
    fn kernel_runs_at_most_once_per_distinct_key() {
        // `KvConfig` defaults on analytics: 185,046 fetches (misses and
        // puts, warmup included) over 11,999 distinct keys.
        let cfg = KvConfig::new(KvOrgKind::BaseVictim, RequestProfile::analytics());
        let mut sizes = ValueSizes::new(&cfg.profile);
        let (result, _) = drive(&cfg, &mut sizes, NoEventSink, None);
        let distinct: std::collections::HashSet<u64> =
            RequestStream::new(cfg.profile.clone(), cfg.seed)
                .take((cfg.warmup + cfg.requests) as usize)
                .map(|req| req.key)
                .collect();
        // Every key is in range, so each kernel run filled one slot; and
        // a key's first request always fetches, so every key was sized.
        assert!(distinct.iter().all(|&key| key < cfg.profile.keys));
        assert_eq!(sizes.sized(), distinct.len());
        // The measured phase alone fetches far more often than that.
        let fetches = result.stats.misses + result.stats.puts;
        assert!(fetches > 10 * distinct.len() as u64, "{fetches} fetches");
    }

    #[test]
    fn tail_epoch_is_sampled() {
        let mut cfg = small(KvOrgKind::Uncompressed);
        cfg.requests = 25_000; // 2 full epochs + 5k tail
        let mut tel = KvTelemetry::new(10_000);
        let _ = run_kv_sampled(&cfg, &mut tel);
        let report = tel.into_report();
        assert_eq!(report.series.rows(), 3);
        let requests = report.series.u64s("requests").unwrap();
        assert_eq!(requests, &[10_000, 20_000, 25_000]);
    }
}
