//! Property tests for the kv tier's two structural guarantees, checked
//! after **every** operation of randomized request mixtures rather than
//! only at the end of canned streams:
//!
//! 1. **Baseline mirror** — the base-victim tier's baseline area holds
//!    exactly the keys, in exactly the recency order, of an uncompressed
//!    tier fed the same requests; its base hits and (misses + victim
//!    hits) match the uncompressed tier's hits and misses one-for-one.
//! 2. **Byte budget** — no organization's physical occupancy ever
//!    exceeds its budget, not even transiently between an admission and
//!    the evictions it forces.
//!
//! The mixtures are deliberately nastier than the preset profiles: tiny
//! keyspaces that force constant eviction, values spanning 1 byte to
//! larger-than-budget (exercising the bypass path), and per-key
//! compressibility from incompressible to 32x.
//!
//! The replay functions size each distinct key once per replay; a
//! reference replay that runs the kernel on every fetch pins them to
//! the same counters.

use base_victim::kvcache::{
    compress_value, run_kv, run_lockstep, BaseVictimKv, CompressedKv, KvConfig, KvOccupancy,
    KvOrgKind, KvStats, LockstepConfig, UncompressedKv, ValueMeta,
};
use base_victim::trace::request::{KvOp, RequestProfile, RequestStream, SplitMix64};

const BUDGET: u64 = 64 * 1024;
const OPS_PER_SEED: u64 = 4_000;
const SEEDS: [u64; 4] = [1, 42, 0xdead_beef, 0x5eed_5eed_5eed_5eed];

/// Deterministic per-key value shape: sizes from 1 byte up past the
/// budget (bypass), compressed size anywhere from `bytes/32` to `bytes`.
fn meta_for(key: u64, budget: u64) -> ValueMeta {
    let mut rng = SplitMix64::new(key ^ 0xfeed_face_cafe_f00d);
    let bytes = match rng.below(100) {
        0 => budget + 1 + rng.below(budget), // larger than the whole tier
        1..=9 => 1 + rng.below(63),          // tiny
        _ => 64 + rng.below(8 * 1024),       // typical object
    };
    let compressed = (bytes / (1 + rng.below(32))).max(1).min(bytes);
    ValueMeta::new(bytes as u32, compressed as u32)
}

/// One randomized request: 70% gets, 30% puts, keys Zipf-ish by nesting
/// `below` so low keys are much hotter than the tail.
fn next_request(rng: &mut SplitMix64, keyspace: u64) -> (bool, u64) {
    let is_get = rng.below(10) < 7;
    let bound = 1 + rng.below(keyspace);
    (is_get, rng.below(bound))
}

#[test]
fn fuzzed_mixtures_uphold_the_baseline_mirror() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let mut bv: BaseVictimKv = BaseVictimKv::new(BUDGET, bv_events::NoEventSink);
        let mut unc: UncompressedKv = UncompressedKv::new(BUDGET, bv_events::NoEventSink);
        for op in 0..OPS_PER_SEED {
            let (is_get, key) = next_request(&mut rng, 512);
            if is_get {
                bv.get(key, || meta_for(key, BUDGET));
                unc.get(key, || meta_for(key, BUDGET));
            } else {
                bv.put(key, || meta_for(key, BUDGET));
                unc.put(key, || meta_for(key, BUDGET));
            }
            assert_eq!(
                bv.baseline_keys_mru(),
                unc.keys_mru(),
                "seed {seed}: baseline recency order diverged after op {op}"
            );
            assert_eq!(
                bv.stats().base_hits,
                unc.stats().base_hits,
                "seed {seed}: base hits diverged after op {op}"
            );
            assert_eq!(
                bv.stats().misses + bv.stats().victim_hits,
                unc.stats().misses,
                "seed {seed}: miss accounting diverged after op {op}"
            );
            bv.check_invariants()
                .unwrap_or_else(|v| panic!("seed {seed}, op {op}: {v}"));
        }
        assert!(
            bv.stats().hits() >= unc.stats().hits(),
            "seed {seed}: base-victim lost hits vs uncompressed"
        );
    }
}

#[test]
fn fuzzed_mixtures_never_exceed_the_byte_budget() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut unc: UncompressedKv = UncompressedKv::new(BUDGET, bv_events::NoEventSink);
        let mut comp: CompressedKv = CompressedKv::new(BUDGET, bv_events::NoEventSink);
        let mut bv: BaseVictimKv = BaseVictimKv::new(BUDGET, bv_events::NoEventSink);
        for op in 0..OPS_PER_SEED {
            let (is_get, key) = next_request(&mut rng, 256);
            for occ in [
                {
                    if is_get {
                        unc.get(key, || meta_for(key, BUDGET));
                    } else {
                        unc.put(key, || meta_for(key, BUDGET));
                    }
                    unc.occupancy()
                },
                {
                    if is_get {
                        comp.get(key, || meta_for(key, BUDGET));
                    } else {
                        comp.put(key, || meta_for(key, BUDGET));
                    }
                    comp.occupancy()
                },
                {
                    if is_get {
                        bv.get(key, || meta_for(key, BUDGET));
                    } else {
                        bv.put(key, || meta_for(key, BUDGET));
                    }
                    bv.occupancy()
                },
            ] {
                assert!(
                    occ.resident_bytes <= BUDGET,
                    "seed {seed}, op {op}: {} resident bytes > {BUDGET} budget",
                    occ.resident_bytes
                );
            }
        }
        // The oversized values must have gone through the bypass path,
        // not been force-fit.
        assert!(
            bv.stats().bypassed > 0,
            "seed {seed}: bypass never exercised"
        );
        assert_eq!(bv.stats().bypassed, unc.stats().bypassed, "seed {seed}");
    }
}

/// The end-to-end guarantee on the preset profiles across budgets: the
/// base-victim tier's hit count is never below the uncompressed tier's,
/// and never above the idealized always-compressed tier's.
#[test]
fn preset_profiles_order_the_organizations() {
    for dist in RequestProfile::NAMES {
        for budget_kib in [64u64, 256] {
            let run = |org| {
                let mut cfg = KvConfig::new(org, RequestProfile::by_name(dist).expect("preset"));
                cfg.budget = budget_kib * 1024;
                cfg.warmup = 2_000;
                cfg.requests = 8_000;
                run_kv(&cfg)
            };
            let unc = run(KvOrgKind::Uncompressed);
            let comp = run(KvOrgKind::Compressed);
            let bv = run(KvOrgKind::BaseVictim);
            assert!(
                bv.stats.hits() >= unc.stats.hits(),
                "{dist}@{budget_kib}KiB: bv {} < unc {}",
                bv.stats.hits(),
                unc.stats.hits()
            );
            assert_eq!(
                bv.stats.base_hits,
                unc.stats.hits(),
                "{dist}@{budget_kib}KiB: baseline is not a mirror"
            );
            assert!(
                bv.stats.hits() <= comp.stats.hits(),
                "{dist}@{budget_kib}KiB: bv {} beat always-compress {}",
                bv.stats.hits(),
                comp.stats.hits()
            );
        }
    }
}

/// `run_kv` without the per-replay size table: every miss and put runs
/// the BDI kernel afresh.
fn reference_replay(cfg: &KvConfig) -> (KvStats, KvOccupancy) {
    let mut tier = cfg.org.build(cfg.budget);
    let profile = &cfg.profile;
    let mut stream = RequestStream::new(profile.clone(), cfg.seed);
    for (phase, len) in [cfg.warmup, cfg.requests].into_iter().enumerate() {
        if phase == 1 {
            tier.reset_stats();
        }
        for req in (&mut stream).take(len as usize) {
            let fetch = || compress_value(req.key, profile.value_spec(req.key));
            match req.op {
                KvOp::Get => {
                    tier.get(req.key, fetch);
                }
                KvOp::Put => tier.put(req.key, fetch),
            }
        }
    }
    (*tier.stats(), tier.occupancy())
}

fn reduced(org: KvOrgKind, dist: &str) -> KvConfig {
    let mut cfg = KvConfig::new(org, RequestProfile::by_name(dist).expect("preset"));
    cfg.budget = 256 * 1024;
    cfg.warmup = 1_000;
    cfg.requests = 4_000;
    cfg
}

/// One test per profile below, so the three run in parallel.
fn assert_run_kv_matches_reference(dist: &str) {
    for org in KvOrgKind::ALL {
        let cfg = reduced(org, dist);
        let run = run_kv(&cfg);
        let (stats, occupancy) = reference_replay(&cfg);
        assert_eq!(run.stats, stats, "{dist} {}", org.name());
        assert_eq!(run.occupancy, occupancy, "{dist} {}", org.name());
    }
}

#[test]
fn run_kv_matches_the_per_fetch_reference_on_web() {
    assert_run_kv_matches_reference("web");
}

#[test]
fn run_kv_matches_the_per_fetch_reference_on_analytics() {
    assert_run_kv_matches_reference("analytics");
}

#[test]
fn run_kv_matches_the_per_fetch_reference_on_social() {
    assert_run_kv_matches_reference("social");
}

#[test]
fn lockstep_matches_the_reference_and_catches_injection() {
    for dist in RequestProfile::NAMES {
        let replay = reduced(KvOrgKind::BaseVictim, dist);
        let mut lock = LockstepConfig {
            profile: replay.profile,
            seed: replay.seed,
            requests: replay.requests,
            budget: replay.budget,
            inject_at: None,
        };
        let clean = run_lockstep(&lock);
        assert!(clean.holds(), "{dist}: {:?}", clean.divergence);
        assert_eq!(clean.ops, lock.requests, "{dist}");
        let reference = |org| {
            let mut cfg = reduced(org, dist);
            cfg.warmup = 0; // lockstep counts from the first request
            reference_replay(&cfg).0
        };
        let bv = reference(KvOrgKind::BaseVictim);
        assert_eq!(clean.bv_hits, bv.hits(), "{dist}");
        assert_eq!(clean.victim_hits, bv.victim_hits, "{dist}");
        assert_eq!(
            clean.unc_hits,
            reference(KvOrgKind::Uncompressed).hits(),
            "{dist}"
        );

        lock.inject_at = Some(1_500);
        let injected = run_lockstep(&lock);
        let div = injected.divergence.expect("injected fault must be caught");
        assert_eq!(div.op_index, 1_500, "{dist}: {}", div.detail);
    }
}
