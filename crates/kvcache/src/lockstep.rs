//! The baseline-mirror auditor: the scientific deliverable.
//!
//! The Base-Victim tier's whole claim is that its *decision-making*
//! state is bit-identical to the uncompressed tier's at every point in
//! time — compression can only add hits, never change a decision. This
//! module proves it empirically: it steps a [`BaseVictimKv`] and an
//! [`UncompressedKv`] through the same request stream in lockstep and,
//! after **every** operation, compares the full recency-ordered key
//! list of the base-victim baseline area against the uncompressed
//! tier's. The first mismatch is pinpointed with the op index, the
//! request that caused it, and the two orderings around the first
//! differing position.
//!
//! Alongside the mirror identity the auditor checks the consequences
//! that make it worth having:
//!
//! * `base_hits == uncompressed hits` and
//!   `misses + victim_hits == uncompressed misses` — every victim hit
//!   is a rescued miss, never a reshuffled one.
//! * The byte-budget invariant (physical bytes `<=` budget) after every
//!   op, via [`BaseVictimKv::check_invariants`].
//!
//! Like the LLC auditor's `--inject`, [`LockstepConfig::inject_at`]
//! deliberately perturbs the baseline mid-run so tests can show the
//! auditor actually detects divergence rather than vacuously passing.

use crate::org::{BaseVictimKv, UncompressedKv};
use crate::value::ValueSizes;
use bv_events::NoEventSink;
use bv_trace::request::{KvOp, KvRequest, RequestProfile, RequestStream};

/// What to audit.
#[derive(Clone, Debug)]
pub struct LockstepConfig {
    /// The request-traffic shape.
    pub profile: RequestProfile,
    /// Stream seed.
    pub seed: u64,
    /// How many requests to replay.
    pub requests: u64,
    /// Shared byte budget for both tiers.
    pub budget: u64,
    /// Perturb the base-victim baseline after this many requests to
    /// prove divergence detection is live (`None` = honest run).
    pub inject_at: Option<u64>,
}

/// The first detected divergence between the two baselines.
#[derive(Clone, Debug)]
pub struct KvDivergence {
    /// 0-based index of the request after which state differed.
    pub op_index: u64,
    /// The request that was just applied.
    pub request: KvRequest,
    /// Human-readable description: which check failed and how.
    pub detail: String,
}

/// Outcome of a lockstep run.
#[derive(Clone, Debug)]
pub struct LockstepReport {
    /// Requests replayed (stops early at the first divergence).
    pub ops: u64,
    /// The first divergence, or `None` when the mirror held throughout.
    pub divergence: Option<KvDivergence>,
    /// Base-victim hits (base + victim areas).
    pub bv_hits: u64,
    /// Base-victim victim-area hits (the opportunistic gain).
    pub victim_hits: u64,
    /// Uncompressed-tier hits.
    pub unc_hits: u64,
}

impl LockstepReport {
    /// True when the mirror held and the hit-rate guarantee with it.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Describes the first position where two recency orderings differ.
fn describe_mismatch(expected: &[u64], got: &[u64]) -> String {
    if expected.len() != got.len() {
        return format!(
            "baseline holds {} keys, uncompressed tier holds {}",
            got.len(),
            expected.len()
        );
    }
    let at = expected
        .iter()
        .zip(got.iter())
        .position(|(e, g)| e != g)
        .unwrap_or(0);
    format!(
        "recency order differs at position {at}: uncompressed has key {}, baseline has key {}",
        expected[at], got[at]
    )
}

/// Replays `cfg.requests` against both tiers, checking the mirror after
/// every operation. Returns at the first divergence.
#[must_use]
pub fn run_lockstep(cfg: &LockstepConfig) -> LockstepReport {
    let mut bv: BaseVictimKv = BaseVictimKv::new(cfg.budget, NoEventSink);
    let mut unc: UncompressedKv = UncompressedKv::new(cfg.budget, NoEventSink);
    // One table for both tiers: each distinct key is sized once.
    let mut sizes = ValueSizes::new(&cfg.profile);
    let stream = RequestStream::new(cfg.profile.clone(), cfg.seed);

    let mut ops = 0u64;
    let mut divergence = None;
    for req in stream.take(cfg.requests as usize) {
        match req.op {
            KvOp::Get => {
                bv.get(req.key, || sizes.get(req.key));
                unc.get(req.key, || sizes.get(req.key));
            }
            KvOp::Put => {
                bv.put(req.key, || sizes.get(req.key));
                unc.put(req.key, || sizes.get(req.key));
            }
        }
        if Some(ops) == cfg.inject_at {
            bv.inject_baseline_perturbation();
        }
        ops += 1;

        if let Some(detail) = check_step(&bv, &unc) {
            divergence = Some(KvDivergence {
                op_index: ops - 1,
                request: req,
                detail,
            });
            break;
        }
    }

    LockstepReport {
        ops,
        divergence,
        bv_hits: bv.stats().hits(),
        victim_hits: bv.stats().victim_hits,
        unc_hits: unc.stats().hits(),
    }
}

/// Every per-op check; returns the first failure's description.
fn check_step(bv: &BaseVictimKv, unc: &UncompressedKv) -> Option<String> {
    let expected = unc.keys_mru();
    let got = bv.baseline_keys_mru();
    if expected != got {
        return Some(describe_mismatch(&expected, &got));
    }
    if bv.stats().base_hits != unc.stats().base_hits {
        return Some(format!(
            "base hits diverged: base-victim {} vs uncompressed {}",
            bv.stats().base_hits,
            unc.stats().base_hits
        ));
    }
    if bv.stats().misses + bv.stats().victim_hits != unc.stats().misses {
        return Some(format!(
            "miss accounting diverged: base-victim misses {} + victim hits {} != uncompressed misses {}",
            bv.stats().misses,
            bv.stats().victim_hits,
            unc.stats().misses
        ));
    }
    if let Err(violation) = bv.check_invariants() {
        return Some(violation);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(profile: RequestProfile, seed: u64) -> LockstepConfig {
        LockstepConfig {
            profile,
            seed,
            requests: 6_000,
            budget: 256 * 1024,
            inject_at: None,
        }
    }

    #[test]
    fn mirror_holds_on_every_preset() {
        for name in RequestProfile::NAMES {
            let profile = RequestProfile::by_name(name).expect("preset");
            let report = run_lockstep(&cfg(profile, 77));
            assert!(report.holds(), "{name}: {:?}", report.divergence);
            assert!(
                report.bv_hits >= report.unc_hits,
                "{name}: bv {} < unc {}",
                report.bv_hits,
                report.unc_hits
            );
        }
    }

    #[test]
    fn victim_hits_account_for_the_entire_gain() {
        let report = run_lockstep(&cfg(RequestProfile::web(), 3));
        assert!(report.holds());
        assert_eq!(report.bv_hits - report.unc_hits, report.victim_hits);
        assert!(
            report.victim_hits > 0,
            "web traffic should exercise the victim area"
        );
    }

    #[test]
    fn injected_perturbation_is_detected() {
        let mut c = cfg(RequestProfile::web(), 5);
        c.inject_at = Some(2_000);
        let report = run_lockstep(&c);
        let div = report.divergence.expect("perturbation must be caught");
        // Detection is immediate: the check runs right after the inject.
        assert_eq!(div.op_index, 2_000);
        assert!(div.detail.contains("recency order"), "{}", div.detail);
    }

    #[test]
    fn divergence_reports_are_descriptive() {
        assert!(describe_mismatch(&[1, 2], &[1]).contains("holds"));
        let msg = describe_mismatch(&[1, 2, 3], &[1, 3, 2]);
        assert!(msg.contains("position 1"), "{msg}");
    }
}
