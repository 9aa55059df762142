//! Simulation configuration (Section V parameters).

use bv_cache::{CacheGeometry, PolicyKind};
use bv_compress::{Bdi, CPack, Compressor, Fpc, ZeroOnly};
use bv_core::{
    BaseVictimLlc, DccLlc, InclusionMode, LlcOrganization, TwoTagEcmLlc, TwoTagLlc,
    UncompressedLlc, VictimPolicyKind, VscLlc,
};
use bv_events::RingSink;

/// Selects the LLC compression algorithm for ablation studies (the paper
/// uses BDI throughout; Section VII.A notes the architecture is
/// algorithm-agnostic).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CompressorKind {
    /// Base-Delta-Immediate (the paper's choice).
    Bdi,
    /// Frequent Pattern Compression.
    Fpc,
    /// C-Pack.
    CPack,
    /// Zero-detection only (a Zero-Content-Cache-style control).
    ZeroOnly,
}

impl CompressorKind {
    /// All algorithms, for sweeps.
    pub const ALL: [CompressorKind; 4] = [
        CompressorKind::Bdi,
        CompressorKind::Fpc,
        CompressorKind::CPack,
        CompressorKind::ZeroOnly,
    ];

    /// Short stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CompressorKind::Bdi => "bdi",
            CompressorKind::Fpc => "fpc",
            CompressorKind::CPack => "cpack",
            CompressorKind::ZeroOnly => "zero-only",
        }
    }

    /// Instantiates the algorithm.
    #[must_use]
    pub fn build(self) -> Box<dyn Compressor> {
        match self {
            CompressorKind::Bdi => Box::new(Bdi::new()),
            CompressorKind::Fpc => Box::new(Fpc::new()),
            CompressorKind::CPack => Box::new(CPack::new()),
            CompressorKind::ZeroOnly => Box::new(ZeroOnly::new()),
        }
    }
}

/// Core pipeline parameters (a state-of-the-art 4 GHz Intel Core-like
/// machine, per Section V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Issue/retire width (instructions per cycle).
    pub width: u32,
    /// Reorder-buffer capacity, bounding miss overlap.
    pub rob_size: u32,
    /// L1 load-to-use latency in cycles.
    pub l1_latency: u32,
    /// L2 load-to-use latency in cycles.
    pub l2_latency: u32,
    /// LLC load-to-use latency in cycles.
    pub llc_latency: u32,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            width: 4,
            rob_size: 224,
            l1_latency: 3,
            l2_latency: 10,
            llc_latency: 24,
        }
    }
}

/// DDR3-1600 timing (Section V: two channels, 15-15-15-34).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// CAS latency in memory cycles.
    pub t_cl: u32,
    /// RAS-to-CAS delay in memory cycles.
    pub t_rcd: u32,
    /// Row precharge in memory cycles.
    pub t_rp: u32,
    /// Row active time in memory cycles.
    pub t_ras: u32,
    /// Data-burst occupancy per 64 B transfer, in memory cycles (BL8 on a
    /// 64-bit DDR bus = 4 bus cycles).
    pub t_burst: u32,
    /// Core cycles per memory cycle (4 GHz core / 800 MHz DDR3-1600 bus).
    pub core_cycles_per_mem_cycle: u32,
    /// Maximum queueing backlog a request can observe, in core cycles —
    /// the finite controller queue. Beyond this window, pending (prefetch)
    /// work is shed rather than accumulated.
    pub queue_window: u32,
    /// Maximum backlog a *demand* read can observe, in core cycles: the
    /// controller schedules demands ahead of queued prefetch/write work,
    /// so a demand waits for at most a few in-flight bursts.
    pub demand_window: u32,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 8 * 1024,
            t_cl: 15,
            t_rcd: 15,
            t_rp: 15,
            t_ras: 34,
            t_burst: 4,
            core_cycles_per_mem_cycle: 5,
            queue_window: 2000,
            demand_window: 400,
        }
    }
}

/// Which LLC organization to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LlcKind {
    /// The uncompressed baseline.
    Uncompressed,
    /// Naive two-tag with partner victimization (Figure 6).
    TwoTag,
    /// Modified two-tag with ECM-style victim search (Figure 7).
    TwoTagEcm,
    /// Base-Victim opportunistic compression with the paper's default
    /// ECM-inspired victim-cache policy (Figures 8-13).
    BaseVictim,
    /// Base-Victim with an explicit victim-cache policy (Section VI.B.4).
    BaseVictimWith(VictimPolicyKind),
    /// The non-inclusive Base-Victim variant of Section IV.B.3 (victim
    /// lines may be dirty; saves writeback traffic).
    BaseVictimNonInclusive,
    /// Base-Victim with an explicit compression algorithm (ablation).
    BaseVictimCompressor(CompressorKind),
    /// Functional VSC-2X (capacity comparison only).
    Vsc,
    /// Functional DCC with super-block tags (capacity comparison only).
    Dcc,
}

impl LlcKind {
    /// The names [`LlcKind::from_name`] accepts, for error messages.
    pub const NAMES: &'static str = "uncompressed, two-tag, two-tag-ecm, base-victim, \
     base-victim-ni, base-victim-random-fit, vsc, dcc";

    /// Parses a CLI/protocol organization name — the inverse of
    /// [`LlcKind::name`] for the sweepable organizations (parameterized
    /// variants like explicit compressors are not nameable here). Accepts
    /// both the CLI spelling (`vsc`) and the report spelling (`vsc-2x`).
    #[must_use]
    pub fn from_name(s: &str) -> Option<LlcKind> {
        Some(match s {
            "uncompressed" => LlcKind::Uncompressed,
            "two-tag" => LlcKind::TwoTag,
            "two-tag-ecm" => LlcKind::TwoTagEcm,
            "base-victim" => LlcKind::BaseVictim,
            "base-victim-ni" => LlcKind::BaseVictimNonInclusive,
            "base-victim-random-fit" => LlcKind::BaseVictimWith(VictimPolicyKind::RandomFit),
            "vsc" | "vsc-2x" => LlcKind::Vsc,
            "dcc" => LlcKind::Dcc,
            _ => return None,
        })
    }

    /// Short stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LlcKind::Uncompressed => "uncompressed",
            LlcKind::TwoTag => "two-tag",
            LlcKind::TwoTagEcm => "two-tag-ecm",
            LlcKind::BaseVictim => "base-victim",
            LlcKind::BaseVictimWith(_) => "base-victim-variant",
            LlcKind::BaseVictimNonInclusive => "base-victim-ni",
            LlcKind::BaseVictimCompressor(_) => "base-victim-compressor",
            LlcKind::Vsc => "vsc-2x",
            LlcKind::Dcc => "dcc",
        }
    }

    /// Tags each physical way holds: the two-tag organizations, VSC-2X
    /// and DCC track two lines per way, so their per-set masks cover
    /// twice the associativity.
    #[must_use]
    pub fn tags_per_way(self) -> usize {
        match self {
            LlcKind::TwoTag | LlcKind::TwoTagEcm | LlcKind::Vsc | LlcKind::Dcc => 2,
            _ => 1,
        }
    }

    /// Instantiates the organization.
    #[must_use]
    pub fn build(self, geom: CacheGeometry, policy: PolicyKind) -> Box<dyn LlcOrganization> {
        match self {
            LlcKind::Uncompressed => Box::new(UncompressedLlc::new(geom, policy)),
            LlcKind::TwoTag => Box::new(TwoTagLlc::new(geom, policy)),
            LlcKind::TwoTagEcm => Box::new(TwoTagEcmLlc::new(geom, policy)),
            LlcKind::BaseVictim => Box::new(BaseVictimLlc::new(
                geom,
                policy,
                VictimPolicyKind::EcmLargestBase,
            )),
            LlcKind::BaseVictimWith(vp) => Box::new(BaseVictimLlc::new(geom, policy, vp)),
            LlcKind::BaseVictimNonInclusive => Box::new(BaseVictimLlc::new_non_inclusive(
                geom,
                policy,
                VictimPolicyKind::EcmLargestBase,
            )),
            LlcKind::BaseVictimCompressor(ck) => Box::new(BaseVictimLlc::with_compressor(
                geom,
                policy,
                VictimPolicyKind::EcmLargestBase,
                InclusionMode::Inclusive,
                ck.build(),
            )),
            LlcKind::Vsc => Box::new(VscLlc::new(geom, policy)),
            LlcKind::Dcc => Box::new(DccLlc::new(geom, policy)),
        }
    }

    /// Instantiates the organization with a [`RingSink`] retaining the
    /// most recent `capacity` cache events (`bvsim trace`). Same policy
    /// construction as [`LlcKind::build`] — identical seeds and logical
    /// way counts — so a traced run replays the untraced run exactly,
    /// plus events.
    #[must_use]
    pub fn build_traced(
        self,
        geom: CacheGeometry,
        policy: PolicyKind,
        sink: RingSink,
    ) -> Box<dyn LlcOrganization> {
        let (sets, logical) = (geom.sets(), geom.ways() * self.tags_per_way());
        let bv = |vp, mode, comp: Box<dyn Compressor>, sink| {
            Box::new(BaseVictimLlc::with_sink(
                geom,
                policy.instantiate(sets, logical),
                vp,
                mode,
                comp,
                sink,
            )) as Box<dyn LlcOrganization>
        };
        let default_vp = VictimPolicyKind::EcmLargestBase;
        match self {
            LlcKind::Uncompressed => Box::new(UncompressedLlc::with_sink(
                geom,
                policy.instantiate(sets, logical),
                sink,
            )),
            LlcKind::TwoTag => Box::new(TwoTagLlc::with_sink(
                geom,
                policy.instantiate(sets, logical),
                sink,
            )),
            LlcKind::TwoTagEcm => Box::new(TwoTagEcmLlc::with_sink(
                geom,
                policy.instantiate(sets, logical),
                sink,
            )),
            LlcKind::BaseVictim => bv(
                default_vp,
                InclusionMode::Inclusive,
                Box::new(Bdi::new()),
                sink,
            ),
            LlcKind::BaseVictimWith(vp) => {
                bv(vp, InclusionMode::Inclusive, Box::new(Bdi::new()), sink)
            }
            LlcKind::BaseVictimNonInclusive => bv(
                default_vp,
                InclusionMode::NonInclusive,
                Box::new(Bdi::new()),
                sink,
            ),
            LlcKind::BaseVictimCompressor(ck) => {
                bv(default_vp, InclusionMode::Inclusive, ck.build(), sink)
            }
            LlcKind::Vsc => Box::new(VscLlc::with_sink(
                geom,
                policy.instantiate(sets, logical),
                sink,
            )),
            LlcKind::Dcc => Box::new(DccLlc::with_sink(
                geom,
                policy.instantiate(sets, logical),
                sink,
            )),
        }
    }
}

/// A complete single-system configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// L1 instruction cache geometry (32 KB 8-way).
    pub l1i: CacheGeometry,
    /// L1 data cache geometry (32 KB 8-way).
    pub l1d: CacheGeometry,
    /// Unified L2 geometry (256 KB 8-way).
    pub l2: CacheGeometry,
    /// LLC geometry (2 MB 16-way single-thread default).
    pub llc: CacheGeometry,
    /// LLC organization.
    pub llc_kind: LlcKind,
    /// LLC replacement policy (1-bit NRU default, per Section V).
    pub llc_policy: PolicyKind,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Prefetch degree (lines fetched ahead per trained stream); 0
    /// disables prefetching.
    pub prefetch_degree: u32,
    /// Extra LLC pipeline cycles for this configuration on top of the
    /// base LLC latency (the paper charges +1 for the 3 MB cache's larger
    /// arrays).
    pub extra_llc_latency: u32,
}

impl SimConfig {
    /// The paper's single-thread configuration with the given LLC
    /// organization: 2 MB 16-way inclusive LLC, NRU replacement.
    #[must_use]
    pub fn single_thread(llc_kind: LlcKind) -> SimConfig {
        SimConfig {
            core: CoreConfig::default(),
            l1i: CacheGeometry::new(32 * 1024, 8, 64),
            l1d: CacheGeometry::new(32 * 1024, 8, 64),
            l2: CacheGeometry::new(256 * 1024, 8, 64),
            llc: CacheGeometry::new(2 * 1024 * 1024, 16, 64),
            llc_kind,
            llc_policy: PolicyKind::Nru,
            dram: DramConfig::default(),
            prefetch_degree: 4,
            extra_llc_latency: 0,
        }
    }

    /// The paper's multi-program configuration: 4 MB 16-way shared LLC.
    #[must_use]
    pub fn multi_program(llc_kind: LlcKind) -> SimConfig {
        let mut cfg = SimConfig::single_thread(llc_kind);
        cfg.llc = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
        cfg
    }

    /// Replaces the LLC geometry, charging one extra access cycle when the
    /// capacity grows beyond the 2 MB baseline (Section VI.A: the 3 MB
    /// cache "adds an extra cycle of latency because of the increase in
    /// tag and data array sizes").
    #[must_use]
    pub fn with_llc_size(mut self, bytes: usize, ways: usize) -> SimConfig {
        self.llc = CacheGeometry::new(bytes, ways, 64);
        self.extra_llc_latency = u32::from(bytes > 2 * 1024 * 1024);
        self
    }

    /// [`SimConfig::with_llc_size`] for an `mb` MiB, `ways`-way LLC, or a
    /// one-line reason no cache of this organization can have that
    /// shape: the capacity overflows, [`CacheGeometry::try_new`] rejects
    /// it, or the organization's tags per way exceed
    /// [`CacheGeometry::MAX_WAYS`].
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn try_with_llc_size(self, mb: u64, ways: u64) -> Result<SimConfig, String> {
        let bytes = usize::try_from(mb)
            .ok()
            .and_then(|mb| mb.checked_mul(1024 * 1024))
            .ok_or("capacity overflows")?;
        let ways = usize::try_from(ways).unwrap_or(usize::MAX);
        CacheGeometry::try_new(bytes, ways, 64)?;
        let tags = self.llc_kind.tags_per_way();
        let max = CacheGeometry::MAX_WAYS / tags;
        if ways > max {
            let kind = self.llc_kind.name();
            return Err(format!(
                "{kind} keeps {tags} tags per way, so at most {max} ways"
            ));
        }
        Ok(self.with_llc_size(bytes, ways))
    }

    /// Replaces the LLC replacement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> SimConfig {
        self.llc_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        assert_eq!(cfg.core.width, 4);
        assert_eq!(cfg.core.l1_latency, 3);
        assert_eq!(cfg.core.l2_latency, 10);
        assert_eq!(cfg.core.llc_latency, 24);
        assert_eq!(cfg.llc.sets(), 2048);
        assert_eq!(cfg.dram.channels, 2);
        assert_eq!(cfg.dram.t_cl, 15);
        assert_eq!(cfg.dram.t_ras, 34);
    }

    #[test]
    fn multi_program_uses_4mb() {
        let cfg = SimConfig::multi_program(LlcKind::BaseVictim);
        assert_eq!(cfg.llc.size_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn larger_caches_pay_a_cycle() {
        let cfg =
            SimConfig::single_thread(LlcKind::Uncompressed).with_llc_size(3 * 1024 * 1024, 24);
        assert_eq!(cfg.extra_llc_latency, 1);
        assert_eq!(cfg.llc.ways(), 24);
        let same =
            SimConfig::single_thread(LlcKind::Uncompressed).with_llc_size(2 * 1024 * 1024, 32);
        assert_eq!(same.extra_llc_latency, 0);
    }

    #[test]
    fn try_with_llc_size_rejects_what_would_panic() {
        let two_tag = SimConfig::single_thread(LlcKind::TwoTag);
        let cfg = two_tag.try_with_llc_size(3, 24).expect("3 MB 24-way");
        assert_eq!((cfg.llc.size_bytes(), cfg.llc.ways()), (3 << 20, 24));
        assert_eq!(cfg.extra_llc_latency, 1);
        assert!(SimConfig::single_thread(LlcKind::BaseVictim)
            .try_with_llc_size(4, 64)
            .is_ok());
        assert!(two_tag.try_with_llc_size(2, 32).is_ok());
        for (kind, mb, ways, want) in [
            (
                LlcKind::Uncompressed,
                2,
                0,
                "associativity must be at least 1",
            ),
            (LlcKind::Uncompressed, 1 << 44, 16, "capacity overflows"),
            (
                LlcKind::TwoTag,
                4,
                64,
                "two-tag keeps 2 tags per way, so at most 32 ways",
            ),
            (
                LlcKind::TwoTagEcm,
                4,
                64,
                "two-tag-ecm keeps 2 tags per way, so at most 32 ways",
            ),
            (
                LlcKind::Vsc,
                3,
                48,
                "vsc-2x keeps 2 tags per way, so at most 32 ways",
            ),
            (
                LlcKind::Dcc,
                4,
                64,
                "dcc keeps 2 tags per way, so at most 32 ways",
            ),
        ] {
            let got = SimConfig::single_thread(kind).try_with_llc_size(mb, ways);
            assert_eq!(
                got.err().as_deref(),
                Some(want),
                "{kind:?} {mb} MB {ways}-way"
            );
        }
    }

    #[test]
    fn every_kind_builds() {
        let geom = CacheGeometry::new(64 * 1024, 16, 64);
        for kind in [
            LlcKind::Uncompressed,
            LlcKind::TwoTag,
            LlcKind::TwoTagEcm,
            LlcKind::BaseVictim,
            LlcKind::BaseVictimWith(VictimPolicyKind::RandomFit),
            LlcKind::BaseVictimNonInclusive,
            LlcKind::BaseVictimCompressor(CompressorKind::Fpc),
            LlcKind::Vsc,
            LlcKind::Dcc,
        ] {
            let org = kind.build(geom, PolicyKind::Nru);
            assert!(!org.name().is_empty());
        }
    }
}
