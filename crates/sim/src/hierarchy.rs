//! The three-level inclusive cache hierarchy.
//!
//! Per core: 32 KB L1I + 32 KB L1D (write-back, write-allocate) and a
//! unified 256 KB L2, all LRU. Shared: the LLC organization under study
//! and the DDR3 memory. Inclusion is strict at every level — an LLC
//! displacement back-invalidates the L2 and L1s, and an L2 eviction
//! back-invalidates the L1s — matching the paper's inclusive hierarchy
//! with back-invalidations (Section IV.B).

use crate::config::SimConfig;
use crate::dram::Dram;
use crate::prefetch::StreamPrefetcher;
use bv_cache::{BasicCache, LineAddr, PolicyKind};
use bv_compress::CacheLine;
use bv_core::{HitKind, InclusionAgent, LlcOrganization};
use bv_trace::{AccessKind, TraceEvent, TraceGenerator};

/// Where a demand access was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LevelHit {
    /// L1 instruction or data cache.
    L1,
    /// Unified L2.
    L2,
    /// LLC Baseline (or sole) array.
    LlcBase,
    /// LLC Victim cache (Base-Victim only).
    LlcVictim,
    /// Main memory.
    Memory,
}

/// Result of one demand access through the hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct AccessOutcome {
    /// The level that supplied the data.
    pub level: LevelHit,
    /// Load-to-use latency in core cycles (includes DRAM queueing for
    /// memory accesses).
    pub latency: u64,
}

/// Private per-core caches plus the core's prefetcher.
#[derive(Debug)]
pub struct CoreCaches {
    l1i: BasicCache,
    l1d: BasicCache,
    l2: BasicCache,
    prefetcher: StreamPrefetcher,
    /// The prefetcher's candidates for the current access, reused from
    /// access to access.
    prefetches: Vec<u64>,
}

impl CoreCaches {
    /// Creates the private caches for one core.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> CoreCaches {
        CoreCaches {
            l1i: BasicCache::new(cfg.l1i, PolicyKind::Lru),
            l1d: BasicCache::new(cfg.l1d, PolicyKind::Lru),
            l2: BasicCache::new(cfg.l2, PolicyKind::Lru),
            prefetcher: StreamPrefetcher::new(cfg.prefetch_degree),
            prefetches: Vec::new(),
        }
    }

    /// The L1 data cache (for stats inspection).
    #[must_use]
    pub fn l1d(&self) -> &BasicCache {
        &self.l1d
    }

    /// The unified L2 (for stats inspection).
    #[must_use]
    pub fn l2(&self) -> &BasicCache {
        &self.l2
    }
}

/// The shared uncore: LLC organization + DRAM.
pub struct Uncore {
    llc: Box<dyn LlcOrganization>,
    dram: Dram,
}

impl Uncore {
    /// Creates the shared uncore from a configuration.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Uncore {
        Uncore::with_llc(cfg, cfg.llc_kind.build(cfg.llc, cfg.llc_policy))
    }

    /// Creates the shared uncore around a pre-built LLC — the traced
    /// path, where the caller constructs the organization with an event
    /// sink (`LlcKind::build_traced`) before handing it over.
    #[must_use]
    pub fn with_llc(cfg: &SimConfig, llc: Box<dyn LlcOrganization>) -> Uncore {
        Uncore {
            llc,
            dram: Dram::new(cfg.dram),
        }
    }

    /// The LLC organization under study.
    #[must_use]
    pub fn llc(&self) -> &dyn LlcOrganization {
        self.llc.as_ref()
    }

    /// Mutable access to the LLC organization, for draining its event
    /// sink between phases of a traced run.
    pub fn llc_mut(&mut self) -> &mut dyn LlcOrganization {
        self.llc.as_mut()
    }

    /// The DRAM model.
    #[must_use]
    pub fn dram(&self) -> &Dram {
        &self.dram
    }
}

/// Back-invalidation agent over every core's private caches.
struct InnerAgent<'a> {
    cores: &'a mut [CoreCaches],
}

impl InclusionAgent for InnerAgent<'_> {
    fn back_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let mut dirty: Option<CacheLine> = None;
        for core in self.cores.iter_mut() {
            // L1 data is the freshest; take the first dirty copy found.
            for cache in [&mut core.l1d, &mut core.l1i, &mut core.l2] {
                if let Some(ev) = cache.invalidate(addr) {
                    if ev.dirty && dirty.is_none() {
                        dirty = Some(ev.data);
                    }
                }
            }
        }
        dirty
    }
}

/// A single-core view: one set of private caches plus the uncore. For
/// multi-core simulation, `Hierarchy::access_on` takes the core index.
pub struct Hierarchy {
    cfg: SimConfig,
    cores: Vec<CoreCaches>,
    uncore: Uncore,
}

impl Hierarchy {
    /// Builds a hierarchy with `n_cores` private cache sets sharing one
    /// LLC and DRAM.
    #[must_use]
    pub fn new(cfg: SimConfig, n_cores: usize) -> Hierarchy {
        Hierarchy {
            cfg,
            cores: (0..n_cores).map(|_| CoreCaches::new(&cfg)).collect(),
            uncore: Uncore::new(&cfg),
        }
    }

    /// Builds a hierarchy around a pre-built LLC (the traced path).
    #[must_use]
    pub fn with_llc(cfg: SimConfig, n_cores: usize, llc: Box<dyn LlcOrganization>) -> Hierarchy {
        Hierarchy {
            cfg,
            cores: (0..n_cores).map(|_| CoreCaches::new(&cfg)).collect(),
            uncore: Uncore::with_llc(&cfg, llc),
        }
    }

    /// The shared uncore.
    #[must_use]
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Mutable access to the shared uncore.
    pub fn uncore_mut(&mut self) -> &mut Uncore {
        &mut self.uncore
    }

    /// Consumes the hierarchy and returns the LLC organization, so a
    /// traced run's caller can drain the sink after the run.
    #[must_use]
    pub fn into_llc(self) -> Box<dyn LlcOrganization> {
        self.uncore.llc
    }

    /// One core's private caches.
    #[must_use]
    pub fn core(&self, id: usize) -> &CoreCaches {
        &self.cores[id]
    }

    /// LLC hit latency including the organization's tag and decompression
    /// penalties for a hit of kind `kind`.
    fn llc_hit_latency(&self, kind: HitKind) -> u64 {
        let base = u64::from(self.cfg.core.llc_latency + self.cfg.extra_llc_latency)
            + u64::from(self.uncore.llc.tag_latency_penalty());
        let decompress = kind
            .size()
            .map_or(0, |s| u64::from(self.uncore.llc.decompression_latency(s)));
        base + decompress
    }

    /// Fills a line into a core's L2, handling the L2 eviction: dirty
    /// victims write back to the LLC, clean victims send a downgrade hint
    /// (consumed by CHAR-style policies).
    fn fill_l2(&mut self, core_id: usize, addr: LineAddr, data: CacheLine) {
        let evicted = self.cores[core_id].l2.fill(addr, data, false);
        if let Some(ev) = evicted {
            // Enforce L1 ⊆ L2.
            let mut dirty = ev.dirty;
            let mut wdata = ev.data;
            let core = &mut self.cores[core_id];
            for l1 in [&mut core.l1d, &mut core.l1i] {
                if let Some(e1) = l1.invalidate(ev.addr) {
                    if e1.dirty {
                        dirty = true;
                        wdata = e1.data;
                    }
                }
            }
            if dirty {
                let mut agent = InnerAgent {
                    cores: &mut self.cores,
                };
                self.uncore.llc.writeback(ev.addr, wdata, &mut agent);
            } else {
                self.uncore.llc.hint_downgrade(ev.addr);
            }
        }
    }

    /// Fills a line into a core's L1 (instruction or data side), handling
    /// the L1 eviction: dirty victims write into the L2.
    fn fill_l1(&mut self, core_id: usize, ifetch: bool, addr: LineAddr, data: CacheLine) {
        let core = &mut self.cores[core_id];
        let l1 = if ifetch { &mut core.l1i } else { &mut core.l1d };
        if let Some(ev) = l1.fill(addr, data, false) {
            if ev.dirty {
                // L1 ⊆ L2 holds, so this write hits the L2.
                let wrote = core.l2.write(ev.addr, ev.data);
                debug_assert!(wrote, "L1 victim {0:?} missing from L2", ev.addr);
            }
        }
    }

    /// Performs one demand access at core-cycle `now`, returning where it
    /// hit and its latency. `gen` supplies line data for fills and store
    /// values.
    pub fn access_on(
        &mut self,
        core_id: usize,
        ev: &TraceEvent,
        now: u64,
        gen: &TraceGenerator,
    ) -> AccessOutcome {
        let addr = LineAddr::from_byte_addr(ev.addr);
        let ifetch = ev.kind == AccessKind::Ifetch;
        let is_store = ev.kind.is_write();
        let store_data = is_store.then(|| gen.line_data(ev.addr));

        // L1 lookup.
        let core = &mut self.cores[core_id];
        let l1 = if ifetch { &mut core.l1i } else { &mut core.l1d };
        let l1_hit = match store_data {
            Some(data) => l1.write(addr, data),
            None => l1.read(addr),
        };

        // Train the prefetcher on every demand access. Section V models
        // "aggressive multi-stream instruction and data prefetchers", so
        // instruction fetches train streams too (sequential code is the
        // easiest stream there is).
        let mut prefetches = std::mem::take(&mut core.prefetches);
        prefetches.clear();
        core.prefetcher.observe(ev.addr, &mut prefetches);

        let outcome = if l1_hit {
            AccessOutcome {
                level: LevelHit::L1,
                latency: u64::from(self.cfg.core.l1_latency),
            }
        } else {
            let outcome = self.access_below_l1(core_id, ifetch, addr, now, gen);
            // Write-allocate: apply the store on top of the filled line.
            if let Some(data) = store_data {
                let core = &mut self.cores[core_id];
                let wrote = core.l1d.write(addr, data);
                debug_assert!(wrote, "write-allocate failed for {addr:?}");
            }
            outcome
        };

        // Issue prefetches below the L1 (they fill L2 + LLC). Most
        // candidates are already in the L2 and need nothing.
        for &pa in &prefetches {
            let addr = LineAddr::from_byte_addr(pa);
            if self.cores[core_id].l2.probe(addr).is_none() {
                self.prefetch_line(core_id, addr, now, gen);
            }
        }
        self.cores[core_id].prefetches = prefetches;

        outcome
    }

    /// L2 -> LLC -> memory path for an L1 miss, filling each level on the
    /// way back.
    fn access_below_l1(
        &mut self,
        core_id: usize,
        ifetch: bool,
        addr: LineAddr,
        now: u64,
        gen: &TraceGenerator,
    ) -> AccessOutcome {
        // L2 lookup.
        if self.cores[core_id].l2.read(addr) {
            let data = self.cores[core_id]
                .l2
                .peek_data(addr)
                .expect("hit line has data");
            self.fill_l1(core_id, ifetch, addr, data);
            return AccessOutcome {
                level: LevelHit::L2,
                latency: u64::from(self.cfg.core.l2_latency),
            };
        }

        // LLC lookup.
        let (kind, llc_data) = {
            let mut agent = InnerAgent {
                cores: &mut self.cores,
            };
            let out = self.uncore.llc.read(addr, &mut agent);
            // Every memory write the LLC performed hits the DRAM write
            // path (bandwidth; not on the load's critical path).
            for _ in 0..out.effects.memory_writes {
                self.uncore.dram.access(now, addr.byte_addr(), true);
            }
            (out.kind, self.uncore.llc.peek_data(addr))
        };

        if kind.is_hit() {
            let data = llc_data.expect("hit line has data");
            let latency = self.llc_hit_latency(kind);
            self.fill_l2(core_id, addr, data);
            self.fill_l1(core_id, ifetch, addr, data);
            let level = match kind {
                HitKind::Victim(_) => LevelHit::LlcVictim,
                _ => LevelHit::LlcBase,
            };
            return AccessOutcome { level, latency };
        }

        // Memory fetch. The request leaves the core after the LLC lookup
        // pipeline; the controller prioritizes it over queued prefetches.
        let issue = now + u64::from(self.cfg.core.llc_latency);
        let done = self.uncore.dram.demand_access(issue, addr.byte_addr());
        let data = gen.line_data(addr.byte_addr());
        {
            let mut agent = InnerAgent {
                cores: &mut self.cores,
            };
            let out = self.uncore.llc.fill(addr, data, &mut agent);
            for _ in 0..out.effects.memory_writes {
                self.uncore.dram.access(now, addr.byte_addr(), true);
            }
        }
        self.fill_l2(core_id, addr, data);
        self.fill_l1(core_id, ifetch, addr, data);
        AccessOutcome {
            level: LevelHit::Memory,
            latency: done.saturating_sub(now),
        }
    }

    /// Issues one prefetch of a line absent from the core's L2: fills the
    /// LLC if absent (consuming DRAM bandwidth off the critical path) and
    /// the L2.
    fn prefetch_line(&mut self, core_id: usize, addr: LineAddr, now: u64, gen: &TraceGenerator) {
        let byte_addr = addr.byte_addr();
        let fills_before = self.uncore.llc.stats().prefetch_fills;
        let data = gen.line_data(byte_addr);
        {
            let mut agent = InnerAgent {
                cores: &mut self.cores,
            };
            if let Some(out) = self.uncore.llc.prefetch_fill(addr, data, &mut agent) {
                for _ in 0..out.effects.memory_writes {
                    self.uncore.dram.access(now, byte_addr, true);
                }
            }
        }
        // A new LLC fill means the line actually came from memory.
        if self.uncore.llc.stats().prefetch_fills > fills_before {
            self.uncore.dram.access(now, byte_addr, false);
        }
        // Bring the line into the L2 as well (data prefetchers fill the
        // core-side caches in the modeled design).
        let data = self
            .uncore
            .llc
            .peek_data(addr)
            .expect("line resident after prefetch");
        // The LLC fill can only back-invalidate inner lines, so the line
        // is still absent from the L2.
        self.fill_l2(core_id, addr, data);
    }

    /// Checks strict inclusion: every L1/L2-resident line is LLC-resident.
    /// Used by integration tests.
    ///
    /// # Panics
    ///
    /// Panics if inclusion is violated.
    pub fn assert_inclusion(&self) {
        for (i, core) in self.cores.iter().enumerate() {
            for cache in [&core.l1i, &core.l1d, &core.l2] {
                for line in cache.resident_lines() {
                    assert!(
                        self.uncore.llc.contains(line),
                        "core {i}: line {line:?} in inner cache but not LLC"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcKind;
    use bv_trace::synth::{KernelSpec, WorkloadSpec};
    use bv_trace::{DataProfile, KernelKind};

    fn tiny_workload() -> WorkloadSpec {
        WorkloadSpec {
            kernels: vec![KernelSpec {
                kind: KernelKind::Loop,
                region_bytes: 1 << 20,
                weight: 1,
                store_fraction: 64,
                profile: DataProfile::SmallInt,
            }],
            mem_fraction: 128,
            ifetch_fraction: 16,
            code_bytes: 16 << 10,
            seed: 7,
        }
    }

    fn event(addr: u64, kind: AccessKind) -> TraceEvent {
        TraceEvent {
            gap: 0,
            pc: 0x400000,
            addr,
            kind,
            dependent: false,
        }
    }

    #[test]
    fn l1_hit_after_fill() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let e = event(0x1_0000_0000, AccessKind::Load);
        let first = h.access_on(0, &e, 0, &gen);
        assert_eq!(first.level, LevelHit::Memory);
        let second = h.access_on(0, &e, first.latency, &gen);
        assert_eq!(second.level, LevelHit::L1);
        assert_eq!(second.latency, 3);
    }

    #[test]
    fn memory_latency_includes_dram() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let out = h.access_on(0, &event(0x1_0000_0000, AccessKind::Load), 0, &gen);
        // LLC pipeline (24) + DRAM idle row miss ((15+15+4)*5 = 170).
        assert!(out.latency >= 170, "latency {} too small", out.latency);
    }

    #[test]
    fn inclusion_holds_under_traffic() {
        let cfg = SimConfig::single_thread(LlcKind::BaseVictim);
        let mut h = Hierarchy::new(cfg, 1);
        let mut gen = tiny_workload().generator();
        for i in 0..20_000 {
            let e = gen.next_event();
            h.access_on(0, &e, i, &gen);
            if i % 4096 == 0 {
                h.assert_inclusion();
            }
        }
        h.assert_inclusion();
    }

    #[test]
    fn streaming_accesses_get_prefetched() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let base = 0x2_0000_0000u64;
        let mut memory_hits = 0;
        for i in 0..64 {
            let out = h.access_on(0, &event(base + i * 64, AccessKind::Load), i, &gen);
            if out.level == LevelHit::Memory {
                memory_hits += 1;
            }
        }
        // After training (2 accesses), the stream runs ahead: most demand
        // accesses find their lines in the L2.
        assert!(
            memory_hits <= 4,
            "prefetcher ineffective: {memory_hits} memory-level accesses"
        );
    }

    #[test]
    fn stores_dirty_lines_and_write_back() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        // Store to one line, then walk far past both L1 and L2 capacity so
        // the dirty line is forced down to the LLC.
        let victim = 0x1_0000_0000u64;
        h.access_on(0, &event(victim, AccessKind::Store), 0, &gen);
        for i in 1..20_000u64 {
            h.access_on(0, &event(victim + i * 64 * 64, AccessKind::Load), i, &gen);
        }
        // The dirty line must either still be dirty somewhere in the
        // hierarchy or have been written back to DRAM.
        let wb = h.uncore().llc().stats().writeback_hits;
        assert!(wb > 0, "no L2 writeback reached the LLC");
    }

    #[test]
    fn ifetch_misses_use_the_instruction_cache() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let code = 0x40_0000u64;
        let first = h.access_on(0, &event(code, AccessKind::Ifetch), 0, &gen);
        assert_eq!(first.level, LevelHit::Memory);
        let second = h.access_on(0, &event(code, AccessKind::Ifetch), 1000, &gen);
        assert_eq!(second.level, LevelHit::L1, "L1I holds the line");
        // The same address on the data side is an L2 hit, not an L1D hit:
        // the line was filled into L1I and L2, not L1D.
        let data_side = h.access_on(0, &event(code, AccessKind::Load), 2000, &gen);
        assert_eq!(data_side.level, LevelHit::L2);
    }

    #[test]
    fn store_write_allocates_and_dirties() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let mut gen = tiny_workload().generator();
        // Advance the generator so line_data has an epoch table.
        for _ in 0..10 {
            gen.next_event();
        }
        let a = 0x1_0000_0000u64;
        let out = h.access_on(0, &event(a, AccessKind::Store), 0, &gen);
        assert_eq!(
            out.level,
            LevelHit::Memory,
            "write-allocate fetches the line"
        );
        // The line is now dirty in the L1D.
        let addr = LineAddr::from_byte_addr(a);
        assert_eq!(h.core(0).l1d().is_dirty(addr), Some(true));
        // A subsequent load hits the L1D.
        let out = h.access_on(0, &event(a, AccessKind::Load), 100, &gen);
        assert_eq!(out.level, LevelHit::L1);
    }

    #[test]
    fn prefetches_fill_l2_but_not_l1() {
        let cfg = SimConfig::single_thread(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 1);
        let gen = tiny_workload().generator();
        let base = 0x3_0000_0000u64;
        // Train a stream: two sequential accesses trigger run-ahead.
        h.access_on(0, &event(base, AccessKind::Load), 0, &gen);
        h.access_on(0, &event(base + 64, AccessKind::Load), 10, &gen);
        // The next line was prefetched into L2 (and LLC), not L1.
        let next = LineAddr::from_byte_addr(base + 128);
        assert!(h.core(0).l2().probe(next).is_some(), "prefetched into L2");
        assert!(h.core(0).l1d().probe(next).is_none(), "not into L1");
        let out = h.access_on(0, &event(base + 128, AccessKind::Load), 20, &gen);
        assert_eq!(out.level, LevelHit::L2);
    }

    #[test]
    fn multicore_private_caches_are_isolated() {
        let cfg = SimConfig::multi_program(LlcKind::Uncompressed);
        let mut h = Hierarchy::new(cfg, 2);
        let gen = tiny_workload().generator();
        let a = 0x5_0000_0000u64;
        h.access_on(0, &event(a, AccessKind::Load), 0, &gen);
        // Core 1 misses its private caches but hits the shared LLC.
        let out = h.access_on(1, &event(a, AccessKind::Load), 100, &gen);
        assert_eq!(out.level, LevelHit::LlcBase, "shared LLC serves core 1");
    }

    #[test]
    fn victim_hits_report_their_level() {
        let cfg = SimConfig::single_thread(LlcKind::BaseVictim);
        let mut h = Hierarchy::new(cfg, 1);
        let mut gen = tiny_workload().generator();
        let mut victim_hits = 0;
        for i in 0..200_000 {
            let e = gen.next_event();
            let out = h.access_on(0, &e, i, &gen);
            if out.level == LevelHit::LlcVictim {
                victim_hits += 1;
            }
        }
        assert_eq!(
            victim_hits,
            h.uncore().llc().stats().victim_hits,
            "hierarchy and LLC disagree on victim hits"
        );
    }
}
