//! The content-addressed artifact cache.
//!
//! The cache lives in memory: a small LRU of full [`Artifact`]s —
//! derived plan, dependence analysis, and the lowered tape. No plan
//! outlives its process. Deriving one is a single linear pass over the
//! dependence chain multigraph, microseconds for a suite program, which
//! is cheaper than reading and checking a stored copy; so a fresh
//! process derives.
//!
//! A key match serves the artifact: the plan is a function of the
//! program and the [`PlanConfig`](shift_peel_core::PlanConfig) alone,
//! and runs on any grid and backend. Theorem 1's block-size condition is
//! the executor's to check, on the grid of the run in hand: it fits every
//! fused group's blocks to `Nt` and checks them before anything runs.
//!
//! Alongside the artifact tier sits an *analysis* tier: dependence
//! analyses keyed by the program's digest
//! ([`SharedProgram::digest`](crate::SharedProgram::digest), the FNV-1a
//! of its text, which every job already holds). The analysis reads
//! nothing but the sequence, so a full-key miss caused by a different
//! planning configuration (fused versus blocked, say) still hits here,
//! and the planner starts from the held analysis instead of recomputing
//! it.
//!
//! What does persist is the lifetime counters: with a stats directory
//! ([`ArtifactCacheConfig::disk`]), the service adds this instance's
//! counts to the lifetime stats file there when it is dropped
//! ([`disk_stats`](crate::disk_stats)), so `spfc cache stats` aggregates
//! across processes.

use crate::hash::CacheKey;
use shift_peel_core::FusionPlan;
use sp_dep::SequenceDeps;
use sp_exec::ProgramTape;
use sp_trace::MetricsRegistry;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One cached compilation: everything derivable from a [`CacheKey`]'s
/// inputs.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The content address this artifact was compiled under.
    pub key: CacheKey,
    /// The derived fusion plan (shifts, peels, grouping).
    pub plan: Arc<FusionPlan>,
    /// The dependence analysis the plan was derived from.
    pub deps: Arc<SequenceDeps>,
    /// The lowered tape, which both tape backends run.
    pub tape: Arc<ProgramTape>,
}

/// Lifetime counters, also persisted to the stats directory so `spfc
/// cache stats` can aggregate across processes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the LRU.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Artifacts inserted.
    pub inserts: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Analysis-tier hits (dependence analysis reused across a full-key
    /// miss).
    pub analysis_hits: u64,
    /// Analysis-tier misses.
    pub analysis_misses: u64,
}

impl CacheCounters {
    /// Every hit: the LRU's, the only tier that serves an artifact.
    pub fn total_hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn add(&mut self, o: &CacheCounters) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.inserts += o.inserts;
        self.evictions += o.evictions;
        self.analysis_hits += o.analysis_hits;
        self.analysis_misses += o.analysis_misses;
    }
}

/// Cache sizing and placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactCacheConfig {
    /// Capacity of the in-memory LRU tier.
    pub memory_entries: usize,
    /// Directory the lifetime stats persist to; `None` keeps them in
    /// this process.
    pub disk_dir: Option<PathBuf>,
}

impl Default for ArtifactCacheConfig {
    fn default() -> Self {
        ArtifactCacheConfig {
            memory_entries: 64,
            disk_dir: None,
        }
    }
}

impl ArtifactCacheConfig {
    /// Memory-only cache holding up to `entries` artifacts.
    pub fn memory(entries: usize) -> Self {
        ArtifactCacheConfig {
            memory_entries: entries.max(1),
            disk_dir: None,
        }
    }

    /// Persists lifetime stats under `dir`.
    pub fn disk(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }
}

/// The artifact cache. Not internally synchronized — the
/// [`Service`](crate::service::Service) wraps it in a mutex.
#[derive(Debug)]
pub struct ArtifactCache {
    cfg: ArtifactCacheConfig,
    /// LRU order: front is coldest, back is hottest.
    entries: Vec<Artifact>,
    /// Analysis tier, same LRU discipline: dependence analyses keyed by
    /// program digest.
    analysis: Vec<(u64, Arc<SequenceDeps>)>,
    counters: CacheCounters,
}

impl ArtifactCache {
    /// An empty cache. Creates the stats directory eagerly so a later
    /// flush has somewhere to land.
    pub fn new(cfg: ArtifactCacheConfig) -> ArtifactCache {
        if let Some(dir) = &cfg.disk_dir {
            let _ = fs::create_dir_all(dir);
        }
        ArtifactCache {
            cfg,
            entries: Vec::new(),
            analysis: Vec::new(),
            counters: CacheCounters::default(),
        }
    }

    /// This instance's lifetime counters (not including prior processes;
    /// see [`disk_stats`](crate::disk_stats)).
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of artifacts currently resident in the memory tier.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key`. Returns the artifact, or `None` — the caller then
    /// compiles and should [`insert`](ArtifactCache::insert) the result.
    pub fn lookup(&mut self, key: CacheKey) -> Option<Artifact> {
        let Some(pos) = self.entries.iter().position(|a| a.key == key) else {
            self.counters.misses += 1;
            return None;
        };
        let art = self.entries.remove(pos);
        self.entries.push(art.clone());
        self.counters.hits += 1;
        Some(art)
    }

    /// Inserts (or refreshes) an artifact: hottest LRU position, coldest
    /// entry evicted past capacity.
    pub fn insert(&mut self, art: Artifact) {
        if let Some(pos) = self.entries.iter().position(|a| a.key == art.key) {
            self.entries.remove(pos);
        }
        self.entries.push(art);
        self.counters.inserts += 1;
        while self.entries.len() > self.cfg.memory_entries.max(1) {
            self.entries.remove(0);
            self.counters.evictions += 1;
        }
    }

    /// Looks up the dependence analysis of the program with digest `key`
    /// in the analysis tier. Counted separately from full-artifact
    /// lookups: callers consult this tier only after a full-key miss, so
    /// an analysis hit means planning starts from the held analysis
    /// instead of from scratch.
    pub fn lookup_analysis(&mut self, key: u64) -> Option<Arc<SequenceDeps>> {
        if let Some(pos) = self.analysis.iter().position(|(k, _)| *k == key) {
            let e = self.analysis.remove(pos);
            let deps = Arc::clone(&e.1);
            self.analysis.push(e);
            self.counters.analysis_hits += 1;
            Some(deps)
        } else {
            self.counters.analysis_misses += 1;
            None
        }
    }

    /// Inserts (or refreshes) a dependence analysis under its program's
    /// digest.
    pub fn insert_analysis(&mut self, key: u64, deps: Arc<SequenceDeps>) {
        if let Some(pos) = self.analysis.iter().position(|(k, _)| *k == key) {
            self.analysis.remove(pos);
        }
        self.analysis.push((key, deps));
        while self.analysis.len() > self.cfg.memory_entries.max(1) {
            self.analysis.remove(0);
        }
    }

    /// Number of dependence analyses resident in the analysis tier.
    pub fn analysis_len(&self) -> usize {
        self.analysis.len()
    }

    /// The stats directory, if this cache has one.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.cfg.disk_dir.as_deref()
    }

    /// Registers cache counters and occupancy on `reg` under
    /// `spfc_cache_*` names.
    pub fn register_metrics(&self, reg: &mut MetricsRegistry) {
        let c = &self.counters;
        reg.counter("spfc_cache_hits_total", "Memory-tier cache hits", c.hits);
        reg.counter("spfc_cache_misses_total", "Cache misses", c.misses);
        reg.counter("spfc_cache_inserts_total", "Artifacts inserted", c.inserts);
        reg.counter("spfc_cache_evictions_total", "LRU evictions", c.evictions);
        reg.counter(
            "spfc_cache_analysis_hits_total",
            "Analysis-tier hits (dependence analysis reused)",
            c.analysis_hits,
        );
        reg.counter(
            "spfc_cache_analysis_misses_total",
            "Analysis-tier misses",
            c.analysis_misses,
        );
        reg.gauge(
            "spfc_cache_entries",
            "Artifacts resident in the memory tier",
            self.entries.len() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_peel_core::{PlanConfig, Planner};
    use sp_cache::LayoutStrategy;
    use sp_dep::analyze_sequence;
    use sp_exec::Memory;
    use sp_kernels::jacobi;

    #[test]
    fn analysis_tier_hits_survive_full_key_misses() {
        let seq = jacobi::sequence(32);
        let deps = Arc::new(analyze_sequence(&seq).unwrap());
        let akey = crate::SharedProgram::from(seq.clone()).digest();
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(2));
        assert!(c.lookup_analysis(akey).is_none(), "cold tier misses");
        c.insert_analysis(akey, Arc::clone(&deps));
        let got = c.lookup_analysis(akey).expect("analysis hit");
        assert!(Arc::ptr_eq(&got, &deps), "same analysis served");
        assert_eq!(c.counters().analysis_hits, 1);
        assert_eq!(c.counters().analysis_misses, 1);
        // LRU capacity applies to the analysis tier too.
        c.insert_analysis(1, Arc::clone(&deps));
        c.insert_analysis(2, Arc::clone(&deps));
        assert_eq!(c.analysis_len(), 2);
        assert!(c.lookup_analysis(akey).is_none(), "coldest evicted");
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let seq = jacobi::sequence(32);
        let planned = Planner::new(PlanConfig::fused(2)).plan(&seq).unwrap();
        let mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        let art = Artifact {
            key: CacheKey(0),
            plan: planned.plan,
            deps: planned.deps,
            tape: Arc::new(ProgramTape::lower(&seq, &mem.layout)),
        };
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(2));
        let keys: Vec<CacheKey> = (0..3).map(CacheKey).collect();
        for &key in &keys[..2] {
            c.insert(Artifact { key, ..art.clone() });
        }
        // Touch key 0 so key 1 becomes coldest.
        assert!(c.lookup(keys[0]).is_some());
        c.insert(Artifact {
            key: keys[2],
            ..art
        });
        assert_eq!(c.counters().evictions, 1);
        assert!(c.lookup(keys[1]).is_none(), "coldest entry evicted");
        assert!(c.lookup(keys[0]).is_some(), "recently used entry kept");
        assert_eq!(c.len(), 2);
    }
}
