//! The content-addressed artifact cache.
//!
//! The cache lives in memory: a small LRU of full [`Artifact`]s —
//! derived plan, dependence analysis, and (for the tape backends) the
//! lowered tape. No plan outlives its process. Deriving one is a single
//! linear pass over the dependence chain multigraph, microseconds for a
//! suite program, which is cheaper than reading, checking and
//! revalidating a stored copy; so a fresh process derives.
//!
//! Revalidation policy: a key match is necessary but not sufficient. The
//! key hashes the processor *count*, not the grid *shape*, so every
//! lookup re-checks Theorem 1 against the request's grid via
//! [`revalidate_plan`]. A rejected entry stays cached — it is still
//! valid for the grid it was derived under — and the lookup degrades to
//! a miss.
//!
//! Alongside the artifact tier sits an *analysis* tier: dependence
//! analyses keyed by the program's digest
//! ([`SharedProgram::digest`](crate::SharedProgram::digest), the FNV-1a
//! of its text, which every job already holds). The analysis reads
//! nothing but the sequence, so a full-key miss caused by a block-size,
//! grid, or backend change still hits here, and the planner starts from
//! the held analysis instead of recomputing it.
//!
//! What does persist is the lifetime counters: with a stats directory
//! ([`ArtifactCacheConfig::disk`]), [`ArtifactCache::flush_stats`] adds
//! this instance's counts to `<dir>/stats`, so `spfc cache stats`
//! aggregates across processes.

use crate::hash::CacheKey;
use shift_peel_core::analysis::revalidate_plan;
use shift_peel_core::FusionPlan;
use sp_dep::SequenceDeps;
use sp_exec::ProgramTape;
use sp_ir::LoopSequence;
use sp_trace::MetricsRegistry;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// The lowered tape (tape backends only).
    pub tape: Option<Arc<ProgramTape>>,
}

/// Lifetime counters, also persisted to `<dir>/stats` so `spfc cache
/// stats` can aggregate across processes.
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
    /// Key matches rejected by Theorem-1 grid revalidation.
    pub revalidation_rejects: u64,
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

    fn add(&mut self, o: &CacheCounters) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.inserts += o.inserts;
        self.evictions += o.evictions;
        self.revalidation_rejects += o.revalidation_rejects;
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
    /// see [`disk_stats`]).
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

    /// Looks up `key`, revalidating any match against `grid` (the
    /// request's processor grid; empty for serial runs). Returns the
    /// artifact, or `None` — the caller then compiles and should
    /// [`insert`](ArtifactCache::insert) the result.
    pub fn lookup(
        &mut self,
        key: CacheKey,
        seq: &LoopSequence,
        grid: &[usize],
    ) -> Option<Artifact> {
        if let Some(pos) = self.entries.iter().position(|a| a.key == key) {
            if grid.is_empty() || revalidate_plan(seq, &self.entries[pos].plan, grid).is_ok() {
                let art = self.entries.remove(pos);
                self.entries.push(art.clone());
                self.counters.hits += 1;
                return Some(art);
            }
            // Still valid for the grid it was derived under: keep it.
            self.counters.revalidation_rejects += 1;
        }
        self.counters.misses += 1;
        None
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

    /// Persists lifetime counters by *adding* this instance's counts to
    /// `<dir>/stats` (so concurrent and successive processes aggregate),
    /// then zeroes the in-memory counts. No-op without a stats directory.
    ///
    /// The read-modify-write runs under an advisory file lock
    /// (`StatsLock`) and the rewrite lands via an atomic rename, so
    /// concurrent flushers — other threads or other processes — cannot
    /// lose each other's counts. The in-memory deltas are zeroed only
    /// after the aggregate is durably on disk; on any failure (lock
    /// timeout, full disk) they are kept and simply ride along into the
    /// next flush.
    pub fn flush_stats(&mut self) {
        let Some(dir) = self.cfg.disk_dir.clone() else {
            return;
        };
        self.flush_stats_to(&dir);
    }

    /// The stats directory, if this cache has one. The serve tier uses it
    /// to co-locate its stage-latency stats with the cache counters.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.cfg.disk_dir.as_deref()
    }

    fn flush_stats_to(&mut self, dir: &Path) {
        let Some(_lock) = StatsLock::acquire(dir) else {
            return;
        };
        let mut total = disk_stats(dir);
        total.add(&self.counters);
        if write_stats(dir, &total).is_ok() {
            self.counters = CacheCounters::default();
        }
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
            "spfc_cache_revalidation_rejects_total",
            "Key matches rejected by Theorem-1 grid revalidation",
            c.revalidation_rejects,
        );
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

/// Advisory lock over `<dir>/stats`, held for the duration of one
/// read-modify-write. `O_EXCL` creation of `<dir>/stats.lock` is the
/// mutual exclusion (atomic on every platform and over NFS); dropping
/// the guard removes the file. A lock older than [`StatsLock::STALE`]
/// is presumed abandoned by a crashed process and stolen — stats
/// flushes are microseconds, not seconds.
pub(crate) struct StatsLock {
    path: PathBuf,
}

impl StatsLock {
    /// Age beyond which a held lock is treated as leaked.
    const STALE: Duration = Duration::from_secs(2);
    /// How long `acquire` spins before giving up.
    const PATIENCE: Duration = Duration::from_millis(500);

    pub(crate) fn acquire(dir: &Path) -> Option<StatsLock> {
        let path = dir.join("stats.lock");
        let deadline = Instant::now() + Self::PATIENCE;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Some(StatsLock { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age > Self::STALE);
                    if stale {
                        // Best-effort steal; the retry re-races the
                        // create, so two stealers cannot both win.
                        let _ = fs::remove_file(&path);
                    } else if Instant::now() >= deadline {
                        return None;
                    } else {
                        std::thread::sleep(Duration::from_micros(500));
                    }
                }
                Err(_) => return None,
            }
        }
    }
}

impl Drop for StatsLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Aggregate counters previously [`flush_stats`](ArtifactCache::flush_stats)ed
/// to `dir`. Zero if absent or unreadable.
pub fn disk_stats(dir: &Path) -> CacheCounters {
    let mut c = CacheCounters::default();
    let Ok(text) = fs::read_to_string(dir.join("stats")) else {
        return c;
    };
    let mut lines = text.lines();
    if lines.next() != Some("spfc-cache-stats-v1") {
        return CacheCounters::default();
    }
    for line in lines {
        let Some((name, value)) = line.split_once(' ') else {
            continue;
        };
        let Ok(v) = value.parse::<u64>() else {
            continue;
        };
        match name {
            "hits" => c.hits = v,
            "misses" => c.misses = v,
            "inserts" => c.inserts = v,
            "evictions" => c.evictions = v,
            "revalidation_rejects" => c.revalidation_rejects = v,
            "analysis_hits" => c.analysis_hits = v,
            "analysis_misses" => c.analysis_misses = v,
            _ => {}
        }
    }
    c
}

/// Writes the stats file atomically: a unique temp file in the same
/// directory, then a rename over `<dir>/stats`, so a reader (or a
/// crash) never observes a half-written file.
fn write_stats(dir: &Path, c: &CacheCounters) -> std::io::Result<()> {
    let tmp = dir.join(format!("stats.tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        writeln!(f, "spfc-cache-stats-v1")?;
        writeln!(f, "hits {}", c.hits)?;
        writeln!(f, "misses {}", c.misses)?;
        writeln!(f, "inserts {}", c.inserts)?;
        writeln!(f, "evictions {}", c.evictions)?;
        writeln!(f, "revalidation_rejects {}", c.revalidation_rejects)?;
        writeln!(f, "analysis_hits {}", c.analysis_hits)?;
        writeln!(f, "analysis_misses {}", c.analysis_misses)?;
        f.sync_all()?;
    }
    let renamed = fs::rename(&tmp, dir.join("stats"));
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

/// Deletes the lifetime stats under `dir`: the cache counters and the
/// serve tier's stage-stats file, under the stats lock so no flush
/// interleaves.
pub fn clear_disk(dir: &Path) {
    let _lock = StatsLock::acquire(dir);
    let _ = fs::remove_file(dir.join("stats"));
    let _ = fs::remove_file(dir.join("stage-stats"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_peel_core::{PlanConfig, Planner};
    use sp_dep::analyze_sequence;
    use sp_exec::Backend;
    use sp_kernels::jacobi;

    fn derived(n: usize) -> (LoopSequence, Artifact) {
        let seq = jacobi::sequence(n);
        let cfg = PlanConfig::fused(2);
        let planned = Planner::new(cfg).plan(&seq).unwrap();
        let art = Artifact {
            key: CacheKey::compute(&seq, &cfg, Backend::Compiled, 4),
            plan: planned.plan,
            deps: planned.deps,
            tape: None,
        };
        (seq, art)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sp-serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Two flushers racing on the same stats file must not lose counts:
    /// the read-modify-write is serialized by the advisory lock, and the
    /// final aggregate equals the sum of everything both sides counted.
    #[test]
    fn concurrent_flushes_lose_no_counts() {
        let dir = tmpdir("race");
        const ROUNDS: u64 = 40;
        let spawn = |dir: PathBuf, hits: u64| {
            std::thread::spawn(move || {
                let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4).disk(&dir));
                for _ in 0..ROUNDS {
                    c.counters.hits += hits;
                    c.counters.misses += 1;
                    c.flush_stats();
                    assert_eq!(
                        c.counters(),
                        CacheCounters::default(),
                        "deltas zeroed only after a successful flush"
                    );
                }
            })
        };
        let a = spawn(dir.clone(), 1);
        let b = spawn(dir.clone(), 2);
        a.join().unwrap();
        b.join().unwrap();
        let total = disk_stats(&dir);
        assert_eq!(total.hits, ROUNDS * 3, "no flush overwrote another");
        assert_eq!(total.misses, ROUNDS * 2);
        assert!(!dir.join("stats.lock").exists(), "lock released");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crashed process's leaked lock file must not wedge future
    /// flushes forever: past the staleness horizon it is stolen.
    #[test]
    fn stale_lock_is_stolen() {
        let dir = tmpdir("stale");
        fs::write(dir.join("stats.lock"), "").unwrap();
        // Backdate the lock past the staleness horizon (filetime is not
        // available offline, so wait it out only if setting mtime via
        // File::set_modified is unsupported).
        let back = std::time::SystemTime::now() - (StatsLock::STALE + Duration::from_secs(1));
        fs::File::options()
            .write(true)
            .open(dir.join("stats.lock"))
            .unwrap()
            .set_modified(back)
            .unwrap();
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4).disk(&dir));
        c.counters.hits = 7;
        c.flush_stats();
        assert_eq!(disk_stats(&dir).hits, 7, "stale lock did not block");
        assert_eq!(c.counters(), CacheCounters::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn revalidation_rejects_keep_the_entry() {
        let (seq, art) = derived(32);
        let key = art.key;
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4));
        c.insert(art);
        // jacobi(32): fused trips ~30 per level; 30 procs on one level
        // leaves a 1-deep block < Nt, so Theorem 1 rejects.
        assert!(
            c.lookup(key, &seq, &[30, 1]).is_none(),
            "Nt revalidation rejects"
        );
        assert_eq!(c.counters().revalidation_rejects, 1);
        // The same key still serves a compatible grid afterwards.
        assert!(
            c.lookup(key, &seq, &[2, 2]).is_some(),
            "entry survives the reject"
        );
    }

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
        // Counters round-trip through the stats file.
        let dir = tmpdir("analysis");
        let mut cd = ArtifactCache::new(ArtifactCacheConfig::memory(2).disk(&dir));
        cd.counters.analysis_hits = 3;
        cd.counters.analysis_misses = 5;
        cd.flush_stats();
        let total = disk_stats(&dir);
        assert_eq!((total.analysis_hits, total.analysis_misses), (3, 5));
        // Clearing resets the lifetime stats.
        clear_disk(&dir);
        assert_eq!(disk_stats(&dir), CacheCounters::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let (seq, art) = derived(32);
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(2));
        let keys: Vec<CacheKey> = (0..3).map(CacheKey).collect();
        for &key in &keys[..2] {
            c.insert(Artifact { key, ..art.clone() });
        }
        // Touch key 0 so key 1 becomes coldest.
        assert!(c.lookup(keys[0], &seq, &[2, 2]).is_some());
        c.insert(Artifact {
            key: keys[2],
            ..art
        });
        assert_eq!(c.counters().evictions, 1);
        assert!(
            c.lookup(keys[1], &seq, &[2, 2]).is_none(),
            "coldest entry evicted"
        );
        assert!(
            c.lookup(keys[0], &seq, &[2, 2]).is_some(),
            "recently used entry kept"
        );
        assert_eq!(c.len(), 2);
    }
}
