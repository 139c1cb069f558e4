//! The content-addressed artifact cache.
//!
//! Two tiers. The in-memory tier is a small LRU of full [`Artifact`]s —
//! derived plan, dependence analysis, and (for the tape backends) the
//! lowered tape. The optional on-disk tier persists *plans
//! only*, in a versioned, checksummed line format: plans are the
//! expensive legality-bearing half of compilation and are tiny, while
//! tapes bake in layout base addresses and are cheap to re-lower from a
//! cached plan. A disk hit therefore re-lowers the tape once and
//! upgrades the entry into the memory tier.
//!
//! Failure policy: a corrupt, truncated, or version-skewed disk entry is
//! *poisoned* — counted, best-effort deleted, and treated as a miss. The
//! cache never aborts a job; the worst case is always a recompile.
//!
//! Revalidation policy: a key match is necessary but not sufficient. The
//! key hashes the processor *count*, not the grid *shape*, so every
//! lookup re-checks Theorem 1 against the request's grid via
//! [`revalidate_plan`]. A rejected entry stays cached — it is still
//! valid for the grid it was derived under — and the lookup degrades to
//! a miss.
//!
//! Alongside the full-artifact tiers sits an *analysis* tier: dependence
//! analyses keyed by the program's digest
//! ([`SharedProgram::digest`](crate::SharedProgram::digest), the FNV-1a
//! of its text, which every job already holds). The analysis reads
//! nothing but the sequence, so a full-key miss caused by a block-size,
//! grid, or backend change still hits here, and the planner starts from
//! the held analysis instead of recomputing it. The tier is memory-only:
//! its key names nothing on disk.

use crate::hash::{fnv1a64, CacheKey, CACHE_FORMAT_VERSION};
use shift_peel_core::analysis::revalidate_plan;
use shift_peel_core::{CodegenMethod, Derivation, DimDerivation, FusedGroup, FusionPlan};
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
/// inputs. `deps` and `tape` are optional because the disk tier stores
/// plans only.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The content address this artifact was compiled under.
    pub key: CacheKey,
    /// The derived fusion plan (shifts, peels, grouping).
    pub plan: Arc<FusionPlan>,
    /// The dependence analysis the plan was derived from.
    pub deps: Option<Arc<SequenceDeps>>,
    /// The lowered tape (tape backends only).
    pub tape: Option<Arc<ProgramTape>>,
}

/// Which tier satisfied a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Served from the in-memory LRU.
    Memory,
    /// Loaded (plan only) from the on-disk tier.
    Disk,
}

/// Lifetime counters, also persisted to `<dir>/stats` so `spfc cache
/// stats` can aggregate across processes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Memory-tier hits.
    pub hits: u64,
    /// Disk-tier hits (plan loaded and revalidated).
    pub disk_hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Artifacts inserted (including disk-hit upgrades).
    pub inserts: u64,
    /// Memory-tier LRU evictions.
    pub evictions: u64,
    /// Disk entries rejected as corrupt/truncated/version-skewed.
    pub poisoned: u64,
    /// Key matches rejected by Theorem-1 grid revalidation.
    pub revalidation_rejects: u64,
    /// Plan entries [`clear_disk`] could not delete (permissions, or a
    /// directory squatting on an entry name).
    pub clear_failed: u64,
    /// Analysis-tier hits (dependence analysis reused across a full-key
    /// miss).
    pub analysis_hits: u64,
    /// Analysis-tier misses.
    pub analysis_misses: u64,
}

impl CacheCounters {
    /// Total memory + disk hits.
    pub fn total_hits(&self) -> u64 {
        self.hits + self.disk_hits
    }

    fn add(&mut self, o: &CacheCounters) {
        self.hits += o.hits;
        self.disk_hits += o.disk_hits;
        self.misses += o.misses;
        self.inserts += o.inserts;
        self.evictions += o.evictions;
        self.poisoned += o.poisoned;
        self.revalidation_rejects += o.revalidation_rejects;
        self.clear_failed += o.clear_failed;
        self.analysis_hits += o.analysis_hits;
        self.analysis_misses += o.analysis_misses;
    }
}

/// Cache sizing and placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactCacheConfig {
    /// Capacity of the in-memory LRU tier.
    pub memory_entries: usize,
    /// Directory for the on-disk tier; `None` disables it.
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

    /// Adds an on-disk tier rooted at `dir`.
    pub fn disk(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }
}

/// The two-tier artifact cache. Not internally synchronized — the
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
    /// An empty cache. Creates the disk directory eagerly so later
    /// write-through failures are configuration errors, not data loss.
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
    /// artifact and the tier that served it, or `None` — the caller then
    /// compiles and should [`insert`](ArtifactCache::insert) the result.
    pub fn lookup(
        &mut self,
        key: CacheKey,
        seq: &LoopSequence,
        grid: &[usize],
    ) -> Option<(Artifact, Tier)> {
        if let Some(pos) = self.entries.iter().position(|a| a.key == key) {
            if grid.is_empty() || revalidate_plan(seq, &self.entries[pos].plan, grid).is_ok() {
                let art = self.entries.remove(pos);
                self.entries.push(art.clone());
                self.counters.hits += 1;
                return Some((art, Tier::Memory));
            }
            // Still valid for the grid it was derived under: keep it.
            self.counters.revalidation_rejects += 1;
            self.counters.misses += 1;
            return None;
        }
        if let Some(dir) = self.cfg.disk_dir.clone() {
            match self.load_disk(&dir, key) {
                DiskLoad::Hit(plan) => {
                    if grid.is_empty() || revalidate_plan(seq, &plan, grid).is_ok() {
                        self.counters.disk_hits += 1;
                        let art = Artifact {
                            key,
                            plan,
                            deps: None,
                            tape: None,
                        };
                        return Some((art, Tier::Disk));
                    }
                    self.counters.revalidation_rejects += 1;
                }
                DiskLoad::Poisoned => {}
                DiskLoad::Absent => {}
            }
        }
        self.counters.misses += 1;
        None
    }

    /// Inserts (or refreshes) an artifact: hottest LRU position, plan
    /// written through to the disk tier, coldest entry evicted past
    /// capacity.
    pub fn insert(&mut self, art: Artifact) {
        if let Some(pos) = self.entries.iter().position(|a| a.key == art.key) {
            self.entries.remove(pos);
        }
        if let Some(dir) = &self.cfg.disk_dir {
            // Best-effort write-through; a full disk costs reuse, not
            // correctness.
            let _ = fs::write(
                entry_path(dir, art.key),
                render_disk_entry(art.key, &art.plan),
            );
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
    /// digest. Memory-only: the analysis is cheap to hold and expensive
    /// to recompute, but not worth a disk format.
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

    fn load_disk(&mut self, dir: &Path, key: CacheKey) -> DiskLoad {
        let path = entry_path(dir, key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return DiskLoad::Absent,
        };
        match parse_disk_entry(&text, key) {
            Ok(plan) => DiskLoad::Hit(Arc::new(plan)),
            Err(_) => {
                // Corrupt or stale-format entry: drop it and recompile.
                self.counters.poisoned += 1;
                let _ = fs::remove_file(&path);
                DiskLoad::Poisoned
            }
        }
    }

    /// Persists lifetime counters by *adding* this instance's counts to
    /// `<dir>/stats` (so concurrent and successive processes aggregate),
    /// then zeroes the in-memory counts. No-op without a disk tier.
    ///
    /// The read-modify-write runs under an advisory file lock
    /// ([`StatsLock`]) and the rewrite lands via an atomic rename, so
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

    /// The disk-tier directory, if this cache has one. The serve tier
    /// uses it to co-locate its stage-latency stats with the cache
    /// counters.
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
        reg.counter(
            "spfc_cache_disk_hits_total",
            "Disk-tier cache hits",
            c.disk_hits,
        );
        reg.counter("spfc_cache_misses_total", "Cache misses", c.misses);
        reg.counter("spfc_cache_inserts_total", "Artifacts inserted", c.inserts);
        reg.counter("spfc_cache_evictions_total", "LRU evictions", c.evictions);
        reg.counter(
            "spfc_cache_poisoned_total",
            "Corrupt disk entries rejected",
            c.poisoned,
        );
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

enum DiskLoad {
    Hit(Arc<FusionPlan>),
    Poisoned,
    Absent,
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

fn entry_path(dir: &Path, key: CacheKey) -> PathBuf {
    dir.join(format!("{}.plan", key.hex()))
}

/// Number of plan entries in a disk tier (for `spfc cache stats`).
pub fn disk_entry_count(dir: &Path) -> usize {
    let Ok(rd) = fs::read_dir(dir) else { return 0 };
    rd.filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "plan"))
        .count()
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
            "disk_hits" => c.disk_hits = v,
            "misses" => c.misses = v,
            "inserts" => c.inserts = v,
            "evictions" => c.evictions = v,
            "poisoned" => c.poisoned = v,
            "revalidation_rejects" => c.revalidation_rejects = v,
            "clear_failed" => c.clear_failed = v,
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
        writeln!(f, "disk_hits {}", c.disk_hits)?;
        writeln!(f, "misses {}", c.misses)?;
        writeln!(f, "inserts {}", c.inserts)?;
        writeln!(f, "evictions {}", c.evictions)?;
        writeln!(f, "poisoned {}", c.poisoned)?;
        writeln!(f, "revalidation_rejects {}", c.revalidation_rejects)?;
        writeln!(f, "clear_failed {}", c.clear_failed)?;
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

/// Deletes every plan entry, the stats file, and the serve-tier
/// stage-stats file under `dir`. Returns
/// `(removed, failed)`: how many plan entries were deleted and how many
/// could not be (permissions, a directory squatting on an entry name).
/// Failures are not swallowed — the count also persists as the
/// `clear_failed` stats counter so `spfc cache stats` surfaces them
/// after the fact; the stats file is only reset when everything went.
pub fn clear_disk(dir: &Path) -> (usize, usize) {
    let mut removed = 0;
    let mut failed = 0;
    if let Ok(rd) = fs::read_dir(dir) {
        for e in rd.filter_map(Result::ok) {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "plan") {
                match fs::remove_file(&p) {
                    Ok(()) => removed += 1,
                    Err(_) => failed += 1,
                }
            }
        }
    }
    let _lock = StatsLock::acquire(dir);
    let _ = fs::remove_file(dir.join("stage-stats"));
    if failed == 0 {
        let _ = fs::remove_file(dir.join("stats"));
    } else {
        let counters = CacheCounters {
            clear_failed: disk_stats(dir).clear_failed + failed as u64,
            ..CacheCounters::default()
        };
        let _ = write_stats(dir, &counters);
    }
    (removed, failed)
}

// ---------------------------------------------------------------------
// On-disk plan format: a line-oriented rendering with a version header
// and a trailing FNV checksum over everything above it.
//
//   spfc-cache-v1
//   key <16-hex>
//   levels <L> method <strip-mined|direct> groups <N>
//   group <start> <end> n <n> dims <D>
//   dim <level> shifts <s,...> peels <p,...>
//   ...
//   crc <16-hex>
// ---------------------------------------------------------------------

fn method_name(m: CodegenMethod) -> &'static str {
    match m {
        CodegenMethod::StripMined => "strip-mined",
        CodegenMethod::Direct => "direct",
    }
}

fn render_disk_entry(key: CacheKey, plan: &FusionPlan) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{CACHE_FORMAT_VERSION}");
    let _ = writeln!(s, "key {}", key.hex());
    let _ = writeln!(
        s,
        "levels {} method {} groups {}",
        plan.levels,
        method_name(plan.method),
        plan.groups.len()
    );
    for g in &plan.groups {
        let _ = writeln!(
            s,
            "group {} {} n {} dims {}",
            g.start,
            g.end,
            g.derivation.n,
            g.derivation.dims.len()
        );
        for d in &g.derivation.dims {
            let _ = writeln!(
                s,
                "dim {} shifts {} peels {}",
                d.level,
                join(&d.shifts),
                join(&d.peels)
            );
        }
    }
    let crc = fnv1a64(s.as_bytes());
    let _ = writeln!(s, "crc {crc:016x}");
    s
}

fn join(xs: &[i64]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn split_i64s(s: &str) -> Result<Vec<i64>, String> {
    s.split(',')
        .map(|t| {
            t.parse::<i64>()
                .map_err(|_| format!("bad integer list item {t:?}"))
        })
        .collect()
}

fn parse_disk_entry(text: &str, want: CacheKey) -> Result<FusionPlan, String> {
    // Checksum first: everything above the final `crc` line must hash to
    // the recorded value, which catches truncation and bit rot in one go.
    let crc_at = text.rfind("crc ").ok_or("missing crc line")?;
    let body = &text[..crc_at];
    let recorded = text[crc_at..]
        .trim_end()
        .strip_prefix("crc ")
        .ok_or("malformed crc line")?;
    let recorded = u64::from_str_radix(recorded, 16).map_err(|_| "bad crc hex".to_string())?;
    if fnv1a64(body.as_bytes()) != recorded {
        return Err("checksum mismatch".into());
    }

    let mut lines = body.lines();
    if lines.next() != Some(CACHE_FORMAT_VERSION) {
        return Err("version mismatch".into());
    }
    let key_line = lines.next().ok_or("missing key line")?;
    let hex = key_line.strip_prefix("key ").ok_or("malformed key line")?;
    if u64::from_str_radix(hex, 16).map_err(|_| "bad key hex".to_string())? != want.0 {
        return Err("key mismatch".into());
    }

    let header = lines.next().ok_or("missing plan header")?;
    let w: Vec<&str> = header.split_whitespace().collect();
    let [kw_l, levels, kw_m, method, kw_g, groups] = w.as_slice() else {
        return Err("malformed plan header".into());
    };
    if *kw_l != "levels" || *kw_m != "method" || *kw_g != "groups" {
        return Err("malformed plan header".into());
    }
    let levels: usize = levels.parse().map_err(|_| "bad levels".to_string())?;
    let method = match *method {
        "strip-mined" => CodegenMethod::StripMined,
        "direct" => CodegenMethod::Direct,
        other => return Err(format!("unknown method {other:?}")),
    };
    let ngroups: usize = groups.parse().map_err(|_| "bad group count".to_string())?;

    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let g = lines.next().ok_or("truncated: missing group line")?;
        let w: Vec<&str> = g.split_whitespace().collect();
        let ["group", start, end, "n", n, "dims", ndims] = w.as_slice() else {
            return Err(format!("malformed group line {g:?}"));
        };
        let start: usize = start.parse().map_err(|_| "bad group start".to_string())?;
        let end: usize = end.parse().map_err(|_| "bad group end".to_string())?;
        let n: usize = n.parse().map_err(|_| "bad group n".to_string())?;
        let ndims: usize = ndims.parse().map_err(|_| "bad dim count".to_string())?;
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            let d = lines.next().ok_or("truncated: missing dim line")?;
            let w: Vec<&str> = d.split_whitespace().collect();
            let ["dim", level, "shifts", shifts, "peels", peels] = w.as_slice() else {
                return Err(format!("malformed dim line {d:?}"));
            };
            let dim = DimDerivation {
                level: level.parse().map_err(|_| "bad dim level".to_string())?,
                shifts: split_i64s(shifts)?,
                peels: split_i64s(peels)?,
            };
            if dim.shifts.len() != n || dim.peels.len() != n {
                return Err("dim arity disagrees with group n".into());
            }
            dims.push(dim);
        }
        groups.push(FusedGroup {
            start,
            end,
            derivation: Derivation { n, dims },
        });
    }
    if lines.next().is_some() {
        return Err("trailing garbage after last group".into());
    }
    Ok(FusionPlan {
        levels,
        groups,
        method,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_peel_core::{PlanConfig, Planner};
    use sp_dep::analyze_sequence;
    use sp_exec::Backend;
    use sp_kernels::jacobi;

    fn derived(n: usize) -> (LoopSequence, Arc<FusionPlan>, CacheKey) {
        let seq = jacobi::sequence(n);
        let cfg = PlanConfig::fused(2);
        let plan = Planner::new(cfg).plan(&seq).unwrap().plan;
        let key = CacheKey::compute(&seq, &cfg, Backend::Compiled, 4);
        (seq, plan, key)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sp-serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn disk_entry_round_trips_and_survives_a_fresh_instance() {
        let dir = tmpdir("roundtrip");
        let (seq, plan, key) = derived(32);
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4).disk(&dir));
        assert!(c.lookup(key, &seq, &[2, 2]).is_none(), "cold cache misses");
        c.insert(Artifact {
            key,
            plan: Arc::clone(&plan),
            deps: None,
            tape: None,
        });
        let (art, tier) = c.lookup(key, &seq, &[2, 2]).expect("memory hit");
        assert_eq!(tier, Tier::Memory);
        assert_eq!(*art.plan, *plan);

        // A fresh instance (new process, in effect) hits the disk tier
        // and reconstructs the identical plan.
        let mut c2 = ArtifactCache::new(ArtifactCacheConfig::memory(4).disk(&dir));
        let (art, tier) = c2.lookup(key, &seq, &[2, 2]).expect("disk hit");
        assert_eq!(tier, Tier::Disk);
        assert_eq!(*art.plan, *plan, "disk round trip is exact");
        assert_eq!(c2.counters().disk_hits, 1);
        assert_eq!(disk_entry_count(&dir), 1);

        // Stats aggregate across instances.
        c.flush_stats();
        c2.flush_stats();
        let total = disk_stats(&dir);
        assert_eq!(total.hits, 1);
        assert_eq!(total.disk_hits, 1);
        assert_eq!(total.inserts, 1);

        assert_eq!(clear_disk(&dir), (1, 0));
        assert_eq!(disk_entry_count(&dir), 0);
        assert_eq!(disk_stats(&dir), CacheCounters::default());
        let _ = fs::remove_dir_all(&dir);
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

    /// `clear_disk` must not swallow delete failures: a directory
    /// squatting on an entry name (EISDIR even as root) is counted,
    /// and the count lands in the persisted stats for `cache stats`.
    #[test]
    fn clear_reports_undeletable_entries() {
        let dir = tmpdir("clearfail");
        let (_, plan, key) = derived(32);
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4).disk(&dir));
        c.insert(Artifact {
            key,
            plan,
            deps: None,
            tape: None,
        });
        c.flush_stats();
        // `remove_file` on a directory fails regardless of privilege.
        fs::create_dir(dir.join("deadbeefdeadbeef.plan")).unwrap();
        let (removed, failed) = clear_disk(&dir);
        assert_eq!((removed, failed), (1, 1));
        assert_eq!(
            disk_stats(&dir).clear_failed,
            1,
            "failure persisted for cache stats"
        );
        assert_eq!(disk_stats(&dir).inserts, 0, "other counters were reset");
        // A second failing clear accumulates.
        let (removed, failed) = clear_disk(&dir);
        assert_eq!((removed, failed), (0, 1));
        assert_eq!(disk_stats(&dir).clear_failed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_version_skew_poison_instead_of_aborting() {
        let dir = tmpdir("poison");
        let (seq, plan, key) = derived(32);
        {
            let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4).disk(&dir));
            c.insert(Artifact {
                key,
                plan,
                deps: None,
                tape: None,
            });
        }
        let path = dir.join(format!("{}.plan", key.hex()));

        // Flip a byte in the body: checksum catches it, entry is removed.
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4).disk(&dir));
        assert!(
            c.lookup(key, &seq, &[2, 2]).is_none(),
            "corrupt entry is a miss"
        );
        assert_eq!(c.counters().poisoned, 1);
        assert!(!path.exists(), "poisoned entry deleted");

        // A future format version is rejected the same way.
        fs::write(&path, "spfc-cache-v999\nkey 0\ncrc 0\n").unwrap();
        assert!(c.lookup(key, &seq, &[2, 2]).is_none());
        assert_eq!(c.counters().poisoned, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn revalidation_rejects_keep_the_entry() {
        let (seq, plan, key) = derived(32);
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(4));
        c.insert(Artifact {
            key,
            plan,
            deps: None,
            tape: None,
        });
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
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let (seq, plan, _) = derived(32);
        let mut c = ArtifactCache::new(ArtifactCacheConfig::memory(2));
        let keys: Vec<CacheKey> = (0..3).map(CacheKey).collect();
        for &k in &keys[..2] {
            c.insert(Artifact {
                key: k,
                plan: Arc::clone(&plan),
                deps: None,
                tape: None,
            });
        }
        // Touch key 0 so key 1 becomes coldest.
        assert!(c.lookup(keys[0], &seq, &[2, 2]).is_some());
        c.insert(Artifact {
            key: keys[2],
            plan: Arc::clone(&plan),
            deps: None,
            tape: None,
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
