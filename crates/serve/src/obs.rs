//! Serve-tier observability state: per-stage latency histograms,
//! outcome counters, and the lifetime stats file they persist to.
//!
//! Every job's trip through the service is timed stage by stage
//! ([`JobStage`]); the durations land in log2-bucket [`Histogram`]s that
//! feed the service summary and the Prometheus rendering
//! (`spfc_serve_stage_nanos{stage=...}`).
//!
//! A service with a stats directory adds its cache counters and its
//! stage stats to one file, `<dir>/stats`, when it is dropped, so `spfc
//! cache stats` reports both aggregated across processes. The file has a
//! versioned line format and is rewritten by one read-merge-write under
//! an advisory lock file and an atomic rename, so concurrent
//! flushers cannot lose each other's counts. A file of another version
//! reads as empty: a future format is ignored, never misparsed.

use crate::cache::CacheCounters;
use sp_trace::{Histogram, JobStage, SessionTrace};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Version header of the lifetime stats file.
pub const STATS_VERSION: &str = "spfc-serve-stats-v2";

/// Named tenant rows a [`StageStats`] keeps. Tenants are whatever names
/// clients send; every name beyond the first this many is counted in one
/// overflow row, [`OTHER_TENANTS`], so the rows, the `/metrics` series
/// and the stats file stay bounded however many names were seen.
pub const TENANT_ROWS: usize = 64;

/// The name of the overflow row (see [`TENANT_ROWS`]).
pub const OTHER_TENANTS: &str = "(other)";

/// Per-tenant job outcome counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// The tenant/client id.
    pub name: String,
    /// Jobs that completed successfully.
    pub ok: u64,
    /// Jobs that missed their deadline.
    pub deadline: u64,
    /// Submissions rejected by the tenant's admission quota.
    pub quota: u64,
}

/// Aggregated stage latencies and job outcomes for one service (or, via
/// [`disk_stats`], for every process that shared a cache dir).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageStats {
    /// One histogram per [`JobStage`], indexed by [`JobStage::index`].
    pub stages: Vec<Histogram>,
    /// Jobs that completed successfully.
    pub ok: u64,
    /// Jobs that missed their deadline (in the queue or overrunning).
    pub deadline: u64,
    /// Submissions rejected by bounded-queue backpressure.
    pub rejected: u64,
    /// Submissions rejected by per-tenant quotas.
    pub quota: u64,
    /// Per-tenant outcome counters, in first-seen order: at most
    /// [`TENANT_ROWS`] named rows and the [`OTHER_TENANTS`] row.
    pub tenants: Vec<TenantStats>,
}

impl StageStats {
    /// Empty stats with one histogram slot per stage.
    pub fn new() -> StageStats {
        StageStats {
            stages: vec![Histogram::new(); JobStage::COUNT],
            ..StageStats::default()
        }
    }

    /// Records one stage duration.
    pub fn observe(&mut self, stage: JobStage, dur_nanos: u64) {
        if self.stages.len() < JobStage::COUNT {
            self.stages.resize(JobStage::COUNT, Histogram::new());
        }
        self.stages[stage.index()].observe(dur_nanos);
    }

    /// The histogram of `stage`.
    pub fn stage(&self, stage: JobStage) -> Option<&Histogram> {
        self.stages.get(stage.index())
    }

    /// The counters of `tenant`, created on first touch while fewer than
    /// [`TENANT_ROWS`] rows exist; after that a new name's counts go to
    /// the [`OTHER_TENANTS`] row.
    pub fn tenant_mut(&mut self, tenant: &str) -> &mut TenantStats {
        let row = |name: &str| TenantStats {
            name: name.to_string(),
            ..TenantStats::default()
        };
        let find = |rows: &[TenantStats], name: &str| rows.iter().position(|t| t.name == name);
        let i = match find(&self.tenants, tenant) {
            Some(i) => i,
            None if self.tenants.len() < TENANT_ROWS => {
                self.tenants.push(row(tenant));
                self.tenants.len() - 1
            }
            None => find(&self.tenants, OTHER_TENANTS).unwrap_or_else(|| {
                self.tenants.push(row(OTHER_TENANTS));
                self.tenants.len() - 1
            }),
        };
        &mut self.tenants[i]
    }

    /// The counters of `tenant`, if any job or rejection touched it.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.name == tenant)
    }

    /// Adds every observation and outcome of `other` into this.
    pub fn merge(&mut self, other: &StageStats) {
        if self.stages.len() < other.stages.len() {
            self.stages.resize(other.stages.len(), Histogram::new());
        }
        for (slot, h) in self.stages.iter_mut().zip(&other.stages) {
            slot.merge(h);
        }
        self.ok += other.ok;
        self.deadline += other.deadline;
        self.rejected += other.rejected;
        self.quota += other.quota;
        for t in &other.tenants {
            let slot = self.tenant_mut(&t.name);
            slot.ok += t.ok;
            slot.deadline += t.deadline;
            slot.quota += t.quota;
        }
    }

    /// True when nothing was ever observed or counted.
    pub fn is_empty(&self) -> bool {
        self.ok == 0
            && self.deadline == 0
            && self.rejected == 0
            && self.quota == 0
            && self.tenants.is_empty()
            && self.stages.iter().all(|h| h.count() == 0)
    }

    /// A compact multi-line latency summary: per populated stage, the
    /// observation count, mean, and log2-resolution p50/p95/p99 bounds
    /// in milliseconds.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let ms = |n: u64| n as f64 / 1e6;
        for stage in JobStage::all() {
            let Some(h) = self.stage(stage) else { continue };
            if h.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<12} n={:<5} mean={:.3}ms p50<={:.3}ms p95<={:.3}ms p99<={:.3}ms\n",
                stage.name(),
                h.count(),
                h.mean() / 1e6,
                ms(h.quantile_bound(0.50)),
                ms(h.quantile_bound(0.95)),
                ms(h.quantile_bound(0.99)),
            ));
        }
        out
    }
}

/// The service's live observability state, behind one mutex off the
/// execution hot path (stages are recorded once per job, not per
/// iteration).
#[derive(Debug, Default)]
pub(crate) struct ServeObs {
    /// Stage latencies + outcome counts for this service's lifetime.
    pub stats: StageStats,
    /// The session trace, accumulated only when the service was built
    /// with tracing on ([`ServiceConfig::traced`](crate::ServiceConfig)).
    pub session: Option<SessionTrace>,
}

impl ServeObs {
    pub(crate) fn new(tracing: bool) -> ServeObs {
        ServeObs {
            stats: StageStats::new(),
            session: tracing.then(SessionTrace::new),
        }
    }
}

/// What every service that shared a stats directory added up there.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LifetimeStats {
    /// The artifact cache's counters.
    pub cache: CacheCounters,
    /// Stage latencies and job outcomes.
    pub stages: StageStats,
}

/// The lifetime stats in `<dir>/stats`. Empty if absent, unreadable, or
/// of another version.
pub fn disk_stats(dir: &Path) -> LifetimeStats {
    let mut s = LifetimeStats {
        stages: StageStats::new(),
        ..LifetimeStats::default()
    };
    let Ok(text) = fs::read_to_string(dir.join("stats")) else {
        return s;
    };
    let mut lines = text.lines();
    if lines.next() != Some(STATS_VERSION) {
        return s;
    }
    let n = |v: &str| v.parse().unwrap_or(0);
    let (c, st) = (&mut s.cache, &mut s.stages);
    for line in lines {
        let w: Vec<&str> = line.split_whitespace().collect();
        match w.as_slice() {
            ["cache", "hits", v] => c.hits = n(v),
            ["cache", "misses", v] => c.misses = n(v),
            ["cache", "inserts", v] => c.inserts = n(v),
            ["cache", "evictions", v] => c.evictions = n(v),
            ["cache", "revalidation_rejects", v] => c.revalidation_rejects = n(v),
            ["cache", "analysis_hits", v] => c.analysis_hits = n(v),
            ["cache", "analysis_misses", v] => c.analysis_misses = n(v),
            ["outcome", "ok", v] => st.ok = n(v),
            ["outcome", "deadline", v] => st.deadline = n(v),
            ["outcome", "rejected", v] => st.rejected = n(v),
            ["outcome", "quota", v] => st.quota = n(v),
            ["tenant", name, ok, deadline, quota] => {
                let t = st.tenant_mut(&name_of_token(name));
                t.ok = n(ok);
                t.deadline = n(deadline);
                t.quota = n(quota);
            }
            ["stage", name, sum, buckets] => {
                let Some(stage) = JobStage::from_name(name) else {
                    continue;
                };
                let Ok(sum) = sum.parse::<u64>() else {
                    continue;
                };
                let counts: Vec<u64> = if *buckets == "-" {
                    Vec::new()
                } else {
                    buckets
                        .split(',')
                        .filter_map(|t| t.parse::<u64>().ok())
                        .collect()
                };
                st.stages[stage.index()] = Histogram::from_parts(counts, sum);
            }
            _ => {}
        }
    }
    s
}

/// Adds `delta` to `<dir>/stats`: one read-merge-write under the stats
/// lock, landing by rename. False when the lock could not be had or the
/// write failed; the file is then as it was.
pub(crate) fn flush_stats(dir: &Path, delta: &LifetimeStats) -> bool {
    let Some(_lock) = StatsLock::acquire(dir) else {
        return false;
    };
    let mut total = disk_stats(dir);
    total.cache.add(&delta.cache);
    total.stages.merge(&delta.stages);
    write_stats(dir, &total).is_ok()
}

fn write_stats(dir: &Path, s: &LifetimeStats) -> std::io::Result<()> {
    let tmp = dir.join(format!("stats.tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        writeln!(f, "{STATS_VERSION}")?;
        let c = &s.cache;
        writeln!(f, "cache hits {}", c.hits)?;
        writeln!(f, "cache misses {}", c.misses)?;
        writeln!(f, "cache inserts {}", c.inserts)?;
        writeln!(f, "cache evictions {}", c.evictions)?;
        writeln!(f, "cache revalidation_rejects {}", c.revalidation_rejects)?;
        writeln!(f, "cache analysis_hits {}", c.analysis_hits)?;
        writeln!(f, "cache analysis_misses {}", c.analysis_misses)?;
        let st = &s.stages;
        writeln!(f, "outcome ok {}", st.ok)?;
        writeln!(f, "outcome deadline {}", st.deadline)?;
        writeln!(f, "outcome rejected {}", st.rejected)?;
        writeln!(f, "outcome quota {}", st.quota)?;
        for t in &st.tenants {
            let name = token_of_name(&t.name);
            writeln!(f, "tenant {} {} {} {}", name, t.ok, t.deadline, t.quota)?;
        }
        for stage in JobStage::all() {
            let Some(h) = st.stage(stage) else { continue };
            let buckets = if h.bucket_counts().is_empty() {
                "-".to_string()
            } else {
                h.bucket_counts()
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            writeln!(f, "stage {} {} {}", stage.name(), h.sum(), buckets)?;
        }
        f.sync_all()?;
    }
    let renamed = fs::rename(&tmp, dir.join("stats"));
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

/// A tenant name as one token of the whitespace-split stats file: `%`,
/// whitespace and control characters percent-escaped by their UTF-8
/// bytes, and the empty name written as a lone `%`.
fn token_of_name(name: &str) -> String {
    if name.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c == '%' || c.is_whitespace() || c.is_control() {
            for b in c.encode_utf8(&mut [0; 4]).bytes() {
                out.push_str(&format!("%{b:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The inverse of [`token_of_name`]. A `%` not followed by two hex
/// digits stands for itself, so a name an older build wrote unescaped
/// reads back as it was.
fn name_of_token(token: &str) -> String {
    if token == "%" {
        return String::new();
    }
    let mut parts = token.split('%');
    let mut out = Vec::from(parts.next().unwrap_or_default());
    for part in parts {
        match part
            .get(..2)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
        {
            Some(hex) => {
                out.push(u8::from_str_radix(hex, 16).expect("two hex digits"));
                out.extend_from_slice(&part.as_bytes()[2..]);
            }
            None => {
                out.push(b'%');
                out.extend_from_slice(part.as_bytes());
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Deletes the lifetime stats under `dir`, under the stats lock so no
/// flush interleaves. Every other `*stats` file that starts with an
/// `spfc-` version line goes too, so a file an older format left there
/// is cleared rather than orphaned; other files are left alone.
pub fn clear_disk(dir: &Path) {
    let _lock = StatsLock::acquire(dir);
    let _ = fs::remove_file(dir.join("stats"));
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let named = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with("stats"));
        if named && fs::read_to_string(&path).is_ok_and(|t| t.starts_with("spfc-")) {
            let _ = fs::remove_file(&path);
        }
    }
}

/// Advisory lock over `<dir>/stats`, held for the duration of one
/// read-merge-write. `O_EXCL` creation of `<dir>/stats.lock` is the
/// mutual exclusion (atomic on every platform and over NFS); dropping
/// the guard removes the file. A lock older than [`StatsLock::STALE`]
/// is presumed abandoned by a crashed process and stolen — stats
/// flushes are microseconds, not seconds.
struct StatsLock {
    path: PathBuf,
}

impl StatsLock {
    /// Age beyond which a held lock is treated as leaked.
    const STALE: Duration = Duration::from_secs(2);
    /// How long `acquire` spins before giving up.
    const PATIENCE: Duration = Duration::from_millis(500);

    fn acquire(dir: &Path) -> Option<StatsLock> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sp-serve-obs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Both halves of the file add up across flushes, every cache
    /// counter on its own line, and clearing empties both.
    #[test]
    fn lifetime_stats_aggregate_across_flushes() {
        let dir = tmpdir("agg");
        // Distinct per field, so a writer or reader that swaps two
        // lines fails; counters(a) + counters(b) == counters(a + b).
        let counters = |x: u64| CacheCounters {
            hits: x,
            misses: 2 * x,
            inserts: 3 * x,
            evictions: 4 * x,
            revalidation_rejects: 5 * x,
            analysis_hits: 6 * x,
            analysis_misses: 7 * x,
        };
        let mut a = LifetimeStats {
            cache: counters(10),
            ..LifetimeStats::default()
        };
        a.stages.observe(JobStage::QueueWait, 1_000);
        a.stages.observe(JobStage::Execute, 50_000);
        a.stages.ok = 2;
        a.stages.tenant_mut("two words").ok = 2;
        assert!(flush_stats(&dir, &a));
        let mut b = LifetimeStats {
            cache: counters(100),
            ..LifetimeStats::default()
        };
        b.stages.observe(JobStage::Execute, 70_000);
        b.stages.deadline = 1;
        b.stages.rejected = 3;
        assert!(flush_stats(&dir, &b));
        let total = disk_stats(&dir);
        assert_eq!(total.cache, counters(110));
        let st = &total.stages;
        assert_eq!((st.ok, st.deadline, st.rejected), (2, 1, 3));
        assert_eq!(st.tenant("two words").map(|t| t.ok), Some(2));
        let exec = st.stage(JobStage::Execute).unwrap();
        assert_eq!(exec.count(), 2);
        assert_eq!(exec.sum(), 120_000);
        assert_eq!(st.stage(JobStage::QueueWait).unwrap().count(), 1);
        assert!(!st.render_summary().is_empty());
        // Clearing also takes a stats file of an older format, but no
        // file that is not an spfc stats file.
        fs::write(dir.join("old-stats"), "spfc-old-stats-v1\nok 1\n").unwrap();
        fs::write(dir.join("notes-stats"), "kept\n").unwrap();
        clear_disk(&dir);
        let cleared = disk_stats(&dir);
        assert_eq!(cleared.cache, CacheCounters::default());
        assert!(cleared.stages.is_empty());
        assert!(!dir.join("old-stats").exists(), "older format cleared");
        assert!(dir.join("notes-stats").exists(), "foreign file kept");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every tenant name is one non-empty token of the stats file and
    /// reads back as it was; a `%` an older build wrote unescaped stays.
    #[test]
    fn tenant_names_round_trip_as_one_token() {
        for name in [
            "",
            "%",
            "%41",
            "two words",
            "a\"}\nevil 1",
            "tab\there",
            "é ü",
        ] {
            let token = token_of_name(name);
            assert!(
                !token.is_empty() && !token.contains(char::is_whitespace),
                "{token}"
            );
            assert_eq!(name_of_token(&token), name);
        }
        assert_eq!(name_of_token("50%off"), "50%off");
    }

    /// A directory written by a build with another stats format (the
    /// cache-counters-only `v1` file, or a future one) reads as empty.
    #[test]
    fn version_skew_reads_as_empty() {
        let dir = tmpdir("skew");
        for old in ["spfc-cache-stats-v1\nhits 7\n", "spfc-serve-stats-v999\n"] {
            fs::write(dir.join("stats"), old).unwrap();
            let s = disk_stats(&dir);
            assert_eq!(s.cache, CacheCounters::default(), "{old}");
            assert!(s.stages.is_empty(), "{old}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two flushers racing on the same stats file must not lose counts:
    /// the read-merge-write is serialized by the advisory lock, and the
    /// final aggregate equals the sum of everything both sides counted.
    #[test]
    fn concurrent_flushes_lose_no_counts() {
        let dir = tmpdir("race");
        const ROUNDS: u64 = 40;
        let spawn = |dir: PathBuf, hits: u64| {
            std::thread::spawn(move || {
                let mut delta = LifetimeStats::default();
                delta.cache.hits = hits;
                delta.cache.misses = 1;
                delta.stages.ok = 1;
                for _ in 0..ROUNDS {
                    assert!(flush_stats(&dir, &delta));
                }
            })
        };
        let a = spawn(dir.clone(), 1);
        let b = spawn(dir.clone(), 2);
        a.join().unwrap();
        b.join().unwrap();
        let total = disk_stats(&dir);
        assert_eq!(total.cache.hits, ROUNDS * 3, "no flush overwrote another");
        assert_eq!(total.cache.misses, ROUNDS * 2);
        assert_eq!(total.stages.ok, ROUNDS * 2);
        assert!(!dir.join("stats.lock").exists(), "lock released");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crashed process's leaked lock file must not wedge future
    /// flushes forever: past the staleness horizon it is stolen.
    #[test]
    fn stale_lock_is_stolen() {
        let dir = tmpdir("stale");
        fs::write(dir.join("stats.lock"), "").unwrap();
        let back = std::time::SystemTime::now() - (StatsLock::STALE + Duration::from_secs(1));
        fs::File::options()
            .write(true)
            .open(dir.join("stats.lock"))
            .unwrap()
            .set_modified(back)
            .unwrap();
        let mut delta = LifetimeStats::default();
        delta.cache.hits = 7;
        assert!(flush_stats(&dir, &delta), "stale lock did not block");
        assert_eq!(disk_stats(&dir).cache.hits, 7);
        let _ = fs::remove_dir_all(&dir);
    }
}
