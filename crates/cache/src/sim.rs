//! Trace-driven cache simulation.
//!
//! The paper's evaluation is phrased in *measured cache misses* (its
//! machines had hardware miss counters). This simulator substitutes for
//! that hardware: a set-associative LRU cache consuming byte addresses.
//! Associativity 1 models the Convex SPP-1000's 1 MB direct-mapped data
//! cache; associativity 2 the KSR2's 256 KB subcache.

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (1 = direct-mapped).
    pub assoc: usize,
}

impl CacheConfig {
    /// Creates a configuration, checking the geometry divides evenly.
    pub fn new(capacity: usize, line: usize, assoc: usize) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!(
            capacity.is_multiple_of(line * assoc),
            "capacity {capacity} not divisible by line*assoc"
        );
        CacheConfig {
            capacity,
            line,
            assoc,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (self.line * self.assoc)
    }

    /// The size in bytes of the address-mapping space (capacity divided by
    /// associativity): addresses equal modulo this value map to the same
    /// set. This is the `CacheMap` modulus used by cache partitioning.
    pub fn map_space(&self) -> usize {
        self.capacity / self.assoc
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

/// A set-associative LRU cache.
///
/// Each set stores line tags in MRU-first order in a flat array segment;
/// associativities in practice are small (1–16), so linear search plus
/// rotation is faster than any linked structure.
///
/// ```
/// use sp_cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(256, 64, 1));
/// assert!(!c.access(0));      // cold miss
/// assert!(c.access(32));      // same 64-byte line
/// assert!(!c.access(256));    // conflicts with line 0 (direct-mapped)
/// assert_eq!(c.stats().misses, 2);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets() * assoc` tags, MRU first within each set; `u64::MAX` marks
    /// an empty way.
    tags: Vec<u64>,
    stats: CacheStats,
}

const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Creates an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            config,
            tags: vec![EMPTY; config.sets() * config.assoc],
            stats: CacheStats::default(),
        }
    }

    /// Accesses one byte address; returns `true` on hit. Reads and writes
    /// are treated alike (allocate-on-write), matching the write-allocate
    /// caches of the paper's machines.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line_tag = addr / self.config.line as u64;
        let set = (line_tag as usize) % self.config.sets();
        let a = self.config.assoc;
        let ways = &mut self.tags[set * a..(set + 1) * a];
        if let Some(pos) = ways.iter().position(|&t| t == line_tag) {
            // Move to MRU position.
            ways[..=pos].rotate_right(1);
            true
        } else {
            self.stats.misses += 1;
            // Evict LRU: shift right, insert at front.
            ways.rotate_right(1);
            ways[0] = line_tag;
            false
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// An unbounded cache: misses are exactly the *compulsory* (cold) misses.
/// The difference against a real [`Cache`]'s misses isolates capacity and
/// conflict misses, which is how the experiments attribute the benefit of
/// cache partitioning.
#[derive(Clone, Debug, Default)]
pub struct InfiniteCache {
    line: u64,
    lines: std::collections::HashSet<u64>,
    stats: CacheStats,
}

impl InfiniteCache {
    /// Creates an infinite cache with the given line size.
    pub fn new(line: usize) -> Self {
        assert!(line.is_power_of_two());
        InfiniteCache {
            line: line as u64,
            lines: Default::default(),
            stats: CacheStats::default(),
        }
    }

    /// Accesses an address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        if self.lines.insert(addr / self.line) {
            self.stats.misses += 1;
            false
        } else {
            true
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflict() {
        // 4 lines of 64 B direct-mapped: addresses 0 and 256 conflict.
        let mut c = Cache::new(CacheConfig::new(256, 64, 1));
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(!c.access(256)); // evicts line 0
        assert!(!c.access(0)); // conflict miss
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn two_way_absorbs_pairwise_conflict() {
        let mut c = Cache::new(CacheConfig::new(256, 64, 2));
        assert!(!c.access(0));
        assert!(!c.access(256));
        assert!(c.access(0));
        assert!(c.access(256));
        // A third conflicting line evicts the LRU (0 was used before 256).
        assert!(!c.access(512));
        assert!(!c.access(0));
        assert!(c.access(512));
    }

    #[test]
    fn lru_order_within_set() {
        let mut c = Cache::new(CacheConfig::new(512, 64, 4)); // 2 sets, 4-way
                                                              // Fill one set with 4 lines (set stride = 2 lines = 128 B).
        for i in 0..4u64 {
            c.access(i * 128);
        }
        // Touch line 0 to make it MRU, then insert a 5th line.
        c.access(0);
        c.access(4 * 128);
        // Line 0 must still hit (was MRU); line 1*128 was LRU and evicted.
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn same_line_accesses_hit() {
        let mut c = Cache::new(CacheConfig::new(1024, 64, 1));
        assert!(!c.access(100));
        assert!(c.access(101));
        assert!(c.access(127)); // same 64 B line as 64..127
        assert!(!c.access(128)); // next line
    }

    #[test]
    fn infinite_cache_counts_compulsory_only() {
        let mut c = InfiniteCache::new(64);
        for _ in 0..3 {
            for a in [0u64, 256, 512, 0] {
                c.access(a);
            }
        }
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().accesses, 12);
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(1 << 20, 64, 1);
        assert_eq!(c.sets(), (1 << 20) / 64);
        assert_eq!(c.map_space(), 1 << 20);
        let k = CacheConfig::new(256 << 10, 128, 2);
        assert_eq!(k.sets(), (256 << 10) / 256);
        assert_eq!(k.map_space(), 128 << 10);
    }
}
