//! Cache hierarchies.
//!
//! The paper's machines were themselves hierarchical (the KSR2's 256 KB
//! subcache backs onto a 32 MB local ALLCACHE stage), and any modern
//! reproduction target has at least an L1/L2 split. A hierarchy stacks
//! [`Cache`]s, first level first; one level is the degenerate case that
//! models the level that dominated the paper's measurements.

use crate::sim::{Cache, CacheConfig, CacheStats};

/// An inclusive hierarchy: every access is looked up at the first level;
/// a miss at one level is looked up (and allocated) at the next, so level
/// `k + 1` sees exactly level `k`'s misses.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    levels: Vec<Cache>,
}

impl CacheHierarchy {
    /// Builds a cold hierarchy from its levels, first level first. No
    /// level may be smaller than the one before it.
    pub fn new(levels: &[CacheConfig]) -> Self {
        assert!(!levels.is_empty(), "a hierarchy needs at least one level");
        assert!(
            levels.windows(2).all(|w| w[1].capacity >= w[0].capacity),
            "a level must not be smaller than the level before it"
        );
        CacheHierarchy {
            levels: levels.iter().map(|&c| Cache::new(c)).collect(),
        }
    }

    /// Accesses an address through the hierarchy.
    #[inline]
    pub fn access(&mut self, addr: u64) {
        for level in &mut self.levels {
            if level.access(addr) {
                return;
            }
        }
    }

    /// Counters per level, first level first.
    pub fn stats(&self) -> Vec<CacheStats> {
        self.levels.iter().map(Cache::stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        CacheHierarchy::new(&[CacheConfig::new(128, 64, 1), CacheConfig::new(512, 64, 2)])
    }

    #[test]
    fn a_first_level_miss_is_looked_up_below() {
        let mut h = small();
        // Line 0 misses both levels, then hits the first.
        h.access(0);
        h.access(0);
        // Line 128 evicts it from the tiny first level (2 lines,
        // direct-mapped), so it now hits the second.
        h.access(128);
        h.access(0);
        let [l1, l2] = h.stats()[..] else {
            panic!("two levels")
        };
        assert_eq!((l1.accesses, l1.misses), (4, 3));
        assert_eq!((l2.accesses, l2.misses), (3, 2));
    }

    #[test]
    #[should_panic]
    fn a_level_smaller_than_the_one_above_is_rejected() {
        CacheHierarchy::new(&[CacheConfig::new(512, 64, 1), CacheConfig::new(128, 64, 1)]);
    }
}
