//! Access sinks: where the interpreter reports every memory access.
//!
//! The interpreter is generic over an [`AccessSink`]; plugging in a cache
//! simulator turns an execution into a trace-driven miss measurement,
//! while [`NullSink`] declares at compile time ([`AccessSink::OBSERVES`])
//! that nobody is listening, so plain correctness runs and wall-clock
//! benchmarks skip the reporting entirely.

use sp_cache::{CacheHierarchy, CacheStats, ClassifyingCache};

/// Consumer of the interpreter's memory-access stream.
pub trait AccessSink {
    /// Whether this sink looks at what it is told. A backend that
    /// reports accesses in a loop of their own (the row runner's
    /// scalar-order replay, see [`crate::tape`]) skips that loop when
    /// this is `false`. The optimizer cannot be trusted to: the replay
    /// walks data-dependent tapes, and a loop with an empty body is
    /// still a loop.
    const OBSERVES: bool = true;

    /// Called once per scalar access with its byte address.
    fn access(&mut self, addr: u64, is_write: bool);
}

/// Discards accesses (zero overhead).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl AccessSink for NullSink {
    const OBSERVES: bool = false;

    #[inline(always)]
    fn access(&mut self, _addr: u64, _is_write: bool) {}
}

/// Counts loads and stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Read accesses seen.
    pub loads: u64,
    /// Write accesses seen.
    pub stores: u64,
}

impl AccessSink for CountingSink {
    #[inline]
    fn access(&mut self, _addr: u64, is_write: bool) {
        if is_write {
            self.stores += 1;
        } else {
            self.loads += 1;
        }
    }
}

/// Feeds accesses to a cache hierarchy (one level or more).
#[derive(Debug)]
pub struct CacheSink {
    /// The simulated hierarchy.
    pub cache: CacheHierarchy,
}

impl CacheSink {
    /// Wraps a hierarchy.
    pub fn new(cache: CacheHierarchy) -> Self {
        CacheSink { cache }
    }

    /// Simulation counters so far, per level, first level first.
    pub fn stats(&self) -> Vec<CacheStats> {
        self.cache.stats()
    }
}

impl AccessSink for CacheSink {
    #[inline]
    fn access(&mut self, addr: u64, _is_write: bool) {
        self.cache.access(addr);
    }
}

/// Feeds accesses to a three-way miss classifier (compulsory /
/// capacity / conflict).
#[derive(Debug)]
pub struct ClassifySink {
    /// The classifier.
    pub cache: ClassifyingCache,
}

impl ClassifySink {
    /// Wraps a classifier.
    pub fn new(cache: ClassifyingCache) -> Self {
        ClassifySink { cache }
    }
}

impl AccessSink for ClassifySink {
    #[inline]
    fn access(&mut self, addr: u64, _is_write: bool) {
        self.cache.access(addr);
    }
}

/// Records the full address trace (tests and debugging only — large).
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// `(address, is_write)` in program order.
    pub trace: Vec<(u64, bool)>,
}

impl AccessSink for RecordingSink {
    #[inline]
    fn access(&mut self, addr: u64, is_write: bool) {
        self.trace.push((addr, is_write));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cache::CacheConfig;

    #[test]
    fn counting_sink_separates_kinds() {
        let mut s = CountingSink::default();
        s.access(0, false);
        s.access(8, false);
        s.access(16, true);
        assert_eq!(
            s,
            CountingSink {
                loads: 2,
                stores: 1
            }
        );
    }

    #[test]
    fn cache_sink_counts_misses() {
        let mut s = CacheSink::new(CacheHierarchy::new(&[CacheConfig::new(256, 64, 1)]));
        s.access(0, false);
        s.access(0, true);
        assert_eq!(s.stats()[0].misses, 1);
        assert_eq!(s.stats()[0].accesses, 2);
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut s = RecordingSink::default();
        s.access(8, false);
        s.access(4, true);
        assert_eq!(s.trace, vec![(8, false), (4, true)]);
    }
}
