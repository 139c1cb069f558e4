//! Profitability of fusion (Sections 5 and 6 of the paper).
//!
//! The paper's measurements show fusion pays off only while the data each
//! processor touches *exceeds* its cache: as the processor count grows and
//! per-processor working sets shrink into cache, the overhead of
//! shift-and-peel (strip-mining control, peeled-iteration bookkeeping, the
//! extra barrier phase) outweighs the locality gain — LL18 stops winning
//! beyond ~32 KSR2 processors, calc beyond ~24 (Figure 22). The paper
//! concludes that "the profitability of the transformation should be
//! evaluated in the compiler with knowledge of the data size with respect
//! to the cache size"; this module is that evaluation, and the strip size
//! the same cache bounds (Section 4, last paragraph).

use crate::codegen::{bytes_per_outer_iter, suggest_strip, StripSpec};
use sp_ir::LoopSequence;

/// Bytes in one array element: every array holds `f64`s.
const ELEM_BYTES: usize = std::mem::size_of::<f64>();

/// A simple capacity-based profitability model: the planner's view of
/// the machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfitabilityModel {
    /// Per-processor capacity in bytes of the cache level fusion targets.
    pub cache_bytes: usize,
    /// Number of processors intended for execution.
    pub processors: usize,
}

impl ProfitabilityModel {
    /// A model for a machine with `cache_bytes` per-processor cache and
    /// `processors` CPUs.
    pub fn new(cache_bytes: usize, processors: usize) -> Self {
        ProfitabilityModel {
            cache_bytes,
            processors,
        }
    }

    /// The partition-coupled strip for `seq` on this cache: every array
    /// of the sequence gets one partition (Figure 19), and a strip of the
    /// outermost fused loop, widened by `max_shift`, must fit one. At
    /// most `max_strip`.
    pub fn strip(&self, seq: &LoopSequence, max_shift: i64, max_strip: i64) -> StripSpec {
        suggest_strip(
            self.cache_bytes,
            seq.arrays.len().max(1),
            bytes_per_outer_iter(seq, ELEM_BYTES).max(1),
            max_shift,
            max_strip,
        )
    }

    /// Bytes of distinct array data referenced by nests `[start, end)` of
    /// `seq`, divided over the processors.
    pub fn data_per_processor(&self, seq: &LoopSequence, start: usize, end: usize) -> usize {
        let mut seen = vec![false; seq.arrays.len()];
        for nest in &seq.nests[start..end] {
            for stmt in &nest.body {
                seen[stmt.lhs.array.index()] = true;
                for r in stmt.rhs.reads() {
                    seen[r.array.index()] = true;
                }
            }
        }
        let total: usize = seq
            .arrays
            .iter()
            .zip(&seen)
            .filter(|(_, &s)| s)
            .map(|(a, _)| a.len() * ELEM_BYTES)
            .sum();
        total / self.processors.max(1)
    }

    /// Is it (still) profitable to grow a group to `[start, end)`?
    ///
    /// True while per-processor data exceeds the cache — i.e. while
    /// there is locality left for fusion to recover.
    pub fn profitable_to_grow(&self, seq: &LoopSequence, start: usize, end: usize) -> bool {
        self.data_per_processor(seq, start, end) > self.cache_bytes
    }

    /// Whole-group verdict used by experiment harnesses: should this group
    /// be fused at all on this machine/processor count?
    pub fn should_fuse(&self, seq: &LoopSequence, start: usize, end: usize) -> bool {
        end - start >= 2 && self.profitable_to_grow(seq, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    fn two_loop_seq(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("t");
        let a = b.array("a", [n, n]);
        let bb = b.array("b", [n, n]);
        let c = b.array("c", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(bb, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(a, [0, 0]) + x.ld(bb, [0, 0]);
            x.assign(c, [0, 0], r);
        });
        b.finish()
    }

    #[test]
    fn data_per_processor_counts_distinct_arrays() {
        let seq = two_loop_seq(128);
        let m = ProfitabilityModel::new(1 << 20, 4);
        // 3 arrays of 128*128 f64 = 393216 bytes, over 4 procs = 98304.
        assert_eq!(m.data_per_processor(&seq, 0, 2), 3 * 128 * 128 * 8 / 4);
        // First nest alone touches 2 arrays.
        assert_eq!(m.data_per_processor(&seq, 0, 1), 2 * 128 * 128 * 8 / 4);
    }

    #[test]
    fn fusion_stops_paying_when_data_fits() {
        let seq = two_loop_seq(128); // 384 KB total
        let small_cache = ProfitabilityModel::new(64 << 10, 1);
        assert!(small_cache.should_fuse(&seq, 0, 2));
        // With 16 processors, 24 KB per processor fits a 64 KB cache.
        let many_procs = ProfitabilityModel {
            processors: 16,
            ..small_cache
        };
        assert!(!many_procs.should_fuse(&seq, 0, 2));
    }

    #[test]
    fn strip_gives_every_array_a_partition() {
        // 3 arrays of 128-element rows (1 KiB each) in 64 KiB: 21 rows a
        // partition, less a shift of 2.
        let seq = two_loop_seq(128);
        let m = ProfitabilityModel::new(64 << 10, 1);
        assert_eq!(m.strip(&seq, 2, 1 << 30).size, (64 << 10) / 3 / 1024 - 2);
        assert_eq!(m.strip(&seq, 2, 8).size, 8);
    }
}
