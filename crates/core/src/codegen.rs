//! Code-generation parameters for fused loops (Section 3.4).
//!
//! The paper implements fusion by strip-mining each member nest by a
//! factor `s` and fusing the controlling loops (Figure 11(b)); the strip
//! size doubles as the knob that bounds how much of each array is live in
//! the cache at once, coupling code generation to cache partitioning
//! (Section 4, last paragraph): *"the partition size directly determines
//! the maximum strip-mining size for fusion"*.

use crate::derive::Derivation;
use sp_ir::LoopSequence;

/// Strip-mining specification for a fused group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripSpec {
    /// Strip size in iterations of the outermost fused loop.
    pub size: i64,
}

impl StripSpec {
    /// Creates a strip of `size` iterations (>= 1).
    pub fn new(size: i64) -> Self {
        assert!(size >= 1, "strip size must be positive");
        StripSpec { size }
    }
}

/// Picks the largest strip size such that the data each strip touches per
/// array fits in one cache partition.
///
/// With `na` arrays sharing a cache of `cache_bytes`, each partition holds
/// `cache_bytes / na` bytes (Figure 19). One strip iteration of the
/// outermost fused loop touches `bytes_per_iter` bytes of each array
/// (e.g. one row of a 2-D array); shifting extends the live window by
/// `max_shift` further iterations, which must also stay resident for the
/// reuse to be caught. The result is clamped to `[1, max_strip]`.
pub(crate) fn suggest_strip(
    cache_bytes: usize,
    na: usize,
    bytes_per_iter: usize,
    max_shift: i64,
    max_strip: i64,
) -> StripSpec {
    assert!(na >= 1 && bytes_per_iter >= 1);
    let partition = cache_bytes / na;
    let rows = (partition / bytes_per_iter) as i64 - max_shift;
    StripSpec::new(rows.clamp(1, max_strip.max(1)))
}

/// Per-iteration bytes touched in one array by the outermost fused loop:
/// the product of the inner extents times the element size. For 1-D
/// arrays this is just the element size.
pub(crate) fn bytes_per_outer_iter(seq: &LoopSequence, elem_bytes: usize) -> usize {
    seq.arrays
        .iter()
        .map(|a| a.dims[1..].iter().product::<usize>() * elem_bytes)
        .max()
        .unwrap_or(elem_bytes)
}

/// Static operation-count summary of a fused group, used by the machine
/// cost model to charge transformation overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCost {
    /// Total loop iterations executed in the fused phase.
    pub fused_iters: u64,
    /// Iterations executed in the peeled phase.
    pub peeled_iters: u64,
    /// Number of strips (inner-loop bound recomputations).
    pub strips: u64,
    /// Barriers executed (1 for the fused/peeled split).
    pub barriers: u64,
}

/// Estimates the iteration breakdown of a fused group for one processor
/// block of `block_iters` outer iterations, given the derivation.
pub fn estimate_block_cost(
    deriv: &Derivation,
    nest_trips: &[u64],
    block_iters: u64,
    strip: StripSpec,
) -> GroupCost {
    let dim = &deriv.dims[0];
    let mut fused = 0u64;
    let mut peeled = 0u64;
    for (k, &trip) in nest_trips.iter().enumerate() {
        let extra = (dim.shifts[k] + dim.peels[k]) as u64;
        let per_outer = trip / block_iters.max(1);
        fused += trip;
        peeled += extra * per_outer.max(1);
    }
    GroupCost {
        fused_iters: fused,
        peeled_iters: peeled,
        strips: block_iters.div_ceil(strip.size as u64),
        barriers: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_respects_partition() {
        // 1 MB cache, 9 arrays -> ~116 KB partitions; 8 KB rows -> 14 rows
        // minus shift 2 = 12.
        let s = suggest_strip(1 << 20, 9, 8192, 2, 1 << 30);
        assert_eq!(s.size, (1 << 20) / 9 / 8192 - 2);
    }

    #[test]
    fn strip_clamped_to_one() {
        let s = suggest_strip(1024, 16, 8192, 5, 100);
        assert_eq!(s.size, 1);
    }

    #[test]
    fn strip_clamped_to_max() {
        let s = suggest_strip(1 << 30, 1, 8, 0, 64);
        assert_eq!(s.size, 64);
    }

    #[test]
    #[should_panic]
    fn zero_strip_rejected() {
        StripSpec::new(0);
    }
}
