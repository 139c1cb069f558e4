//! Skewed-load variant of the Jacobi pair: a full-range stencil fused
//! with a consumer that only sweeps the first quarter of the rows.
//!
//! Static blocking assigns the quarter-range nest's rows to whichever
//! processors own the low blocks, so those workers carry roughly twice
//! the per-step work of the rest — the skewed production traffic ROADMAP
//! item 5 describes, in kernel form. The stealing schedule
//! (`Schedule::Stealing` in `sp-exec`) exists to flatten exactly
//! this profile; the scheduling bench and the CI gate run this kernel
//! under `static` and `stealing` on the same seed and compare the
//! reported busy-time imbalance.

use crate::meta::KernelMeta;
use sp_ir::{LoopSequence, SeqBuilder};

/// Builds the skewed two-loop sequence over `n x n` arrays: `L1` sweeps
/// rows `1..=n-2`, `L2` consumes its output over rows `1..=n/4` only.
/// The fused range is the union (paper Section 3.5 — differing bounds
/// are clipped per nest), so every processor block is well-formed while
/// the low blocks do double duty.
///
/// # Panics
/// Panics if `n < 12`.
pub fn sequence(n: usize) -> LoopSequence {
    assert!(n >= 12, "skewed needs n >= 12");
    let mut b = SeqBuilder::new("skewed");
    let a = b.array("a", [n, n]);
    let bb = b.array("b", [n, n]);
    let c = b.array("c", [n, n]);
    let (lo, hi) = (1i64, n as i64 - 2);
    let quarter = (n as i64 / 4).max(2);
    b.nest("L1", [(lo, hi), (lo, hi)], |x| {
        let r = (x.ld(a, [0, -1]) + x.ld(a, [0, 1]) + x.ld(a, [-1, 0]) + x.ld(a, [1, 0])) / 4.0;
        x.assign(bb, [0, 0], r);
    });
    // A deliberately heavy 9-point body: the narrow nest costs about
    // twice the wide one per row, sharpening the per-worker skew so the
    // static/stealing imbalance gap survives measurement noise even at
    // two workers.
    b.nest("L2", [(lo, quarter), (lo, hi)], |x| {
        let r = (x.ld(bb, [0, -1])
            + x.ld(bb, [0, 1])
            + x.ld(bb, [-1, 0])
            + x.ld(bb, [1, 0])
            + x.ld(bb, [-1, -1])
            + x.ld(bb, [-1, 1])
            + x.ld(bb, [1, -1])
            + x.ld(bb, [1, 1]))
            / 8.0;
        x.assign(c, [0, 0], r);
    });
    b.finish()
}

/// Expectations for the skewed pair: same dependence structure as the
/// Jacobi worked example (shift one, peel one), narrower second nest.
pub fn meta() -> KernelMeta {
    KernelMeta {
        name: "skewed",
        description: "full-range stencil fused with a quarter-range consumer",
        paper_loc: 0,
        num_sequences: 1,
        longest_sequence: 2,
        max_shift: 1,
        max_peel: 1,
        expected_shifts: &[0, 1],
        expected_peels: &[0, 1],
        num_arrays: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_peel_core::derive_shift_peel;

    #[test]
    fn fuses_with_jacobi_amounts_despite_narrow_second_nest() {
        let d = derive_shift_peel(&sequence(64)).unwrap();
        assert!(d.fused_levels() >= 1);
        assert_eq!(d.dims[0].shifts, meta().expected_shifts);
        assert_eq!(d.dims[0].peels, meta().expected_peels);
    }

    #[test]
    fn second_nest_covers_a_quarter_of_the_rows() {
        let seq = sequence(64);
        let full = seq.nests[0].bounds[0].count();
        let narrow = seq.nests[1].bounds[0].count();
        assert!(narrow * 3 < full, "{narrow} rows vs {full}");
    }
}
