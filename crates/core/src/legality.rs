//! Legality of the shift-and-peel transformation (Section 3.5 and
//! Appendix I of the paper).
//!
//! Shift-and-peel applies to an *admissible parallel loop sequence* with
//! uniform interloop dependences, executed on `P` processors with static
//! blocked scheduling, provided every block has at least `Nt` iterations
//! per fused dimension (Theorem 1). The planner checks the first
//! conditions (it fuses only nests that are parallel in every fused level,
//! and derivation refuses non-uniform distances). The block condition
//! needs a grid, so [`check_blocks`] is made where one is known: the
//! executor's phase list. This module holds that check and the typed
//! failures of all of them.

use crate::derive::{Derivation, DeriveError};
use crate::schedule::ProcBlock;
use std::fmt;

/// A reason shift-and-peel cannot be applied (or cannot be applied with a
/// given processor count).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LegalityError {
    /// Dependence analysis / derivation failed.
    Derive(DeriveError),
    /// A processor block has fewer iterations than the iteration count
    /// threshold `Nt` in some fused level (Theorem 1's
    /// `floor((u - l + 1)/P) >= Nt` condition).
    BlockTooSmall {
        level: usize,
        block_iters: i64,
        nt: i64,
    },
    /// The requested number of fused levels is zero or exceeds the
    /// sequence depth.
    BadLevels { levels: usize, depth: usize },
    /// A processor grid's dimensionality does not match the fused range.
    GridMismatch {
        global_dims: usize,
        grid_dims: usize,
    },
    /// A processor grid dimension has zero processors.
    EmptyGrid { level: usize },
    /// More processors than iterations along a fused level: some block
    /// would be empty.
    TooManyProcs {
        level: usize,
        procs: usize,
        trip: i64,
    },
    /// A fused group covers no nests, so it has no iteration range.
    EmptyGroup,
}

impl fmt::Display for LegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalityError::Derive(e) => write!(f, "{e}"),
            LegalityError::BlockTooSmall {
                level,
                block_iters,
                nt,
            } => write!(
                f,
                "block has {block_iters} iterations in level {level}, below threshold Nt={nt}"
            ),
            LegalityError::BadLevels { levels, depth } => write!(
                f,
                "cannot fuse {levels} levels of a sequence with depth {depth} (need 1..=depth)"
            ),
            LegalityError::GridMismatch {
                global_dims,
                grid_dims,
            } => write!(
                f,
                "processor grid has {grid_dims} dimensions but the fused range has {global_dims}"
            ),
            LegalityError::EmptyGrid { level } => {
                write!(f, "processor grid has zero processors in level {level}")
            }
            LegalityError::TooManyProcs { level, procs, trip } => write!(
                f,
                "{procs} processors but only {trip} iterations in level {level}"
            ),
            LegalityError::EmptyGroup => write!(f, "fused group covers no nests"),
        }
    }
}

impl std::error::Error for LegalityError {}

impl From<DeriveError> for LegalityError {
    fn from(e: DeriveError) -> Self {
        LegalityError::Derive(e)
    }
}

/// Verifies Theorem 1's block-size condition for a concrete block
/// decomposition: every block must span at least `Nt` iterations in every
/// fused dimension.
pub fn check_blocks(deriv: &Derivation, blocks: &[ProcBlock]) -> Result<(), LegalityError> {
    for dim in &deriv.dims {
        let nt = dim.nt();
        for b in blocks {
            let (lo, hi) = b.range[dim.level];
            let iters = hi - lo + 1;
            if iters < nt {
                return Err(LegalityError::BlockTooSmall {
                    level: dim.level,
                    block_iters: iters,
                    nt,
                });
            }
        }
    }
    Ok(())
}

/// The largest processor count along one fused dimension for which the
/// transformation stays legal (Theorem 1): `floor(trip / Nt)`, at least 1.
pub fn max_procs(trip_count: i64, nt: i64) -> usize {
    if nt <= 0 {
        usize::MAX
    } else {
        ((trip_count / nt).max(1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive_levels;
    use crate::schedule::decompose;
    use sp_ir::SeqBuilder;

    /// The derivation of `swap_seq(n)`'s one fused level.
    fn swap_derivation(n: usize) -> Derivation {
        let seq = swap_seq(n);
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        derive_levels(&deps, seq.len(), 1).unwrap()
    }

    fn swap_seq(n: usize) -> sp_ir::LoopSequence {
        let mut b = SeqBuilder::new("swap");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        b.nest("L1", [(1, n as i64 - 1)], |x| {
            let r = x.ld(bb, [-1]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(1, n as i64 - 1)], |x| {
            let r = x.ld(a, [-1]);
            x.assign(bb, [0], r);
        });
        b.finish()
    }

    #[test]
    fn swap_needs_two_iterations_a_block() {
        assert_eq!(swap_derivation(64).dims[0].nt(), 2);
    }

    #[test]
    fn block_size_threshold_enforced() {
        let deriv = swap_derivation(16); // 15 iterations, Nt = 2
        let ok = decompose(&[(1, 15)], &[7]).unwrap(); // blocks of 2-3
        assert!(check_blocks(&deriv, &ok).is_ok());
        let bad = decompose(&[(1, 15)], &[8]).unwrap(); // smallest block has 1
        assert!(matches!(
            check_blocks(&deriv, &bad),
            Err(LegalityError::BlockTooSmall { nt: 2, .. })
        ));
    }

    #[test]
    fn max_procs_formula() {
        assert_eq!(max_procs(510, 2), 255);
        assert_eq!(max_procs(510, 0), usize::MAX);
        assert_eq!(max_procs(3, 5), 1);
    }

    /// Theorem 1 at the boundary: a block of exactly `Nt` iterations is
    /// legal (`floor(trip/P) >= Nt` is non-strict); `Nt - 1` is not;
    /// `Nt + 1` is. Pinned so the check can never drift to a strict
    /// inequality without failing here.
    #[test]
    fn block_exactly_nt_is_legal() {
        let deriv = swap_derivation(64);
        let nt = deriv.dims[0].nt();
        assert_eq!(nt, 2);
        let p = 4usize;
        for (delta, legal) in [(-1i64, false), (0, true), (1, true)] {
            // Trip chosen so every one of the `p` blocks has exactly
            // `nt + delta` iterations.
            let trip = p as i64 * (nt + delta);
            let blocks = decompose(&[(1, trip)], &[p]).unwrap();
            assert!(blocks.iter().all(|b| {
                let (lo, hi) = b.range[0];
                hi - lo + 1 == nt + delta
            }));
            let got = check_blocks(&deriv, &blocks);
            match (legal, got) {
                (true, Ok(())) => {}
                (false, Err(LegalityError::BlockTooSmall { block_iters, .. })) => {
                    assert_eq!(block_iters, nt - 1);
                }
                (_, got) => panic!("block = Nt{delta:+}: unexpected {got:?}"),
            }
        }
    }

    /// The executors' grid clamp (`eff = min(g, trip/nt)`, see
    /// `build_work` in sp-exec) must agree with [`check_blocks`] at the
    /// boundary: for every trip and requested processor count, the
    /// clamped decomposition always passes Theorem 1, and an unclamped
    /// count passes exactly when `p <= floor(trip/nt) = max_procs`.
    #[test]
    fn clamp_rounding_agrees_with_legality_check() {
        let deriv = swap_derivation(64);
        let nt = deriv.dims[0].nt();
        for trip in nt..=4 * nt + 3 {
            for p in 1..=trip as usize {
                let blocks = decompose(&[(1, trip)], &[p]).unwrap();
                let legal = check_blocks(&deriv, &blocks).is_ok();
                assert_eq!(
                    legal,
                    p <= max_procs(trip, nt),
                    "trip {trip}, p {p}: check and max_procs disagree"
                );
                // The clamp the executors apply before decomposing.
                let eff = (p as i64).min(trip / nt).max(1) as usize;
                let clamped = decompose(&[(1, trip)], &[eff]).unwrap();
                assert!(
                    check_blocks(&deriv, &clamped).is_ok() || trip < nt,
                    "trip {trip}, p {p}: clamped grid still illegal"
                );
            }
        }
    }
}
