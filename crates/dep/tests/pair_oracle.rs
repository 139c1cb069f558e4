//! The pair test checked against something other than itself: seeded
//! random uniform reference pairs, coupled subscripts included, run
//! through the closed form, through rational Gauss–Jordan elimination,
//! and through brute-force enumeration of the elements each iteration
//! touches.
//!
//! - Where the closed form applies it must say what `solve` says.
//! - `ref_distance` must equal `solve` followed by the realizability
//!   check, the path every pair took before the closed form existed.
//! - Against the enumeration, `Independent` is allowed only when no
//!   source and sink iteration touch one element, and every fixed level
//!   of a distance must be the distance of every such witness pair.

use proptest::test_runner::TestRng;
use sp_dep::{ref_distance, solve, solve_separable, LinSolution, PairDistance};
use sp_ir::{AffineExpr, ArrayId, ArrayRef, LoopBounds, LoopNest};

/// Cases per run; each enumerates at most 6^3 x 6^3 iteration pairs.
const CASES: usize = 3000;

fn pick(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
    lo + rng.below((hi - lo + 1) as u64) as i64
}

/// A nest of `depth` levels with small, random bounds and no body.
fn nest(rng: &mut TestRng, depth: usize) -> LoopNest {
    let bounds: Vec<LoopBounds> = (0..depth)
        .map(|_| {
            let lo = pick(rng, 0, 3);
            LoopBounds::new(lo, lo + pick(rng, 0, 5))
        })
        .collect();
    LoopNest::new("L", bounds, vec![])
}

/// One subscript's linear part: zero, one level with a coefficient in
/// `-3..=3`, or (one time in three) a coefficient in `-2..=2` on every
/// level, which mostly couples two or more of them.
fn linear_part(rng: &mut TestRng, depth: usize) -> Vec<i64> {
    let mut coeffs = vec![0; depth];
    match rng.below(6) {
        0 => {}
        1..=3 => coeffs[rng.below(depth as u64) as usize] = pick(rng, -3, 3),
        _ => {
            for c in &mut coeffs {
                *c = pick(rng, -2, 2);
            }
        }
    }
    coeffs
}

/// A uniform pair: one linear part per subscript, shared. Half the
/// time the sink's offsets are planted so that the pair depends at a
/// random distance in `-2..=2` per level; otherwise they are drawn
/// apart from the source's.
fn uniform_pair(rng: &mut TestRng, depth: usize, rank: usize) -> (ArrayRef, ArrayRef) {
    let planted: Option<Vec<i64>> =
        (rng.below(2) == 0).then(|| (0..depth).map(|_| pick(rng, -2, 2)).collect());
    let mut src = Vec::with_capacity(rank);
    let mut snk = Vec::with_capacity(rank);
    for _ in 0..rank {
        let coeffs = linear_part(rng, depth);
        let c = pick(rng, -4, 4);
        let c_snk = match &planted {
            // h·(i + d) + c_snk = h·i + c, so c_snk = c − h·d.
            Some(d) => c - coeffs.iter().zip(d).map(|(h, d)| h * d).sum::<i64>(),
            None => pick(rng, -4, 4),
        };
        src.push(AffineExpr::new(coeffs.clone(), c));
        snk.push(AffineExpr::new(coeffs, c_snk));
    }
    (
        ArrayRef::new(ArrayId(0), src),
        ArrayRef::new(ArrayId(0), snk),
    )
}

/// The system `h·d = c_src − c_snk` the pair's distances satisfy.
fn system(src: &ArrayRef, snk: &ArrayRef) -> (Vec<Vec<i64>>, Vec<i64>) {
    let rows = src.subs.iter().map(|s| s.coeffs.clone()).collect();
    let rhs = src
        .subs
        .iter()
        .zip(&snk.subs)
        .map(|(a, b)| a.offset - b.offset)
        .collect();
    (rows, rhs)
}

/// Every iteration of `nest`, in lexicographic order.
fn iterations(nest: &LoopNest) -> Vec<Vec<i64>> {
    let mut out = vec![vec![]];
    for b in &nest.bounds {
        out = out
            .into_iter()
            .flat_map(|p| {
                (b.lo..=b.hi).map(move |i| {
                    let mut q = p.clone();
                    q.push(i);
                    q
                })
            })
            .collect();
    }
    out
}

/// `i_snk − i_src` for every pair of iterations that touch one element.
fn witnesses(src: &ArrayRef, n1: &LoopNest, snk: &ArrayRef, n2: &LoopNest) -> Vec<Vec<i64>> {
    let touched: Vec<(Vec<i64>, Vec<i64>)> = iterations(n2)
        .into_iter()
        .map(|j| (snk.eval(&j), j))
        .collect();
    let mut out = Vec::new();
    for i in iterations(n1) {
        let elem = src.eval(&i);
        for (e, j) in &touched {
            if *e == elem {
                out.push(j.iter().zip(&i).map(|(a, b)| a - b).collect());
            }
        }
    }
    out
}

/// The pair test as it ran before the closed form: Gauss–Jordan, then
/// the per-level realizability check.
fn by_elimination(src: &ArrayRef, n1: &LoopNest, snk: &ArrayRef, n2: &LoopNest) -> PairDistance {
    let (rows, rhs) = system(src, snk);
    let LinSolution::Solvable { fixed } = solve(&rows, &rhs) else {
        return PairDistance::Independent;
    };
    for (l, d) in fixed.iter().enumerate() {
        let Some(d) = d else { continue };
        let (b1, b2) = (n1.bounds[l], n2.bounds[l]);
        if b1.lo.max(b2.lo - d) > b1.hi.min(b2.hi - d) {
            return PairDistance::Independent;
        }
    }
    PairDistance::Distance(fixed)
}

#[test]
fn closed_form_elimination_and_enumeration_agree() {
    let mut rng = TestRng::deterministic("pair_oracle");
    let (mut coupled, mut independent, mut with_witness, mut fixed_levels) = (0, 0, 0, 0);
    for case in 0..CASES {
        let depth = 1 + rng.below(3) as usize;
        let rank = 1 + rng.below(2) as usize;
        let (n1, n2) = (nest(&mut rng, depth), nest(&mut rng, depth));
        let (src, snk) = uniform_pair(&mut rng, depth, rank);
        let (rows, rhs) = system(&src, &snk);
        let what = format!("case {case}: src {src:?} over {n1:?}, sink {snk:?} over {n2:?}");

        // The closed form, where it applies, is Gauss–Jordan's answer.
        let mut fixed = vec![None; depth];
        let pairs = rows.iter().map(Vec::as_slice).zip(rhs.iter().copied());
        match solve_separable(pairs, &mut fixed) {
            None => coupled += 1,
            Some(consistent) => {
                let closed = if consistent {
                    LinSolution::Solvable { fixed }
                } else {
                    LinSolution::Inconsistent
                };
                assert_eq!(closed, solve(&rows, &rhs), "{what}");
            }
        }

        // The dispatching pair test is the elimination path.
        let got = ref_distance(&src, &n1, &snk, &n2);
        assert_eq!(got, by_elimination(&src, &n1, &snk, &n2), "{what}");

        // Both hold up against the accessed elements.
        let seen = witnesses(&src, &n1, &snk, &n2);
        with_witness += usize::from(!seen.is_empty());
        match got {
            PairDistance::Independent => {
                independent += 1;
                assert!(seen.is_empty(), "{what}: independent, but {seen:?} collide");
            }
            PairDistance::Distance(dist) => {
                for (l, d) in dist.iter().enumerate() {
                    let Some(d) = *d else { continue };
                    fixed_levels += 1;
                    for w in &seen {
                        assert_eq!(w[l], d, "{what}: witness {w:?} at level {l}, distance {d}");
                    }
                }
            }
        }
    }
    // The generator reached every branch it is meant to cover (this
    // seed: 701 coupled, 1444 independent, 1461 witnessed, 1008 fixed).
    assert!(coupled > CASES / 6, "{coupled} coupled pairs");
    assert!(independent > CASES / 4, "{independent} independent pairs");
    assert!(
        with_witness > CASES / 3,
        "{with_witness} pairs with a witness"
    );
    assert!(fixed_levels > CASES / 4, "{fixed_levels} fixed levels");
}
