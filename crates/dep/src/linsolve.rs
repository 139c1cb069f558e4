//! Exact solver for the small linear systems that dependence distances
//! satisfy.
//!
//! For a pair of *uniform* references `h·~i + c1` (source) and `h·~i + c2`
//! (sink) the dependence distances `~d = ~i_sink - ~i_src` are the integer
//! solutions of `h·~d = c1 - c2`. This module solves such systems exactly
//! (rational Gauss–Jordan elimination) and reports, per coordinate, whether
//! the solution is *fixed* — the same in every solution — or *free*.
//! Fixed coordinates are exactly the dimensions in which the dependence is
//! uniform, which is what the shift-and-peel derivation consumes.

use crate::rational::Rational;

/// Outcome of solving `A·x = b` over the integers (conservatively:
/// solved over the rationals, with integrality verified on the fixed
/// coordinates).
#[derive(Clone, Debug, PartialEq)]
pub enum LinSolution {
    /// The system has no solution at all: the references never touch the
    /// same element, hence no dependence.
    Inconsistent,
    /// The system is consistent. `fixed[j] = Some(v)` when coordinate `j`
    /// has value `v` in *every* solution; `None` when the coordinate varies
    /// across the solution set (a free direction).
    Solvable {
        /// Per-coordinate fixed values.
        fixed: Vec<Option<i64>>,
    },
}

/// Solves `A·x = b` with `A` given row-major as `rows` (each of length
/// `ncols`) and reports per-coordinate fixedness.
///
/// A fixed coordinate whose unique rational value is not an integer makes
/// the whole system integer-infeasible, so [`LinSolution::Inconsistent`] is
/// returned. Free coordinates are treated conservatively: integer
/// feasibility in the free directions is *assumed* (a dependence is
/// assumed), which is safe for a legality analysis.
#[allow(clippy::needless_range_loop)] // row/column indexing mirrors the math
pub fn solve(rows: &[Vec<i64>], b: &[i64]) -> LinSolution {
    assert_eq!(rows.len(), b.len(), "row/rhs count mismatch");
    let nrows = rows.len();
    let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
    for r in rows {
        assert_eq!(r.len(), ncols, "ragged matrix");
    }

    // Augmented matrix over rationals.
    let mut m: Vec<Vec<Rational>> = rows
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            row.iter()
                .map(|&v| Rational::from_int(v))
                .chain(std::iter::once(Rational::from_int(rhs)))
                .collect()
        })
        .collect();

    // Gauss–Jordan to reduced row echelon form.
    let mut pivot_of_col: Vec<Option<usize>> = vec![None; ncols];
    let mut rank = 0usize;
    for col in 0..ncols {
        // Find a pivot row.
        let Some(pr) = (rank..nrows).find(|&r| !m[r][col].is_zero()) else {
            continue;
        };
        m.swap(rank, pr);
        let inv = m[rank][col].recip();
        for v in &mut m[rank] {
            *v = *v * inv;
        }
        for r in 0..nrows {
            if r != rank && !m[r][col].is_zero() {
                let factor = m[r][col];
                for c in 0..=ncols {
                    let sub = m[rank][c] * factor;
                    m[r][c] = m[r][c] - sub;
                }
            }
        }
        pivot_of_col[col] = Some(rank);
        rank += 1;
    }

    // Consistency: a row of zeros with nonzero rhs means no solution.
    for r in rank..nrows {
        if !m[r][ncols].is_zero() {
            return LinSolution::Inconsistent;
        }
    }

    // A pivot column is fixed iff its row has zero coefficients on every
    // free (non-pivot) column.
    let mut fixed: Vec<Option<i64>> = vec![None; ncols];
    for col in 0..ncols {
        let Some(pr) = pivot_of_col[col] else {
            continue; // free variable: varies across solutions
        };
        let depends_on_free =
            (0..ncols).any(|c| c != col && pivot_of_col[c].is_none() && !m[pr][c].is_zero());
        if depends_on_free {
            continue;
        }
        match m[pr][ncols].to_integer() {
            Some(v) => fixed[col] = Some(v),
            // Unique rational value that is not an integer: no integer
            // solution exists at all.
            None => return LinSolution::Inconsistent,
        }
    }

    LinSolution::Solvable { fixed }
}

/// [`solve`] in closed form for a *separable* system, one whose every
/// row has at most one non-zero coefficient — the distance system of a
/// uniform pair whose subscripts each name at most one loop level:
///
/// - a zero row is consistent iff its right-hand side is zero;
/// - a row `h·x_j = b` fixes `x_j = b / h`, and is inconsistent if that
///   is not an integer or another row fixed `x_j` to something else;
/// - a column no row names is free.
///
/// `rows` yields `(coefficients, rhs)` pairs and is walked twice: once to
/// check separability, once to solve. `fixed` must hold one `None` per
/// column on entry. Returns `None`, with `fixed` untouched, when a row
/// couples two columns or names one past `fixed` ([`solve`] is then the
/// only way), and otherwise whether the system is consistent. A
/// consistent system leaves in `fixed` exactly what
/// [`LinSolution::Solvable`] would carry; an inconsistent one leaves it
/// unspecified. Nothing is allocated.
pub fn solve_separable<'r>(
    rows: impl Iterator<Item = (&'r [i64], i64)> + Clone,
    fixed: &mut [Option<i64>],
) -> Option<bool> {
    let ncols = fixed.len();
    // `Some(None)` for a zero row, `Some(Some((j, h)))` for `h·x_j`.
    let column = |coeffs: &[i64]| {
        let mut named = coeffs.iter().enumerate().filter(|&(_, &h)| h != 0);
        match (named.next(), named.next()) {
            (None, _) => Some(None),
            (Some((j, &h)), None) if j < ncols => Some(Some((j, h))),
            _ => None,
        }
    };
    for (coeffs, _) in rows.clone() {
        column(coeffs)?;
    }
    for (coeffs, b) in rows {
        let consistent = match column(coeffs).expect("checked above") {
            None => b == 0,
            Some((j, h)) => b % h == 0 && *fixed[j].get_or_insert(b / h) == b / h,
        };
        if !consistent {
            return Some(false);
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_solution() {
        // x = 3, y = -2
        let sol = solve(&[vec![1, 0], vec![0, 1]], &[3, -2]);
        assert_eq!(
            sol,
            LinSolution::Solvable {
                fixed: vec![Some(3), Some(-2)]
            }
        );
    }

    #[test]
    fn inconsistent() {
        // x + y = 1; x + y = 2
        let sol = solve(&[vec![1, 1], vec![1, 1]], &[1, 2]);
        assert_eq!(sol, LinSolution::Inconsistent);
    }

    #[test]
    fn underdetermined_all_free() {
        // x + y = 4: neither coordinate fixed.
        let sol = solve(&[vec![1, 1]], &[4]);
        assert_eq!(
            sol,
            LinSolution::Solvable {
                fixed: vec![None, None]
            }
        );
    }

    #[test]
    fn partially_fixed() {
        // x = 2, y + z = 1: x fixed, y and z free.
        let sol = solve(&[vec![1, 0, 0], vec![0, 1, 1]], &[2, 1]);
        assert_eq!(
            sol,
            LinSolution::Solvable {
                fixed: vec![Some(2), None, None]
            }
        );
    }

    #[test]
    fn non_integer_unique_value_is_infeasible() {
        // 2x = 3 has no integer solution.
        let sol = solve(&[vec![2]], &[3]);
        assert_eq!(sol, LinSolution::Inconsistent);
    }

    #[test]
    fn redundant_rows_ok() {
        // x - y = 1 stated twice, plus x + y = 3 -> x=2, y=1.
        let sol = solve(&[vec![1, -1], vec![1, -1], vec![1, 1]], &[1, 1, 3]);
        assert_eq!(
            sol,
            LinSolution::Solvable {
                fixed: vec![Some(2), Some(1)]
            }
        );
    }

    #[test]
    fn no_columns() {
        // 0 = 0 is consistent; 0 = 1 is not.
        assert_eq!(
            solve(&[vec![]], &[0]),
            LinSolution::Solvable { fixed: vec![] }
        );
        assert_eq!(solve(&[vec![]], &[1]), LinSolution::Inconsistent);
    }

    /// `solve_separable` on `rows`/`b`, in `solve`'s terms.
    fn separable(rows: &[Vec<i64>], b: &[i64], ncols: usize) -> Option<LinSolution> {
        let mut fixed = vec![None; ncols];
        let pairs = rows.iter().map(Vec::as_slice).zip(b.iter().copied());
        let consistent = solve_separable(pairs, &mut fixed)?;
        Some(if consistent {
            LinSolution::Solvable { fixed }
        } else {
            LinSolution::Inconsistent
        })
    }

    #[test]
    fn closed_form_equals_gauss_jordan_on_every_small_separable_system() {
        // Two rows over two columns, each row naming at most one column
        // with a coefficient in -2..=2, right-hand sides in -3..=3.
        let row_shapes: Vec<Vec<i64>> = (-2..=2).flat_map(|h| [vec![h, 0], vec![0, h]]).collect();
        let mut systems = 0;
        for r0 in &row_shapes {
            for r1 in &row_shapes {
                for b0 in -3..=3 {
                    for b1 in -3..=3 {
                        let rows = [r0.clone(), r1.clone()];
                        let b = [b0, b1];
                        assert_eq!(
                            separable(&rows, &b, 2),
                            Some(solve(&rows, &b)),
                            "{rows:?} = {b:?}"
                        );
                        systems += 1;
                    }
                }
            }
        }
        assert_eq!(systems, 10 * 10 * 49);
    }

    #[test]
    fn closed_form_declines_coupled_rows() {
        assert_eq!(separable(&[vec![1, 1]], &[4], 2), None);
        // A column past the caller's is not its to fix either.
        assert_eq!(separable(&[vec![0, 0, 1]], &[4], 2), None);
        assert_eq!(
            separable(&[vec![0, 0]], &[0], 2),
            Some(LinSolution::Solvable {
                fixed: vec![None, None]
            })
        );
    }

    #[test]
    fn scaled_rows_reduce() {
        // 2x + 4y = 6 and x + 2y = 3 are the same constraint: x depends on
        // free y, so nothing is fixed.
        let sol = solve(&[vec![2, 4], vec![1, 2]], &[6, 3]);
        assert_eq!(
            sol,
            LinSolution::Solvable {
                fixed: vec![None, None]
            }
        );
    }
}
