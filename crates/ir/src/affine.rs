//! Affine functions of loop index vectors.
//!
//! Every array subscript in the IR is an [`AffineExpr`]: a function
//! `f(~i) = c0*i0 + c1*i1 + ... + c_{n-1}*i_{n-1} + c` of the enclosing
//! loop indices `i0..i_{n-1}` (outermost first). Keeping subscripts affine
//! is exactly what makes exact dependence-distance computation possible
//! (Section 2.1 of the paper), and *uniform* dependences — the precondition
//! of shift-and-peel — correspond to pairs of references whose affine
//! subscripts share the same linear part.

use crate::display::write_int;
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// An affine function of a loop index vector: `coeffs · ~i + offset`.
///
/// `coeffs[l]` multiplies the index of loop level `l` (level 0 is the
/// outermost loop of the enclosing nest).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    /// Per-loop-level coefficients, outermost first.
    pub coeffs: Vec<i64>,
    /// Constant offset.
    pub offset: i64,
}

impl AffineExpr {
    /// The constant function `c` over a nest of depth `depth`.
    pub fn constant(depth: usize, c: i64) -> Self {
        AffineExpr {
            coeffs: vec![0; depth],
            offset: c,
        }
    }

    /// The function `i_level + offset` over a nest of depth `depth`.
    ///
    /// # Panics
    /// Panics if `level >= depth`.
    pub fn var(depth: usize, level: usize, offset: i64) -> Self {
        assert!(
            level < depth,
            "loop level {level} out of range for depth {depth}"
        );
        let mut coeffs = vec![0; depth];
        coeffs[level] = 1;
        AffineExpr { coeffs, offset }
    }

    /// Builds an affine expression from explicit coefficients and offset.
    pub fn new(coeffs: Vec<i64>, offset: i64) -> Self {
        AffineExpr { coeffs, offset }
    }

    /// Number of loop levels this expression is defined over.
    pub fn depth(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the expression at an iteration point.
    ///
    /// # Panics
    /// Panics if `point.len() != self.depth()`.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(
            point.len(),
            self.coeffs.len(),
            "iteration point arity mismatch"
        );
        self.coeffs
            .iter()
            .zip(point)
            .map(|(c, i)| c * i)
            .sum::<i64>()
            + self.offset
    }

    /// True if the linear parts of `self` and `other` are identical, i.e.
    /// the two expressions differ only by a constant. Pairs of references
    /// whose subscripts satisfy this in every dimension generate *uniform*
    /// dependences (Section 4 of the paper: `f(~i) = h·~i + c_f`).
    pub fn same_linear_part(&self, other: &AffineExpr) -> bool {
        self.coeffs == other.coeffs
    }

    /// True if the expression does not depend on any loop index.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// The coefficient of loop level `level`, or 0 when out of range.
    pub fn coeff(&self, level: usize) -> i64 {
        self.coeffs.get(level).copied().unwrap_or(0)
    }

    /// Returns a copy with `delta` added to the coefficient-weighted value
    /// of loop level `level`; used when rewriting subscripts for the direct
    /// fusion method (Figure 11(a)): substituting `i := i - shift` turns
    /// `c*i + off` into `c*i + (off - c*shift)`.
    pub fn substitute_shift(&self, level: usize, shift: i64) -> Self {
        let mut out = self.clone();
        out.offset -= self.coeff(level) * shift;
        out
    }

    /// Interval of values taken over the rectangular iteration space
    /// `bounds` (inclusive lo/hi per level). Affine functions attain their
    /// extrema at corners, and separability per variable makes the interval
    /// computation exact.
    pub fn range_over(&self, bounds: &[(i64, i64)]) -> (i64, i64) {
        assert_eq!(bounds.len(), self.coeffs.len());
        let mut lo = self.offset;
        let mut hi = self.offset;
        for (c, &(blo, bhi)) in self.coeffs.iter().zip(bounds) {
            debug_assert!(blo <= bhi, "empty bounds");
            if *c >= 0 {
                lo += c * blo;
                hi += c * bhi;
            } else {
                lo += c * bhi;
                hi += c * blo;
            }
        }
        (lo, hi)
    }
}

impl Add<i64> for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: i64) -> AffineExpr {
        self.offset += rhs;
        self
    }
}

impl Sub<i64> for AffineExpr {
    type Output = AffineExpr;
    fn sub(mut self, rhs: i64) -> AffineExpr {
        self.offset -= rhs;
        self
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        assert_eq!(self.depth(), rhs.depth());
        for (a, b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a += b;
        }
        self.offset += rhs.offset;
        self
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(mut self) -> AffineExpr {
        for c in &mut self.coeffs {
            *c = -*c;
        }
        self.offset = -self.offset;
        self
    }
}

impl AffineExpr {
    /// Writes the [`Display`](fmt::Display) form to `out`: `i0-2*i1+3`,
    /// a zero coefficient omitted, a unit one written bare, the offset
    /// last (alone when every coefficient is zero).
    pub(crate) fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let mut first = true;
        for (l, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            match c {
                1 if !first => out.write_char('+')?,
                1 => {}
                -1 => out.write_char('-')?,
                _ => {
                    if c > 0 && !first {
                        out.write_char('+')?;
                    }
                    write_int(out, c)?;
                    out.write_char('*')?;
                }
            }
            out.write_char('i')?;
            write_int(out, l as i64)?;
            first = false;
        }
        if first {
            write_int(out, self.offset)
        } else if self.offset > 0 {
            out.write_char('+')?;
            write_int(out, self.offset)
        } else if self.offset < 0 {
            write_int(out, self.offset)
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic() {
        let e = AffineExpr::new(vec![1, -2], 3);
        assert_eq!(e.eval(&[10, 4]), 10 - 8 + 3);
    }

    #[test]
    fn var_and_constant() {
        let v = AffineExpr::var(3, 1, -2);
        assert_eq!(v.eval(&[0, 7, 0]), 5);
        let c = AffineExpr::constant(2, 9);
        assert!(c.is_constant());
        assert_eq!(c.eval(&[100, 200]), 9);
    }

    #[test]
    fn same_linear_part_ignores_offset() {
        let a = AffineExpr::var(2, 0, 1);
        let b = AffineExpr::var(2, 0, -5);
        assert!(a.same_linear_part(&b));
        let c = AffineExpr::var(2, 1, 1);
        assert!(!a.same_linear_part(&c));
    }

    #[test]
    fn substitute_shift_adjusts_offset() {
        // c[i-1] after substituting i := i - 1 becomes c[i-2].
        let e = AffineExpr::var(1, 0, -1);
        let shifted = e.substitute_shift(0, 1);
        assert_eq!(shifted, AffineExpr::var(1, 0, -2));
        // A subscript not mentioning the level is unchanged.
        let e2 = AffineExpr::var(2, 1, 0);
        assert_eq!(e2.substitute_shift(0, 3), e2);
    }

    #[test]
    fn range_over_rectangle() {
        let e = AffineExpr::new(vec![2, -1], 1);
        // i0 in [0,3], i1 in [1,5]: min = 0 - 5 + 1 = -4, max = 6 - 1 + 1 = 6
        assert_eq!(e.range_over(&[(0, 3), (1, 5)]), (-4, 6));
    }

    #[test]
    fn display_round_trips_visually() {
        let e = AffineExpr::new(vec![1, -1], 2);
        assert_eq!(e.to_string(), "i0-i1+2");
        assert_eq!(AffineExpr::constant(2, -3).to_string(), "-3");
        assert_eq!(AffineExpr::var(2, 1, 0).to_string(), "i1");
    }

    /// The `write!`-per-term form the writer replaced, as the definition
    /// of the bytes: every cache and artifact key hashes them.
    fn reference(e: &AffineExpr) -> String {
        let mut s = String::new();
        for (l, &c) in e.coeffs.iter().enumerate().filter(|(_, &c)| c != 0) {
            s += &match (s.is_empty(), c) {
                (true, 1) => format!("i{l}"),
                (_, -1) => format!("-i{l}"),
                (false, 1) => format!("+i{l}"),
                (false, c) if c > 0 => format!("+{c}*i{l}"),
                (_, c) => format!("{c}*i{l}"),
            };
        }
        match (s.is_empty(), e.offset) {
            (true, c) => s += &c.to_string(),
            (false, c) if c > 0 => s += &format!("+{c}"),
            (false, c) if c < 0 => s += &c.to_string(),
            _ => {}
        }
        s
    }

    #[test]
    fn display_matches_the_per_term_reference() {
        let mut seen = 0;
        for c0 in -3..=3 {
            for c1 in -3..=3 {
                for off in [-12, -1, 0, 1, 7, i64::MIN, i64::MAX] {
                    let e = AffineExpr::new(vec![c0, c1], off);
                    assert_eq!(e.to_string(), reference(&e), "{e:?}");
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 7 * 7 * 7);
        let wide = AffineExpr::new(vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1234], -56);
        assert_eq!(wide.to_string(), "-1234*i11-56");
    }

    #[test]
    fn algebra() {
        let a = AffineExpr::var(2, 0, 1);
        let b = AffineExpr::var(2, 1, 2);
        let s = a.clone() + b;
        assert_eq!(s, AffineExpr::new(vec![1, 1], 3));
        assert_eq!(-a, AffineExpr::new(vec![-1, 0], -1));
    }
}
