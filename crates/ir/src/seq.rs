//! Loop sequences — the unit of fusion.

use crate::array::{ArrayDecl, ArrayId};
use crate::nest::LoopNest;
use crate::stmt::ArrayRef;
use std::fmt;

/// An ordered sequence of loop nests over a common set of arrays — the
/// "parallel loop sequence" of the paper (Figure 2) that fusion operates
/// on. Synchronization (a barrier) is implied between consecutive nests in
/// the original program.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopSequence {
    /// Name used in diagnostics and experiment output.
    pub name: String,
    /// Array declarations; `ArrayId(k)` refers to `arrays[k]`.
    pub arrays: Vec<ArrayDecl>,
    /// The loop nests, in program order.
    pub nests: Vec<LoopNest>,
}

/// A structural validation failure in a [`LoopSequence`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// An `ArrayId` does not name a declared array.
    UnknownArray { nest: usize, array: u32 },
    /// An `ArrayRef` has the wrong number of subscripts for its array.
    RankMismatch {
        nest: usize,
        array: String,
        expected: usize,
        got: usize,
    },
    /// A subscript expression's depth differs from its nest's depth.
    DepthMismatch {
        nest: usize,
        array: String,
        expected: usize,
        got: usize,
    },
    /// A subscript can take a value outside the array's extent.
    OutOfBounds {
        nest: usize,
        array: String,
        dim: usize,
        range: (i64, i64),
        extent: usize,
    },
    /// The sequence has no nests.
    Empty,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownArray { nest, array } => {
                write!(f, "nest {nest}: reference to undeclared array id {array}")
            }
            ValidationError::RankMismatch {
                nest,
                array,
                expected,
                got,
            } => {
                write!(f, "nest {nest}: array {array} has rank {expected} but reference has {got} subscripts")
            }
            ValidationError::DepthMismatch {
                nest,
                array,
                expected,
                got,
            } => {
                write!(f, "nest {nest}: subscript of {array} is over {got} loop levels, nest has {expected}")
            }
            ValidationError::OutOfBounds {
                nest,
                array,
                dim,
                range,
                extent,
            } => {
                write!(
                    f,
                    "nest {nest}: subscript {dim} of {array} ranges over [{}, {}] but extent is {extent}",
                    range.0, range.1
                )
            }
            ValidationError::Empty => write!(f, "sequence has no loop nests"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl LoopSequence {
    /// Creates a sequence. Call [`LoopSequence::validate`] before analysing.
    pub fn new(name: impl Into<String>, arrays: Vec<ArrayDecl>, nests: Vec<LoopNest>) -> Self {
        LoopSequence {
            name: name.into(),
            arrays,
            nests,
        }
    }

    /// Array declaration for an id.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// Number of nests.
    pub fn len(&self) -> usize {
        self.nests.len()
    }

    /// True when the sequence has no nests.
    pub fn is_empty(&self) -> bool {
        self.nests.is_empty()
    }

    /// Total `f64` elements across all declared arrays.
    pub fn total_elements(&self) -> usize {
        self.arrays.iter().map(|a| a.len()).sum()
    }

    /// Ids of the arrays actually referenced by at least one nest.
    pub fn referenced_arrays(&self) -> Vec<ArrayId> {
        let mut seen = vec![false; self.arrays.len()];
        self.for_each_ref(|_, r, _| {
            seen[r.array.index()] = true;
        });
        (0..self.arrays.len())
            .filter(|&i| seen[i])
            .map(|i| ArrayId(i as u32))
            .collect()
    }

    /// Visits every array reference in program order.
    /// The callback receives `(nest index, reference, is_write)`.
    pub fn for_each_ref<'a>(&'a self, mut f: impl FnMut(usize, &'a ArrayRef, bool)) {
        for (n, nest) in self.nests.iter().enumerate() {
            for stmt in &nest.body {
                f(n, &stmt.lhs, true);
                stmt.rhs.for_each_read(&mut |r| f(n, r, false));
            }
        }
    }

    /// Structural validation: every reference names a declared array, has
    /// matching rank and depth, and stays in bounds over its nest's full
    /// iteration space. Returns all problems found. On a valid sequence
    /// the only allocation is one bounds buffer, reused nest to nest.
    pub fn validate(&self) -> Result<(), Vec<ValidationError>> {
        let mut errs = Vec::new();
        if self.nests.is_empty() {
            errs.push(ValidationError::Empty);
        }
        let mut bounds: Vec<(i64, i64)> = Vec::new();
        for (n, nest) in self.nests.iter().enumerate() {
            bounds.clear();
            bounds.extend(nest.bounds.iter().map(|b| (b.lo, b.hi)));
            let mut check = |r: &ArrayRef| {
                let Some(decl) = self.arrays.get(r.array.index()) else {
                    errs.push(ValidationError::UnknownArray {
                        nest: n,
                        array: r.array.0,
                    });
                    return;
                };
                if r.subs.len() != decl.rank() {
                    errs.push(ValidationError::RankMismatch {
                        nest: n,
                        array: decl.name.clone(),
                        expected: decl.rank(),
                        got: r.subs.len(),
                    });
                    return;
                }
                for (d, sub) in r.subs.iter().enumerate() {
                    if sub.depth() != nest.depth() {
                        errs.push(ValidationError::DepthMismatch {
                            nest: n,
                            array: decl.name.clone(),
                            expected: nest.depth(),
                            got: sub.depth(),
                        });
                        continue;
                    }
                    let range = sub.range_over(&bounds);
                    if range.0 < 0 || range.1 >= decl.dims[d] as i64 {
                        errs.push(ValidationError::OutOfBounds {
                            nest: n,
                            array: decl.name.clone(),
                            dim: d,
                            range,
                            extent: decl.dims[d],
                        });
                    }
                }
            };
            for stmt in &nest.body {
                check(&stmt.lhs);
                stmt.rhs.for_each_read(&mut check);
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::expr::Expr;
    use crate::nest::LoopBounds;
    use crate::stmt::Statement;

    fn seq_1d(n: usize, lo: i64, hi: i64, read_off: i64) -> LoopSequence {
        // L1: a[i] = b[i + read_off]
        let a = ArrayDecl::new("a", [n]);
        let b = ArrayDecl::new("b", [n]);
        let body = vec![Statement::new(
            ArrayRef::new(ArrayId(0), vec![AffineExpr::var(1, 0, 0)]),
            Expr::load(ArrayRef::new(
                ArrayId(1),
                vec![AffineExpr::var(1, 0, read_off)],
            )),
        )];
        LoopSequence::new(
            "t",
            vec![a, b],
            vec![LoopNest::new("L1", [LoopBounds::new(lo, hi)], body)],
        )
    }

    #[test]
    fn validate_ok() {
        let s = seq_1d(10, 1, 8, 1);
        assert!(s.validate().is_ok());
        assert_eq!(s.referenced_arrays(), vec![ArrayId(0), ArrayId(1)]);
        assert_eq!(s.total_elements(), 20);
    }

    #[test]
    fn validate_out_of_bounds() {
        let s = seq_1d(10, 1, 9, 1); // b[i+1] reaches 10, extent 10 -> out of bounds
        let errs = s.validate().unwrap_err();
        assert!(matches!(errs[0], ValidationError::OutOfBounds { .. }));
    }

    #[test]
    fn validate_unknown_array() {
        let mut s = seq_1d(10, 1, 8, 0);
        s.arrays.pop(); // b becomes undeclared
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::UnknownArray { .. })));
    }

    #[test]
    fn validate_rank_mismatch() {
        let mut s = seq_1d(10, 1, 8, 0);
        s.arrays[1] = ArrayDecl::new("b", [10, 10]);
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::RankMismatch { .. })));
    }

    #[test]
    fn validate_empty() {
        let s = LoopSequence::new("e", vec![], vec![]);
        assert_eq!(s.validate().unwrap_err(), vec![ValidationError::Empty]);
    }
}
