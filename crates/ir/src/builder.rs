//! Fluent construction of loop sequences.
//!
//! The builder keeps kernel definitions close to their source notation.
//! A 1-D three-loop chain (the worked example of the paper's Figure 9):
//!
//! ```
//! use sp_ir::SeqBuilder;
//!
//! let n = 64;
//! let mut b = SeqBuilder::new("fig9");
//! let a = b.array("a", [n]);
//! let bb = b.array("b", [n]);
//! let c = b.array("c", [n]);
//! let d = b.array("d", [n]);
//! let lo = 1;
//! let hi = n as i64 - 2;
//! b.nest("L1", [(lo, hi)], |x| {
//!     let rhs = x.ld(bb, [0]);
//!     x.assign(a, [0], rhs);
//! });
//! b.nest("L2", [(lo, hi)], |x| {
//!     let rhs = x.ld(a, [1]) + x.ld(a, [-1]);
//!     x.assign(c, [0], rhs);
//! });
//! b.nest("L3", [(lo, hi)], |x| {
//!     let rhs = x.ld(c, [1]) + x.ld(c, [-1]);
//!     x.assign(d, [0], rhs);
//! });
//! let seq = b.finish();
//! assert_eq!(seq.len(), 3);
//! ```

use crate::affine::AffineExpr;
use crate::array::{ArrayDecl, ArrayId};
use crate::expr::Expr;
use crate::nest::{LoopBounds, LoopNest};
use crate::seq::LoopSequence;
use crate::stmt::{ArrayRef, Statement};

/// Builder for a [`LoopSequence`].
pub struct SeqBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    nests: Vec<LoopNest>,
}

impl SeqBuilder {
    /// Starts a new sequence.
    pub fn new(name: impl Into<String>) -> Self {
        SeqBuilder {
            name: name.into(),
            arrays: Vec::new(),
            nests: Vec::new(),
        }
    }

    /// Declares an array and returns its id.
    pub fn array(&mut self, name: impl Into<String>, dims: impl Into<Vec<usize>>) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl::new(name, dims));
        id
    }

    /// Appends a loop nest. `bounds` are inclusive per level, outermost
    /// first; the closure receives a [`NestCtx`] to emit statements.
    pub fn nest(
        &mut self,
        label: impl Into<String>,
        bounds: impl Into<Vec<(i64, i64)>>,
        f: impl FnOnce(&mut NestCtx),
    ) -> &mut Self {
        let bounds: Vec<(i64, i64)> = bounds.into();
        let mut ctx = NestCtx {
            depth: bounds.len(),
            body: Vec::new(),
        };
        f(&mut ctx);
        self.nests.push(LoopNest::new(
            label,
            bounds
                .into_iter()
                .map(|(lo, hi)| LoopBounds::new(lo, hi))
                .collect::<Vec<_>>(),
            ctx.body,
        ));
        self
    }

    /// Finishes and validates the sequence.
    ///
    /// # Panics
    /// Panics with a descriptive message on validation failure; kernels are
    /// static program definitions, so a malformed one is a programming
    /// error.
    pub fn finish(self) -> LoopSequence {
        let seq = LoopSequence::new(self.name, self.arrays, self.nests);
        if let Err(errs) = seq.validate() {
            let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
            panic!(
                "invalid loop sequence `{}`:\n  {}",
                seq.name,
                msgs.join("\n  ")
            );
        }
        seq
    }
}

/// Statement-emission context for one nest.
pub struct NestCtx {
    depth: usize,
    body: Vec<Statement>,
}

impl NestCtx {
    /// Nest depth (number of loop levels).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// An *aligned* reference: array dimension `d` is subscripted
    /// `i_d + offs[d]`. This is the dominant pattern in stencil codes.
    pub fn at(&self, array: ArrayId, offs: impl AsRef<[i64]>) -> ArrayRef {
        let offs = offs.as_ref();
        ArrayRef::new(
            array,
            offs.iter()
                .enumerate()
                .map(|(d, &o)| AffineExpr::var(self.depth, d, o))
                .collect(),
        )
    }

    /// Load expression for an aligned reference.
    pub fn ld(&self, array: ArrayId, offs: impl AsRef<[i64]>) -> Expr {
        Expr::Load(self.at(array, offs))
    }

    /// Load through an explicit reference (for non-aligned subscripts).
    pub fn ld_ref(&self, r: ArrayRef) -> Expr {
        Expr::Load(r)
    }

    /// Emits `array[i + offs] = rhs`.
    pub fn assign(&mut self, array: ArrayId, offs: impl AsRef<[i64]>, rhs: impl Into<Expr>) {
        let lhs = self.at(array, offs);
        self.body.push(Statement::new(lhs, rhs));
    }

    /// Emits an assignment through an explicit left-hand reference.
    pub fn assign_ref(&mut self, lhs: ArrayRef, rhs: impl Into<Expr>) {
        self.body.push(Statement::new(lhs, rhs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_sequence() {
        let mut b = SeqBuilder::new("jacobi");
        let a = b.array("a", [16, 16]);
        let bb = b.array("b", [16, 16]);
        b.nest("L1", [(1, 14), (1, 14)], |x| {
            let rhs =
                (x.ld(a, [0, -1]) + x.ld(a, [0, 1]) + x.ld(a, [-1, 0]) + x.ld(a, [1, 0])) / 4.0;
            x.assign(bb, [0, 0], rhs);
        });
        b.nest("L2", [(1, 14), (1, 14)], |x| {
            let rhs = x.ld(bb, [0, 0]);
            x.assign(a, [0, 0], rhs);
        });
        let seq = b.finish();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.nests[0].ops_per_iter(), 4);
        assert!(seq.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid loop sequence")]
    fn builder_panics_on_out_of_bounds() {
        let mut b = SeqBuilder::new("bad");
        let a = b.array("a", [8]);
        b.nest("L1", [(0, 7)], |x| {
            let rhs = x.ld(a, [1]); // reaches 8, extent 8
            x.assign(a, [0], rhs);
        });
        b.finish();
    }
}
