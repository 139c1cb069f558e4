//! Right-hand-side expression language.
//!
//! Statement bodies are arithmetic over array loads and constants — the
//! shape of the data-parallel scientific codes the paper targets (stencils,
//! relaxations, flux updates). The expression tree is interpreted by
//! `sp-exec`; `sp-dep` only cares about the [`crate::ArrayRef`]s it
//! contains, which [`Expr::collect_reads`] exposes.

use crate::stmt::ArrayRef;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
}

impl BinOp {
    /// Applies the operator to two `f64` operands.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Printable symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
}

impl UnaryOp {
    /// The call name the text form spells (`Neg(...)`).
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "Neg",
            UnaryOp::Abs => "Abs",
            UnaryOp::Sqrt => "Sqrt",
        }
    }

    /// Applies the operator.
    #[inline]
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnaryOp::Neg => -a,
            UnaryOp::Abs => a.abs(),
            UnaryOp::Sqrt => a.sqrt(),
        }
    }
}

/// An expression tree evaluated per loop iteration.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A floating-point literal.
    Const(f64),
    /// A load from an array element.
    Load(ArrayRef),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Load expression from an array reference.
    pub fn load(r: ArrayRef) -> Expr {
        Expr::Load(r)
    }

    /// Calls `f` on every array read in the expression, in evaluation
    /// order, without collecting them anywhere.
    pub fn for_each_read<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef)) {
        match self {
            Expr::Const(_) => {}
            Expr::Load(r) => f(r),
            Expr::Unary(_, e) => e.for_each_read(f),
            Expr::Binary(_, a, b) => {
                a.for_each_read(f);
                b.for_each_read(f);
            }
        }
    }

    /// Collects every array read in the expression, in evaluation order,
    /// into `out`.
    pub fn collect_reads<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        self.for_each_read(&mut |r| out.push(r));
    }

    /// All array reads as a fresh vector.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut v = Vec::new();
        self.collect_reads(&mut v);
        v
    }

    /// Number of arithmetic operations in the tree (a simple work measure
    /// used by the machine cost model).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Load(_) => 0,
            Expr::Unary(_, e) => 1 + e.op_count(),
            Expr::Binary(_, a, b) => 1 + a.op_count() + b.op_count(),
        }
    }

    /// Rewrites every subscript in every load for the direct fusion method:
    /// substitute loop index `level := level - shift` (Figure 11(a)).
    pub fn substitute_shift(&self, level: usize, shift: i64) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Load(r) => Expr::Load(r.substitute_shift(level, shift)),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.substitute_shift(level, shift))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute_shift(level, shift)),
                Box::new(b.substitute_shift(level, shift)),
            ),
        }
    }
}

impl Expr {
    /// The expression with the iteration vector translated by `delta`
    /// (every load's subscripts rewritten for `i_l := i_l + delta[l]`).
    pub fn translated(&self, delta: &[i64]) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Load(r) => Expr::Load(r.translated(delta)),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.translated(delta))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.translated(delta)),
                Box::new(b.translated(delta)),
            ),
        }
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::Const(v)
    }
}

impl From<ArrayRef> for Expr {
    fn from(r: ArrayRef) -> Expr {
        Expr::Load(r)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(rhs))
            }
        }
        impl $trait<f64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(Expr::Const(rhs)))
            }
        }
        impl $trait<Expr> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(Expr::Const(self)), Box::new(rhs))
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnaryOp::Neg, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::array::ArrayId;

    fn r(id: u32, off: i64) -> ArrayRef {
        ArrayRef {
            array: ArrayId(id),
            subs: vec![AffineExpr::var(1, 0, off)],
        }
    }

    #[test]
    fn operator_sugar_builds_trees() {
        let e = Expr::load(r(0, 1)) + Expr::load(r(0, -1)) * 2.0;
        assert_eq!(e.op_count(), 2);
        assert_eq!(e.reads().len(), 2);
    }

    #[test]
    fn collect_reads_in_order() {
        let e = (Expr::load(r(0, 0)) - Expr::load(r(1, 2))) / Expr::load(r(2, -1));
        let reads = e.reads();
        let arrays: Vec<u32> = reads.iter().map(|r| r.array.0).collect();
        assert_eq!(arrays, vec![0, 1, 2]);
    }

    #[test]
    fn binop_apply() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Div.apply(9.0, 3.0), 3.0);
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnaryOp::Abs.apply(-4.0), 4.0);
    }

    #[test]
    fn substitute_shift_rewrites_loads() {
        let e = Expr::load(r(0, 1));
        let s = e.substitute_shift(0, 2);
        match s {
            Expr::Load(ref rr) => assert_eq!(rr.subs[0], AffineExpr::var(1, 0, -1)),
            _ => panic!("expected load"),
        }
    }
}
