//! Pretty-printing of the IR in a Fortran-flavoured `do`-loop syntax.

use crate::expr::Expr;
use crate::nest::LoopNest;
use crate::seq::LoopSequence;
use crate::stmt::ArrayRef;
use std::fmt::{Display, Write as _};

/// Renders a whole sequence.
///
/// This text is the program's canonical form — cache keys, artifact
/// keys and the wire's program digest all hash it — so every renderer
/// below appends to one buffer through `fmt::Write` rather than building
/// a `String` per subscript, reference, expression node and nest.
/// (Writing to a `String` cannot fail; the `fmt::Result`s are dropped.)
pub fn render_sequence(seq: &LoopSequence) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "! sequence {}", seq.name);
    for (i, a) in seq.arrays.iter().enumerate() {
        let _ = write!(out, "! array A{i} {}(", a.name);
        write_list(&mut out, &a.dims);
        out.push_str(")\n");
    }
    for nest in &seq.nests {
        write_nest(&mut out, seq, nest);
    }
    out
}

/// Renders one nest.
pub fn render_nest(seq: &LoopSequence, nest: &LoopNest) -> String {
    let mut out = String::new();
    write_nest(&mut out, seq, nest);
    out
}

/// Renders an array reference.
pub fn render_ref(seq: &LoopSequence, r: &ArrayRef) -> String {
    let mut out = String::new();
    write_ref(&mut out, seq, r);
    out
}

/// Renders an expression.
pub fn render_expr(seq: &LoopSequence, e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, seq, e);
    out
}

/// `items`, comma-separated.
fn write_list(out: &mut String, items: &[impl Display]) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
}

/// Two spaces per loop level.
fn write_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_nest(out: &mut String, seq: &LoopSequence, nest: &LoopNest) {
    let _ = writeln!(out, "{}:", nest.label);
    for (l, b) in nest.bounds.iter().enumerate() {
        write_indent(out, l + 1);
        let _ = writeln!(out, "do i{l} = {}, {}", b.lo, b.hi);
    }
    for stmt in &nest.body {
        write_indent(out, nest.depth() + 1);
        write_ref(out, seq, &stmt.lhs);
        out.push_str(" = ");
        write_expr(out, seq, &stmt.rhs);
        out.push('\n');
    }
    for l in (0..nest.depth()).rev() {
        write_indent(out, l + 1);
        out.push_str("end do\n");
    }
}

fn write_ref(out: &mut String, seq: &LoopSequence, r: &ArrayRef) {
    let name = seq.arrays.get(r.array.index()).map_or("?", |a| &a.name);
    out.push_str(name);
    out.push('[');
    write_list(out, &r.subs);
    out.push(']');
}

fn write_expr(out: &mut String, seq: &LoopSequence, e: &Expr) {
    match e {
        Expr::Const(c) => {
            let _ = write!(out, "{c}");
        }
        Expr::Load(r) => write_ref(out, seq, r),
        Expr::Unary(op, inner) => {
            let _ = write!(out, "{op:?}(");
            write_expr(out, seq, inner);
            out.push(')');
        }
        Expr::Binary(op, a, b) => {
            out.push('(');
            write_expr(out, seq, a);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(out, seq, b);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::SeqBuilder;

    #[test]
    fn render_contains_loop_structure() {
        let mut b = SeqBuilder::new("demo");
        let a = b.array("a", [8]);
        let bb = b.array("b", [8]);
        b.nest("L1", [(1, 6)], |x| {
            let rhs = x.ld(bb, [1]) + x.ld(bb, [-1]);
            x.assign(a, [0], rhs);
        });
        let s = b.finish();
        let text = super::render_sequence(&s);
        assert!(text.contains("do i0 = 1, 6"));
        assert!(text.contains("a[i0] = (b[i0+1] + b[i0-1])"));
        assert!(text.contains("end do"));
    }
}
