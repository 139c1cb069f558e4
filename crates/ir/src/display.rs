//! Pretty-printing of the IR in a Fortran-flavoured `do`-loop syntax.

use crate::expr::Expr;
use crate::nest::LoopNest;
use crate::seq::LoopSequence;
use crate::stmt::ArrayRef;
use std::fmt::{self, Write};

/// Renders a whole sequence.
///
/// This text is the program's canonical form — cache keys, artifact
/// keys and the wire's program digest all hash it — so every renderer
/// below appends to one sink through `fmt::Write` rather than building
/// a `String` per subscript, reference, expression node and nest. A key
/// passes a hasher as the sink ([`write_sequence`]) and the text is
/// never assembled at all. Integers are written by `write_int` rather
/// than through `write!`'s formatting machinery; only float literals
/// take that path.
pub fn render_sequence(seq: &LoopSequence) -> String {
    let mut out = String::new();
    write_sequence(&mut out, seq).expect("a String accepts every write");
    out
}

/// Writes [`render_sequence`]'s text to `out`, piece by piece: the same
/// bytes in the same order, whatever the sink.
pub fn write_sequence<W: Write>(out: &mut W, seq: &LoopSequence) -> fmt::Result {
    out.write_str("! sequence ")?;
    out.write_str(&seq.name)?;
    out.write_char('\n')?;
    for (i, a) in seq.arrays.iter().enumerate() {
        out.write_str("! array A")?;
        write_int(out, i as i64)?;
        out.write_char(' ')?;
        out.write_str(&a.name)?;
        out.write_char('(')?;
        for (k, &d) in a.dims.iter().enumerate() {
            if k > 0 {
                out.write_char(',')?;
            }
            write_int(out, d as i64)?;
        }
        out.write_str(")\n")?;
    }
    for nest in &seq.nests {
        write_nest(out, seq, nest)?;
    }
    Ok(())
}

/// Renders one nest.
pub fn render_nest(seq: &LoopSequence, nest: &LoopNest) -> String {
    let mut out = String::new();
    write_nest(&mut out, seq, nest).expect("a String accepts every write");
    out
}

/// Renders an array reference.
pub fn render_ref(seq: &LoopSequence, r: &ArrayRef) -> String {
    let mut out = String::new();
    write_ref(&mut out, seq, r).expect("a String accepts every write");
    out
}

/// Renders an expression.
pub fn render_expr(seq: &LoopSequence, e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, seq, e).expect("a String accepts every write");
    out
}

/// `v` in decimal, as `{v}` would print it, without the formatting
/// machinery.
pub(crate) fn write_int<W: Write>(out: &mut W, v: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut u = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Two spaces per loop level.
fn write_indent<W: Write>(out: &mut W, levels: usize) -> fmt::Result {
    for _ in 0..levels {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_nest<W: Write>(out: &mut W, seq: &LoopSequence, nest: &LoopNest) -> fmt::Result {
    out.write_str(&nest.label)?;
    out.write_str(":\n")?;
    for (l, b) in nest.bounds.iter().enumerate() {
        write_indent(out, l + 1)?;
        out.write_str("do i")?;
        write_int(out, l as i64)?;
        out.write_str(" = ")?;
        write_int(out, b.lo)?;
        out.write_str(", ")?;
        write_int(out, b.hi)?;
        out.write_char('\n')?;
    }
    for stmt in &nest.body {
        write_indent(out, nest.depth() + 1)?;
        write_ref(out, seq, &stmt.lhs)?;
        out.write_str(" = ")?;
        write_expr(out, seq, &stmt.rhs)?;
        out.write_char('\n')?;
    }
    for l in (0..nest.depth()).rev() {
        write_indent(out, l + 1)?;
        out.write_str("end do\n")?;
    }
    Ok(())
}

fn write_ref<W: Write>(out: &mut W, seq: &LoopSequence, r: &ArrayRef) -> fmt::Result {
    let name = seq.arrays.get(r.array.index()).map_or("?", |a| &a.name);
    out.write_str(name)?;
    out.write_char('[')?;
    for (k, s) in r.subs.iter().enumerate() {
        if k > 0 {
            out.write_char(',')?;
        }
        s.write_to(out)?;
    }
    out.write_char(']')
}

fn write_expr<W: Write>(out: &mut W, seq: &LoopSequence, e: &Expr) -> fmt::Result {
    match e {
        Expr::Const(c) => write!(out, "{c}"),
        Expr::Load(r) => write_ref(out, seq, r),
        Expr::Unary(op, inner) => {
            out.write_str(op.name())?;
            out.write_char('(')?;
            write_expr(out, seq, inner)?;
            out.write_char(')')
        }
        Expr::Binary(op, a, b) => {
            out.write_char('(')?;
            write_expr(out, seq, a)?;
            out.write_char(' ')?;
            out.write_str(op.symbol())?;
            out.write_char(' ')?;
            write_expr(out, seq, b)?;
            out.write_char(')')
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
