//! Parser for the textual loop-sequence dialect the pretty-printer
//! emits, so programs round-trip through text:
//!
//! ```text
//! ! sequence demo
//! ! array A0 a(64)
//! ! array A1 b(64)
//! L1:
//!   do i0 = 1, 62
//!     a[i0] = (b[i0+1] + b[i0-1])
//!   end do
//! ```
//!
//! The grammar is small: comment headers declare the sequence name and
//! the arrays; each nest is a label, `do iN = lo, hi` lines, statements
//! `name[affine, ...] = expr`, and matching `end do`s. Expressions use
//! `+ - * /`, infix `min`/`max`, the unary calls `Neg(...)`, `Abs(...)`,
//! `Sqrt(...)`, numeric literals, and array references; subscripts are
//! affine in the loop variables `i0..iN`.
//!
//! Headers are checked against what they declare: `! array A<k>` must
//! carry the id its line order gives it, and the `d`-th `do` of a nest
//! must name `i<d>`.
//!
//! The parser makes one pass over the text. Tokens borrow their line,
//! and one token buffer serves every statement, so the allocations left
//! are the ones the IR itself holds.

use crate::affine::AffineExpr;
use crate::array::{ArrayDecl, ArrayId};
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::nest::{LoopBounds, LoopNest};
use crate::seq::LoopSequence;
use crate::stmt::{ArrayRef, Statement};
use std::fmt;

/// A parse failure with a (1-based) line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Line the failure was detected on.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

// ------------------------------------------------------------------
// Tokenizer (per line)
// ------------------------------------------------------------------

/// One token, borrowed from its line. (The variant names and payloads
/// print as the owned tokens did, so diagnostics that show a token read
/// the same.)
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Num(&'s str),
    Sym(char),
}

/// Splits `line` into `out`, which is cleared first. Every token
/// character is ASCII, so the scan is over bytes; a non-ASCII character
/// is decoded only to be skipped as whitespace or reported.
fn tokenize<'s>(line: &'s str, lineno: usize, out: &mut Vec<Tok<'s>>) -> Result<(), ParseError> {
    out.clear();
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let start = i;
        if c == b' ' {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push(Tok::Ident(&line[start..i]));
        } else if c.is_ascii_digit() || c == b'.' {
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E') {
                i += 1;
                // Exponent sign.
                if matches!(b[i - 1], b'e' | b'E') && matches!(b.get(i), Some(b'+' | b'-')) {
                    i += 1;
                }
            }
            out.push(Tok::Num(&line[start..i]));
        } else if b"[](),=+-*/:".contains(&c) {
            out.push(Tok::Sym(char::from(c)));
            i += 1;
        } else {
            let ch = line[i..].chars().next().expect("i is on a char boundary");
            if !ch.is_whitespace() {
                return err(lineno, format!("unexpected character {ch:?}"));
            }
            i += ch.len_utf8();
        }
    }
    Ok(())
}

// ------------------------------------------------------------------
// Token cursor
// ------------------------------------------------------------------

struct Cur<'t, 's> {
    toks: &'t [Tok<'s>],
    pos: usize,
    line: usize,
}

impl<'s> Cur<'_, 's> {
    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Tok<'s>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn expect_sym(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Sym(s)) if s == c => Ok(()),
            other => err(self.line, format!("expected {c:?}, found {other:?}")),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

// ------------------------------------------------------------------
// Affine subscript expressions
// ------------------------------------------------------------------

/// `k` when `name` is `prefix` followed by the decimal digits of `k`
/// (`i2` for a loop variable, `A3` for an array tag).
fn numbered(name: &str, prefix: char) -> Option<usize> {
    let digits = name.strip_prefix(prefix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The loop level `name` denotes in a nest of `depth` levels.
fn loop_level(name: &str, depth: usize, line: usize) -> Result<usize, ParseError> {
    let Some(level) = numbered(name, 'i') else {
        return err(line, format!("{name} is not a loop variable"));
    };
    if level >= depth {
        return err(line, format!("loop variable i{level} exceeds depth"));
    }
    Ok(level)
}

/// Parses `[c*]iN | c` terms joined by `+`/`-` into an affine function
/// over `depth` loop levels.
fn parse_affine(cur: &mut Cur, depth: usize) -> Result<AffineExpr, ParseError> {
    let mut acc = AffineExpr::constant(depth, 0);
    let mut sign = 1i64;
    let mut first = true;
    loop {
        // Optional leading sign.
        match cur.peek() {
            Some(Tok::Sym('-')) => {
                cur.next();
                sign = -sign;
                continue;
            }
            Some(Tok::Sym('+')) => {
                cur.next();
                continue;
            }
            _ => {}
        }
        match cur.peek() {
            Some(Tok::Num(n)) => {
                let v: i64 = n.parse().map_err(|_| ParseError {
                    line: cur.line,
                    message: format!("bad integer {n}"),
                })?;
                cur.next();
                // Coefficient form `c*iN`?
                if let Some(Tok::Sym('*')) = cur.peek() {
                    cur.next();
                    let Some(Tok::Ident(name)) = cur.next() else {
                        return err(cur.line, "expected loop variable after '*'");
                    };
                    acc.coeffs[loop_level(name, depth, cur.line)?] += sign * v;
                } else {
                    acc.offset += sign * v;
                }
            }
            Some(Tok::Ident(name)) => {
                let level = loop_level(name, depth, cur.line)?;
                cur.next();
                acc.coeffs[level] += sign;
            }
            other => {
                if first {
                    return err(
                        cur.line,
                        format!("expected subscript term, found {other:?}"),
                    );
                }
                break;
            }
        }
        first = false;
        sign = 1;
        // Continue only on +/-.
        match cur.peek() {
            Some(Tok::Sym('+')) | Some(Tok::Sym('-')) => {}
            _ => break,
        }
    }
    Ok(acc)
}

// ------------------------------------------------------------------
// Value expressions
// ------------------------------------------------------------------

struct ExprCtx<'a> {
    arrays: &'a [ArrayDecl],
    depth: usize,
}

fn parse_ref(cur: &mut Cur, ctx: &ExprCtx, name: &str) -> Result<ArrayRef, ParseError> {
    let Some(k) = ctx.arrays.iter().position(|a| a.name == name) else {
        return err(cur.line, format!("undeclared array {name}"));
    };
    cur.expect_sym('[')?;
    let mut subs = Vec::with_capacity(ctx.arrays[k].rank());
    loop {
        subs.push(parse_affine(cur, ctx.depth)?);
        match cur.next() {
            Some(Tok::Sym(',')) => {}
            Some(Tok::Sym(']')) => break,
            other => return err(cur.line, format!("expected ',' or ']', found {other:?}")),
        }
    }
    Ok(ArrayRef::new(ArrayId(k as u32), subs))
}

fn parse_primary(cur: &mut Cur, ctx: &ExprCtx) -> Result<Expr, ParseError> {
    match cur.next() {
        Some(Tok::Num(n)) => {
            let v: f64 = n.parse().map_err(|_| ParseError {
                line: cur.line,
                message: format!("bad number {n}"),
            })?;
            Ok(Expr::Const(v))
        }
        Some(Tok::Sym('(')) => {
            let e = parse_expr(cur, ctx)?;
            cur.expect_sym(')')?;
            Ok(e)
        }
        Some(Tok::Sym('-')) => Ok(-parse_primary(cur, ctx)?),
        Some(Tok::Ident(name)) => {
            let unary = [UnaryOp::Neg, UnaryOp::Abs, UnaryOp::Sqrt]
                .into_iter()
                .find(|op| op.name() == name);
            if let Some(op) = unary {
                cur.expect_sym('(')?;
                let e = parse_expr(cur, ctx)?;
                cur.expect_sym(')')?;
                Ok(Expr::Unary(op, Box::new(e)))
            } else {
                Ok(Expr::Load(parse_ref(cur, ctx, name)?))
            }
        }
        other => err(cur.line, format!("expected expression, found {other:?}")),
    }
}

fn parse_muldiv(cur: &mut Cur, ctx: &ExprCtx) -> Result<Expr, ParseError> {
    let mut e = parse_primary(cur, ctx)?;
    loop {
        let op = match cur.peek() {
            Some(Tok::Sym('*')) => BinOp::Mul,
            Some(Tok::Sym('/')) => BinOp::Div,
            _ => break,
        };
        cur.next();
        let rhs = parse_primary(cur, ctx)?;
        e = Expr::Binary(op, Box::new(e), Box::new(rhs));
    }
    Ok(e)
}

fn parse_addsub(cur: &mut Cur, ctx: &ExprCtx) -> Result<Expr, ParseError> {
    let mut e = parse_muldiv(cur, ctx)?;
    loop {
        let op = match cur.peek() {
            Some(Tok::Sym('+')) => BinOp::Add,
            Some(Tok::Sym('-')) => BinOp::Sub,
            _ => break,
        };
        cur.next();
        let rhs = parse_muldiv(cur, ctx)?;
        e = Expr::Binary(op, Box::new(e), Box::new(rhs));
    }
    Ok(e)
}

fn parse_expr(cur: &mut Cur, ctx: &ExprCtx) -> Result<Expr, ParseError> {
    let mut e = parse_addsub(cur, ctx)?;
    loop {
        let op = match cur.peek() {
            Some(Tok::Ident("min")) => BinOp::Min,
            Some(Tok::Ident("max")) => BinOp::Max,
            _ => break,
        };
        cur.next();
        let rhs = parse_addsub(cur, ctx)?;
        e = Expr::Binary(op, Box::new(e), Box::new(rhs));
    }
    Ok(e)
}

// ------------------------------------------------------------------
// Headers
// ------------------------------------------------------------------

/// `A<k> <name>(<dims>)`, declaring the array with id `k`.
fn parse_array_header(decl: &str, k: usize, lineno: usize) -> Result<ArrayDecl, ParseError> {
    let mut words = decl.split_whitespace();
    let first = words.next();
    let (tag, spec) = match (first, words.last()) {
        (Some(tag), Some(spec)) => (Some(tag), spec),
        (Some(spec), None) => (None, spec),
        (None, _) => return err(lineno, "malformed array header"),
    };
    let Some((aname, dims)) = spec.split_once('(') else {
        return err(lineno, "array header needs (dims)");
    };
    let dims_str = dims.trim_end_matches(')');
    let dims: Result<Vec<usize>, _> = dims_str
        .split(',')
        .map(|d| d.trim().parse::<usize>())
        .collect();
    let Ok(dims) = dims else {
        return err(lineno, format!("bad dimensions {dims_str:?}"));
    };
    if dims.contains(&0) {
        return err(lineno, format!("zero dimension in {dims_str:?}"));
    }
    match tag {
        Some(tag) if numbered(tag, 'A') == Some(k) => Ok(ArrayDecl::new(aname, dims)),
        Some(tag) => err(lineno, format!("array header tag {tag:?}, expected A{k}")),
        None => err(lineno, format!("array header has no tag, expected A{k}")),
    }
}

/// `i<level> = lo, hi` (what follows `do `), opening loop `level`.
fn parse_do_header(rest: &str, level: usize, lineno: usize) -> Result<LoopBounds, ParseError> {
    let Some((var, bounds)) = rest.split_once('=') else {
        return err(lineno, "malformed do header");
    };
    let Some((lo, hi)) = bounds.split_once(',') else {
        return err(lineno, "do header needs 'lo, hi'");
    };
    let (Ok(lo), Ok(hi)) = (lo.trim().parse::<i64>(), hi.trim().parse::<i64>()) else {
        return err(lineno, "bad loop bounds");
    };
    let var = var.trim();
    if numbered(var, 'i') != Some(level) {
        return err(
            lineno,
            format!("do header names {var:?}, expected i{level}"),
        );
    }
    if lo > hi {
        return err(lineno, format!("empty loop bounds {lo}, {hi}"));
    }
    Ok(LoopBounds::new(lo, hi))
}

// ------------------------------------------------------------------
// Whole-sequence parser
// ------------------------------------------------------------------

/// Parses the textual dialect into a [`LoopSequence`] (not validated —
/// call [`LoopSequence::validate`] if the source is untrusted).
///
/// ```
/// let seq = sp_ir::parse_sequence(
///     "! array A0 a(32)\n! array A1 b(32)\n\
///      L1:\n  do i0 = 1, 30\n    a[i0] = (b[i0+1] + b[i0-1])\n  end do\n",
/// ).unwrap();
/// assert_eq!(seq.len(), 1);
/// assert!(seq.validate().is_ok());
/// ```
pub fn parse_sequence(src: &str) -> Result<LoopSequence, ParseError> {
    let mut name = "parsed";
    let mut arrays: Vec<ArrayDecl> = Vec::new();
    let mut nests: Vec<LoopNest> = Vec::new();
    let mut toks: Vec<Tok> = Vec::new();

    // Per-nest accumulation state.
    let mut cur_label: Option<&str> = None;
    let mut cur_bounds: Vec<LoopBounds> = Vec::new();
    let mut cur_body: Vec<Statement> = Vec::new();
    let mut open_loops = 0usize;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        // Headers.
        if let Some(rest) = line.strip_prefix('!') {
            let rest = rest.trim();
            if let Some(n) = rest.strip_prefix("sequence ") {
                name = n.trim();
            } else if let Some(decl) = rest.strip_prefix("array ") {
                arrays.push(parse_array_header(decl, arrays.len(), lineno)?);
            }
            continue;
        }
        // Nest label "Lx:".
        if line.ends_with(':') && !line.contains('=') {
            if open_loops > 0 {
                return err(lineno, "label inside an open loop");
            }
            cur_label = Some(line.trim_end_matches(':'));
            continue;
        }
        // "do iN = lo, hi"
        if let Some(rest) = line.strip_prefix("do ") {
            if !cur_body.is_empty() {
                return err(lineno, "loop header after statements (imperfect nest)");
            }
            cur_bounds.push(parse_do_header(rest, cur_bounds.len(), lineno)?);
            open_loops += 1;
            continue;
        }
        // "end do"
        if line == "end do" {
            if open_loops == 0 {
                return err(lineno, "unmatched end do");
            }
            open_loops -= 1;
            if open_loops == 0 {
                // Close the nest.
                if cur_body.is_empty() {
                    return err(lineno, "nest has no statements");
                }
                let label = match cur_label.take() {
                    Some(l) => l.to_string(),
                    None => format!("L{}", nests.len() + 1),
                };
                nests.push(LoopNest::new(
                    label,
                    std::mem::take(&mut cur_bounds),
                    std::mem::take(&mut cur_body),
                ));
            }
            continue;
        }
        // Statement "name[subs] = expr".
        if open_loops == 0 {
            return err(lineno, format!("statement outside a loop: {line:?}"));
        }
        tokenize(line, lineno, &mut toks)?;
        let mut cur = Cur {
            toks: &toks,
            pos: 0,
            line: lineno,
        };
        let ctx = ExprCtx {
            arrays: &arrays,
            depth: cur_bounds.len(),
        };
        let Some(Tok::Ident(lhs_name)) = cur.next() else {
            return err(lineno, "statement must start with an array name");
        };
        let lhs = parse_ref(&mut cur, &ctx, lhs_name)?;
        cur.expect_sym('=')?;
        let rhs = parse_expr(&mut cur, &ctx)?;
        if !cur.done() {
            return err(
                lineno,
                format!("trailing tokens after expression: {:?}", cur.peek()),
            );
        }
        cur_body.push(Statement::new(lhs, rhs));
    }
    if open_loops > 0 {
        return err(src.lines().count(), "unclosed do loop");
    }
    Ok(LoopSequence::new(name, arrays, nests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SeqBuilder;
    use crate::display::render_sequence;

    #[test]
    fn parse_simple_program() {
        let src = r"
! sequence demo
! array A0 a(64)
! array A1 b(64)
L1:
  do i0 = 1, 62
    a[i0] = (b[i0+1] + b[i0-1])
  end do
";
        let seq = parse_sequence(src).unwrap();
        assert_eq!(seq.name, "demo");
        assert_eq!(seq.arrays.len(), 2);
        assert_eq!(seq.nests.len(), 1);
        assert_eq!(seq.nests[0].bounds[0], LoopBounds::new(1, 62));
        assert!(seq.validate().is_ok());
    }

    #[test]
    fn roundtrip_through_display() {
        let mut b = SeqBuilder::new("rt");
        let a = b.array("a", [32, 32]);
        let c = b.array("c", [32, 32]);
        b.nest("L1", [(1, 30), (1, 30)], |x| {
            let r = (x.ld(a, [0, 1]) + x.ld(a, [0, -1])) * 0.25 - x.ld(a, [1, 0]) / 2.0;
            x.assign(c, [0, 0], r);
        });
        b.nest("L2", [(2, 29), (2, 29)], |x| {
            let r = x.ld(c, [-1, 0]) + 3.5;
            x.assign(a, [0, 0], r);
        });
        let seq = b.finish();
        let text = render_sequence(&seq);
        let parsed = parse_sequence(&text).unwrap();
        assert_eq!(parsed, seq);
    }

    #[test]
    fn roundtrip_kernel_like_bodies() {
        use crate::expr::Expr;
        let mut b = SeqBuilder::new("ops");
        let a = b.array("a", [16]);
        let c = b.array("c", [16]);
        b.nest("L1", [(1, 14)], |x| {
            let r = Expr::Binary(
                BinOp::Max,
                Box::new(Expr::Unary(UnaryOp::Sqrt, Box::new(x.ld(a, [0])))),
                Box::new(Expr::Binary(
                    BinOp::Min,
                    Box::new(x.ld(a, [1])),
                    Box::new(Expr::Unary(UnaryOp::Abs, Box::new(x.ld(a, [-1])))),
                )),
            );
            x.assign(c, [0], r);
        });
        let seq = b.finish();
        let text = render_sequence(&seq);
        let parsed = parse_sequence(&text).unwrap();
        assert_eq!(parsed, seq);
    }

    #[test]
    fn errors_are_located() {
        let src = "! array A0 a(8)\nL1:\n  do i0 = 0, 7\n    a[i0] = q[i0]\n  end do\n";
        let e = parse_sequence(src).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn unclosed_loop_rejected() {
        let src = "! array A0 a(8)\n  do i0 = 0, 7\n    a[i0] = a[i0]\n";
        assert!(parse_sequence(src).is_err());
    }

    #[test]
    fn affine_coefficients_parse() {
        let src = "! array A0 a(8,64)\n! array A1 b(64)\n  do i0 = 0, 3\n    do i1 = 0, 3\n      a[i0,2*i1+1] = b[-i0+i1+4]\n    end do\n  end do\n";
        let seq = parse_sequence(src).unwrap();
        let stmt = &seq.nests[0].body[0];
        assert_eq!(stmt.lhs.subs[1], AffineExpr::new(vec![0, 2], 1));
        let reads = stmt.rhs.reads();
        assert_eq!(reads[0].subs[0], AffineExpr::new(vec![-1, 1], 4));
        assert!(seq.validate().is_ok());
    }
}
