//! Text round-trip: every kernel of the suite must survive
//! render -> parse -> render unchanged, and the parsed program must be
//! structurally identical to the original.

use shift_peel::ir::display::render_sequence;
use shift_peel::ir::parse_sequence;
use shift_peel::kernels::all_programs;

#[test]
fn all_suite_programs_roundtrip() {
    for entry in all_programs() {
        let app = (entry.build)(0.1);
        for seq in &app.sequences {
            let text = render_sequence(seq);
            let parsed =
                parse_sequence(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", seq.name));
            assert_eq!(&parsed, seq, "{} changed through text", seq.name);
            // Idempotence of the printer on the parsed form.
            assert_eq!(render_sequence(&parsed), text, "{}", seq.name);
        }
    }
}

#[test]
fn parsed_program_is_analyzable_and_derivable() {
    let entry = &all_programs()[0]; // LL18
    let app = (entry.build)(0.1);
    let seq = &app.sequences[0];
    let parsed = parse_sequence(&render_sequence(seq)).expect("parse");
    let deps = shift_peel::dep::analyze_sequence(&parsed).expect("analysis");
    let d = shift_peel::core::analysis::derive_levels(&deps, parsed.len(), 1).expect("derive");
    assert_eq!(d.dims[0].shifts, vec![0, 1, 2]);
    assert_eq!(d.dims[0].peels, vec![0, 0, 1]);
}

#[test]
fn parsed_program_executes_identically() {
    use shift_peel::prelude::*;
    let entry = &all_programs()[1]; // calc
    let app = (entry.build)(0.1);
    let seq = &app.sequences[0];
    let parsed = parse_sequence(&render_sequence(seq)).expect("parse");

    let run = |s: &LoopSequence| {
        let ex = Program::new(s, 1).expect("analysis");
        let mut mem = Memory::new(s, LayoutStrategy::Contiguous);
        mem.init_deterministic(s, 17);
        ex.run(&mut mem, &ExecPlan::Serial).expect("run");
        mem.snapshot_all(s)
    };
    assert_eq!(run(seq), run(&parsed));
}

/// The renderer this repository started with: a `String` per subscript,
/// reference, expression node and nest, glued by `format!` and `join`.
/// Kept as the definition of the canonical text — every cache key,
/// artifact key and program digest hashes it — that the single-buffer
/// renderer must reproduce byte for byte.
mod reference {
    use shift_peel::ir::{ArrayRef, Expr, LoopNest, LoopSequence};
    use std::fmt::Write as _;

    pub fn sequence(seq: &LoopSequence) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "! sequence {}", seq.name);
        for (i, a) in seq.arrays.iter().enumerate() {
            let dims: Vec<String> = a.dims.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(out, "! array A{i} {}({})", a.name, dims.join(","));
        }
        for nest in &seq.nests {
            out.push_str(&self::nest(seq, nest));
        }
        out
    }

    pub fn nest(seq: &LoopSequence, nest: &LoopNest) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}:", nest.label);
        for (l, b) in nest.bounds.iter().enumerate() {
            let indent = "  ".repeat(l + 1);
            let _ = writeln!(out, "{indent}do i{l} = {}, {}", b.lo, b.hi);
        }
        let indent = "  ".repeat(nest.depth() + 1);
        for stmt in &nest.body {
            let _ = writeln!(
                out,
                "{indent}{} = {}",
                array_ref(seq, &stmt.lhs),
                expr(seq, &stmt.rhs)
            );
        }
        for l in (0..nest.depth()).rev() {
            let indent = "  ".repeat(l + 1);
            let _ = writeln!(out, "{indent}end do");
        }
        out
    }

    pub fn array_ref(seq: &LoopSequence, r: &ArrayRef) -> String {
        let name = seq
            .arrays
            .get(r.array.index())
            .map(|a| a.name.as_str())
            .unwrap_or("?");
        let subs: Vec<String> = r.subs.iter().map(|s| s.to_string()).collect();
        format!("{name}[{}]", subs.join(","))
    }

    pub fn expr(seq: &LoopSequence, e: &Expr) -> String {
        match e {
            Expr::Const(c) => format!("{c}"),
            Expr::Load(r) => array_ref(seq, r),
            Expr::Unary(op, inner) => format!("{:?}({})", op, expr(seq, inner)),
            Expr::Binary(op, a, b) => {
                format!("({} {} {})", expr(seq, a), op.symbol(), expr(seq, b))
            }
        }
    }
}

#[test]
fn render_is_byte_identical_to_the_nested_format_reference() {
    use shift_peel::ir::display::{render_expr, render_nest, render_ref};
    let mut seqs = Vec::new();
    for scale in [0.1, 0.125] {
        for entry in all_programs() {
            seqs.extend((entry.build)(scale).sequences);
        }
    }
    assert_eq!(seqs.len(), 2 * 19, "the suite's sequences at two scales");
    for name in ["fig9", "jacobi", "skewed", "swap"] {
        let path = format!(
            "{}/examples/programs/{name}.loop",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        seqs.push(parse_sequence(&text).unwrap_or_else(|e| panic!("{path}: {e}")));
    }
    for seq in &seqs {
        assert_eq!(
            render_sequence(seq),
            reference::sequence(seq),
            "{}",
            seq.name
        );
        for nest in &seq.nests {
            assert_eq!(render_nest(seq, nest), reference::nest(seq, nest));
            for stmt in &nest.body {
                assert_eq!(
                    render_ref(seq, &stmt.lhs),
                    reference::array_ref(seq, &stmt.lhs)
                );
                assert_eq!(render_expr(seq, &stmt.rhs), reference::expr(seq, &stmt.rhs));
            }
        }
    }
}
