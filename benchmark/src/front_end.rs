//! The front end, called the way a user compiles one program text:
//! `parse_sequence` -> `Planner::plan` (fresh store) -> `Memory::new`
//! layout -> `ProgramTape::lower`. No loop body executes here.
//!
//! `compile-cold` times rounds of this over the 23 suite texts; the
//! other workloads run a few traced rounds over their own programs so
//! that their per-layer report carries the front-end cost of what they
//! execute.

use crate::span::Recorder;
use crate::spec::Metrics;
use crate::stats::median;
use shift_peel::core::{pipeline::pass, CodegenMethod, Planned, Planner};
use shift_peel::dep::analyze_sequence;
use shift_peel::exec::{Memory, ProgramTape};
use shift_peel::ir::{display::render_sequence, parse_sequence, LoopSequence};
use shift_peel::kernels::all_programs;
use shift_peel::prelude::LayoutStrategy;
use std::time::Instant;

/// One program text and, where an independent source gives them, the
/// shift and peel amounts its outermost fused level must derive to.
#[derive(Clone, Debug)]
pub struct ProgramText {
    pub name: String,
    pub text: String,
    /// `(shifts, peels)` from `tests/golden/table2_shift_peel.txt` or,
    /// for the example files, worked by hand from their stencils.
    pub expected: Option<(Vec<i64>, Vec<i64>)>,
}

impl ProgramText {
    /// The text of `seq`, with no expectation attached.
    pub fn of(name: impl Into<String>, seq: &LoopSequence) -> ProgramText {
        ProgramText {
            name: name.into(),
            text: render_sequence(seq),
            expected: None,
        }
    }
}

/// The suite's scale for `compile-cold` (the scale the golden file was
/// derived at; the amounts do not depend on it).
const SUITE_SCALE: f64 = 0.125;

const GOLDEN: &str = include_str!("../../tests/golden/table2_shift_peel.txt");

/// `[0, 1, 2]` as numbers.
fn parse_list(s: &str) -> Vec<i64> {
    s.trim_matches(|c| c == '[' || c == ']')
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect()
}

/// `(program, sequence index, shifts, peels)` per golden line.
fn golden_rows() -> Vec<(String, usize, Vec<i64>, Vec<i64>)> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (head, rest) = l.split_once(" shifts=").expect("golden line has shifts");
            let (shifts, peels) = rest.split_once(" peels=").expect("golden line has peels");
            let mut words = head.split_whitespace();
            let name = words.next().expect("program name").to_string();
            let idx = words
                .next()
                .and_then(|w| w.strip_prefix("seq"))
                .and_then(|n| n.parse().ok())
                .expect("sequence index");
            (name, idx, parse_list(shifts), parse_list(peels))
        })
        .collect()
}

/// The 23 texts of `compile-cold`: every sequence of the paper's suite
/// rendered to `.loop` text, plus the four example files.
pub fn suite_texts() -> Vec<ProgramText> {
    let golden = golden_rows();
    let mut out = Vec::new();
    for entry in all_programs() {
        let app = (entry.build)(SUITE_SCALE);
        for (i, seq) in app.sequences.iter().enumerate() {
            let expected = golden
                .iter()
                .find(|g| g.0 == entry.meta.name && g.1 == i)
                .map(|g| (g.2.clone(), g.3.clone()));
            out.push(ProgramText {
                expected,
                ..ProgramText::of(format!("{}.seq{i}", entry.meta.name), seq)
            });
        }
    }
    let examples: [(&str, &str, &[i64], &[i64]); 4] = [
        (
            "fig9.loop",
            include_str!("../../examples/programs/fig9.loop"),
            &[0, 1, 2],
            &[0, 1, 2],
        ),
        (
            "jacobi.loop",
            include_str!("../../examples/programs/jacobi.loop"),
            &[0, 1],
            &[0, 1],
        ),
        (
            "skewed.loop",
            include_str!("../../examples/programs/skewed.loop"),
            &[0, 1],
            &[0, 1],
        ),
        (
            "swap.loop",
            include_str!("../../examples/programs/swap.loop"),
            &[0, 1],
            &[0, 1],
        ),
    ];
    for (name, text, shifts, peels) in examples {
        out.push(ProgramText {
            name: name.into(),
            text: text.into(),
            expected: Some((shifts.to_vec(), peels.to_vec())),
        });
    }
    out
}

/// What one compile leaves behind, for checking and counting.
struct Compiled {
    seq: LoopSequence,
    planned: Planned,
    tape_ops: u64,
}

/// Exact counts of one round; they must not change between rounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub nests: u64,
    pub deps: u64,
    pub fused_nests: u64,
    pub shift_sum: u64,
    pub peel_sum: u64,
    pub tape_ops: u64,
}

/// One round's result.
pub struct Round {
    /// Wall time of the compiles alone.
    pub seconds: f64,
    /// Each program's compile time, in `order`.
    pub op_ms: Vec<f64>,
    /// Programs that failed to compile or derived the wrong amounts.
    pub failed: u64,
    pub counts: Counts,
    /// Nanoseconds per pipeline pass, summed over the round.
    pass_nanos: [u64; 4],
}

const PASSES: [&str; 4] = [pass::DEPENDENCE, pass::PLAN, pass::LEGALITY, pass::COST];

fn compile(rec: &mut Recorder, op: u64, text: &str) -> Result<Compiled, String> {
    let seq = rec
        .time("sp-ir.parse", op, || parse_sequence(text))
        .map_err(|e| e.to_string())?;
    let planned = rec
        .time("sp-core.plan", op, || {
            Planner::fused(1)
                .method(CodegenMethod::StripMined)
                .plan(&seq)
        })
        .map_err(|e| e.to_string())?;
    let mem = rec.time("sp-exec.mem_new", op, || {
        Memory::new(&seq, LayoutStrategy::Contiguous)
    });
    let tape = rec.time("sp-exec.lower", op, || {
        ProgramTape::lower(&seq, &mem.layout)
    });
    Ok(Compiled {
        tape_ops: tape.total_ops(),
        seq,
        planned,
    })
}

fn amounts_match(p: &ProgramText, c: &Compiled) -> bool {
    let Some((shifts, peels)) = &p.expected else {
        return true;
    };
    let groups = &c.planned.plan.groups;
    groups.len() == 1
        && groups[0].derivation.dims[0].shifts == *shifts
        && groups[0].derivation.dims[0].peels == *peels
}

/// Compiles every program once, in `order`, under one `parent` span. The
/// clock covers the compiles; checking happens after it stops.
pub fn round(
    programs: &[ProgramText],
    order: &[usize],
    rec: &mut Recorder,
    parent: &'static str,
    op: u64,
) -> Round {
    let open = rec.begin(parent, op);
    let t = Instant::now();
    let mut op_ms = Vec::with_capacity(order.len());
    let compiled: Vec<_> = order
        .iter()
        .map(|&i| {
            let began = Instant::now();
            let c = compile(rec, op, &programs[i].text);
            op_ms.push(began.elapsed().as_secs_f64() * 1e3);
            c
        })
        .collect();
    let seconds = t.elapsed().as_secs_f64();
    rec.end(open);

    let mut out = Round {
        seconds,
        op_ms,
        failed: 0,
        counts: Counts::default(),
        pass_nanos: [0; 4],
    };
    for (&i, c) in order.iter().zip(&compiled) {
        let Ok(c) = c else {
            out.failed += 1;
            continue;
        };
        if !amounts_match(&programs[i], c) {
            out.failed += 1;
        }
        let n = &mut out.counts;
        n.nests += c.seq.len() as u64;
        n.deps += c.planned.deps.inter.len() as u64;
        n.tape_ops += c.tape_ops;
        for g in c.planned.plan.groups.iter().filter(|g| g.len() > 1) {
            n.fused_nests += g.len() as u64;
            n.shift_sum += g.derivation.dims[0].shifts.iter().sum::<i64>() as u64;
            n.peel_sum += g.derivation.dims[0].peels.iter().sum::<i64>() as u64;
        }
        for (slot, name) in out.pass_nanos.iter_mut().zip(PASSES) {
            *slot += c.planned.timings.timing_of(name).map_or(0, |t| t.nanos);
        }
    }
    out
}

/// The layer calls a compile does not make on its own: `render_sequence`
/// (with the `parse(render(seq)) == seq` check) and a stand-alone
/// `analyze_sequence`. Returns the programs that failed the round trip.
pub fn extras(programs: &[ProgramText], rec: &mut Recorder, op: u64) -> u64 {
    let mut failed = 0;
    for p in programs {
        let Ok(seq) = parse_sequence(&p.text) else {
            failed += 1;
            continue;
        };
        let text = rec.time("sp-ir.render", op, || render_sequence(&seq));
        let deps = rec.time("sp-dep.analyze", op, || analyze_sequence(&seq));
        if parse_sequence(&text).ok().as_ref() != Some(&seq) || deps.is_err() {
            failed += 1;
        }
    }
    failed
}

/// Median over ops of a span's per-op total, per program, in µs. The
/// first op is warm-up.
fn per_program_us(rec: &Recorder, name: &str, programs: usize) -> f64 {
    let per_op = rec.sum_by_op_us(name);
    let kept = if per_op.len() > 1 {
        &per_op[1..]
    } else {
        &per_op[..]
    };
    if kept.is_empty() {
        return 0.0;
    }
    median(kept) / programs as f64
}

/// Front-end per-layer metrics from traced `rounds` and their spans.
pub fn layer_metrics(rec: &Recorder, rounds: &[Round], programs: usize, m: &mut Metrics) {
    for (metric, span) in [
        ("sp-ir.parse_us", "sp-ir.parse"),
        ("sp-ir.render_us", "sp-ir.render"),
        ("sp-dep.analyze_us", "sp-dep.analyze"),
        ("sp-core.plan_us", "sp-core.plan"),
        ("sp-exec.mem_new_us", "sp-exec.mem_new"),
        ("sp-exec.lower_us", "sp-exec.lower"),
    ] {
        m.set(metric, per_program_us(rec, span, programs));
    }
    let Some(last) = rounds.last() else { return };
    let kept = if rounds.len() > 1 {
        &rounds[1..]
    } else {
        rounds
    };
    for (i, name) in PASSES.iter().enumerate() {
        let per_round: Vec<f64> = kept.iter().map(|r| r.pass_nanos[i] as f64 / 1e3).collect();
        m.set(
            &format!("sp-core.pass_us.{name}"),
            median(&per_round) / programs as f64,
        );
    }
    let n = &last.counts;
    m.set("sp-ir.nests", n.nests as f64);
    m.set("sp-dep.deps", n.deps as f64);
    m.set("sp-core.fused_nests", n.fused_nests as f64);
    m.set("sp-core.shift_sum", n.shift_sum as f64);
    m.set("sp-core.peel_sum", n.peel_sum as f64);
    m.set("sp-exec.tape_ops", n.tape_ops as f64);
}

/// A few traced rounds over `programs`, for workloads whose main loop is
/// elsewhere. Returns `(attempted, failed)`.
pub fn trace_briefly(programs: &[ProgramText], rec: &mut Recorder, m: &mut Metrics) -> (u64, u64) {
    const ROUNDS: u64 = 12;
    rec.on = true;
    let order: Vec<usize> = (0..programs.len()).collect();
    let mut rounds = Vec::new();
    let mut failed = 0;
    for op in 0..ROUNDS {
        let r = round(programs, &order, rec, "front_end", op);
        failed += r.failed + extras(programs, rec, op);
        if rounds.first().is_some_and(|f: &Round| f.counts != r.counts) {
            failed += 1;
        }
        rounds.push(r);
    }
    layer_metrics(rec, &rounds, programs.len(), m);
    (ROUNDS * programs.len() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_has_23_texts_each_with_an_expectation() {
        let texts = suite_texts();
        assert_eq!(texts.len(), 23);
        assert!(texts.iter().all(|t| t.expected.is_some()));
        let ll18 = &texts[0];
        assert_eq!(ll18.name, "LL18.seq0");
        assert_eq!(
            ll18.expected,
            Some((vec![0, 1, 2], vec![0, 0, 1])),
            "Table 2, LL18"
        );
    }

    #[test]
    fn a_wrong_expectation_fails_the_round() {
        let mut texts = suite_texts();
        let order: Vec<usize> = (0..texts.len()).collect();
        let mut rec = Recorder::new();
        assert_eq!(round(&texts, &order, &mut rec, "op", 0).failed, 0);
        texts[3].expected.as_mut().unwrap().0[1] += 1;
        texts[5].text.push_str("\n  do garbage");
        assert_eq!(round(&texts, &order, &mut rec, "op", 1).failed, 2);
    }
}
