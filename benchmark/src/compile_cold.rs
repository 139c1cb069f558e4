//! `compile-cold`: rounds of the front end over the 23 suite texts, every
//! compile against a fresh store. No loop body executes, so `sp-ir`,
//! `sp-dep`, `sp-core` and `sp-exec::lower` do all the work.

use crate::decks::{spin_ms, DeckLog, SPIN_MS_PER_ITER};
use crate::front_end::{self, suite_texts, ProgramText, Round};
use crate::rng::Rng;
use crate::span::Recorder;
use crate::spec::{Metrics, PER_LAYER};
use crate::{end_to_end, instrument_metrics, median_setup, Outcome, Pass};
use std::time::Instant;

/// Length of the reference that follows every timed round: single-threaded
/// like the round, and about as long.
const REFERENCE_ITERS: u64 = 1_000_000;

/// In the traced pass one round in this many records spans; the rest
/// are the untraced control the recording cost is read against.
const TRACE_EVERY: u64 = 8;

/// Runs one pass.
pub fn run(pass: &Pass) -> Outcome {
    // The seed fixes the order the texts are compiled in.
    let order = Rng::new(pass.seed, 0).permutation(suite_texts().len());
    let mut rec = Recorder::new();
    rec.on = false;

    let mut attempted = 0;
    let mut failed = 0;
    let (programs, setup_s): (Vec<ProgramText>, f64) = median_setup(pass, || {
        let programs = suite_texts();
        let warm = front_end::round(&programs, &order, &mut rec, "op", 0);
        attempted += programs.len() as u64;
        failed += warm.failed;
        programs
    });

    // The timed pass logs decks; the traced pass keeps its traced rounds
    // whole (for the pass timings) and the control rounds' wall times.
    let mut decks = DeckLog::new(REFERENCE_ITERS as f64 * SPIN_MS_PER_ITER);
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut control_ms: Vec<f64> = Vec::new();
    let mut first_counts = None;
    let deadline = pass.deadline();
    let mut op = 0;
    while op < 2 || Instant::now() < deadline {
        rec.on = pass.trace && op % TRACE_EVERY == 0;
        let r = front_end::round(&programs, &order, &mut rec, "op", op);
        attempted += programs.len() as u64;
        failed += r.failed;
        if rec.on {
            failed += front_end::extras(&programs, &mut rec, op);
        }
        // Exact counts must repeat round after round.
        if *first_counts.get_or_insert_with(|| r.counts.clone()) != r.counts {
            failed += 1;
        }
        if rec.on {
            traced_rounds.push(r);
        } else if pass.trace {
            control_ms.push(r.seconds * 1e3);
        } else {
            decks.push(&r.op_ms, r.seconds, spin_ms(REFERENCE_ITERS));
        }
        op += 1;
    }

    if !pass.trace {
        return Outcome {
            attempted,
            failed,
            metrics: end_to_end(setup_s, &decks, 99, programs.len() as f64),
            trace_json: None,
        };
    }
    let traced_ms: Vec<f64> = traced_rounds.iter().map(|r| r.seconds * 1e3).collect();
    let mut m = Metrics::zeroed(&PER_LAYER);
    front_end::layer_metrics(&rec, &traced_rounds, programs.len(), &mut m);
    instrument_metrics(&rec, &traced_ms, &control_ms, op, pass.smoke, &mut m);
    Outcome {
        attempted,
        failed,
        metrics: m,
        trace_json: Some(rec.chrome_json("compile-cold")),
    }
}
