//! Every workload at the smallest size that still takes every path,
//! through all of its correctness checks, in both passes; and the binary
//! as the benchmark contract drives it.

use sp_benchmark::spec::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use sp_benchmark::{run_workload, serve_mixed, Outcome, Pass};
use std::process::Command;

// As in the binary: without it `peak_heap_mb` reads zero.
#[global_allocator]
static HEAP: sp_benchmark::heap::Counting = sp_benchmark::heap::Counting;

fn smoke(trace: bool) -> Pass {
    Pass {
        seed: 1995,
        seconds: 0.3,
        trace,
        smoke: true,
    }
}

fn all_finite(m: &Metrics) -> bool {
    m.iter().all(|(_, _, v)| v.is_finite())
}

fn check(workload: &str, outcome: &Outcome, names: usize) {
    assert_eq!(outcome.failed, 0, "{workload}: an op failed its check");
    assert!(outcome.attempted >= 1, "{workload}");
    assert_eq!(outcome.metrics.iter().count(), names, "{workload}");
    assert!(
        all_finite(&outcome.metrics),
        "{workload}: a metric is not a number"
    );
}

#[test]
fn every_workload_passes_its_checks_in_both_passes() {
    for workload in WORKLOADS {
        let timed = run_workload(workload, &smoke(false)).unwrap();
        check(workload, &timed, END_TO_END.len());
        // End-to-end metrics are never zero.
        assert!(
            timed.metrics.iter().all(|(_, _, v)| v > 0.0),
            "{workload}: {:?}",
            timed.metrics.iter().collect::<Vec<_>>()
        );
        assert!(timed.trace_json.is_none());

        let traced = run_workload(workload, &smoke(true)).unwrap();
        check(workload, &traced, PER_LAYER.len());
        let json = traced.trace_json.expect("a traced pass leaves a trace");
        let summary = shift_peel::trace::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(summary.span_count > 0 && summary.has("op"), "{workload}");
        assert_eq!(
            traced.metrics.get("bench.spans"),
            Some(summary.span_count as f64),
            "{workload}"
        );
        // The front end is priced for every workload's own programs.
        assert!(
            traced.metrics.get("sp-exec.tape_ops").unwrap() > 0.0,
            "{workload}"
        );
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let counts = |seed: u64| {
        let mut pass = smoke(true);
        pass.seed = seed;
        let m = run_workload("compile-cold", &pass).unwrap().metrics;
        [
            "sp-exec.tape_ops",
            "sp-dep.deps",
            "sp-core.shift_sum",
            "sp-ir.nests",
        ]
        .map(|name| m.get(name).unwrap())
    };
    assert_eq!(counts(7), counts(7));
    // The seed orders the texts; it does not change what is compiled.
    assert_eq!(counts(7), counts(8));
}

#[test]
fn a_corrupted_reference_digest_fails_the_pass() {
    let mut cfg = serve_mixed::Config::new(true);
    let honest = serve_mixed::run(&cfg, &smoke(false)).unwrap();
    assert_eq!(honest.failed, 0);
    // Spec 0 is the most popular: every deck carries it.
    cfg.corrupt_reference = Some(0);
    let lied_to = serve_mixed::run(&cfg, &smoke(false));
    assert!(lied_to.map_or(true, |o| o.failed > 0));
}

fn binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sp-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn the_binary_prints_the_contracts_last_line_and_exits_zero() {
    for (trace, names) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let out = binary(&[
            "--workload",
            "steps-small",
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = stdout.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{last}"
        );
        assert!(last.contains(",\"failed\":0,\"metrics\":{"), "{last}");
        for (name, unit, _) in names {
            assert!(
                last.contains(&format!("\"{name}\":{{\"value\":"))
                    && stdout.contains(&format!("steps-small {name} ")),
                "{name} ({unit}) is missing"
            );
        }
    }
}

#[test]
fn the_binary_refuses_what_it_does_not_know() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate", "1"],
    ] {
        let out = binary(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
