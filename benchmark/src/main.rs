//! `sp-benchmark`: one workload and one pass when `--workload` is given
//! (the form the benchmark contract drives), every workload and both
//! passes otherwise.

use sp_benchmark::{driver, heap, run_workload, Pass};
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: sp-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--repeat N]
  with --workload: runs that workload's timed (--trace 0) or traced (--trace 1) pass
                   and prints one JSON result as the last line
  without:         runs all five workloads, both passes each, --repeat times,
                   and writes benchmark/out/results.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1995,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad("a count"))?;
                if args.repeat == 0 {
                    return Err(bad("at least 1"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One pass of one workload: metric lines, the trace file, then the
/// contract's JSON object as the last line.
fn one_pass(workload: &str, pass: &Pass) -> Result<bool, String> {
    let mut outcome = run_workload(workload, pass)?;
    if let Some(trace) = &outcome.trace_json {
        let dir = driver::out_dir();
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    }
    let mut metrics = String::new();
    for (name, unit, value) in outcome.metrics.iter() {
        // A value that is not a number means an op series came back
        // empty: that is a failure, not something to print.
        let value = if value.is_finite() {
            value
        } else {
            outcome.failed += 1;
            0.0
        };
        println!("{workload} {name} {value} {unit}");
        if !metrics.is_empty() {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!("{workload} attempted {} count", outcome.attempted);
    println!("{workload} failed {} count", outcome.failed);
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = &args.workload else {
        let plan = driver::Plan {
            seed: args.seed,
            seconds: args.seconds,
            repeat: args.repeat,
            smoke: args.smoke,
        };
        return ExitCode::from(driver::run(&plan) as u8);
    };
    let pass = Pass {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    match one_pass(workload, &pass) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
