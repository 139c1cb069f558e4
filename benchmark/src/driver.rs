//! The all-workloads mode: every workload, timed pass then traced pass,
//! each in a child process of its own so that `peak_heap_mb` is that
//! workload's alone; `--repeat N` does the lot N times and sets the
//! repeats side by side.

use crate::host;
use crate::spec::{self, Better, END_TO_END, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Where the trace files and `results.json` go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// What the all-workloads mode runs with.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub smoke: bool,
}

/// One child pass, as read back from its `workload metric value unit` lines.
struct ChildPass {
    repeat: usize,
    workload: &'static str,
    traced: bool,
    /// `(metric, value, unit)`, with `attempted` and `failed` among them.
    lines: Vec<(String, f64, String)>,
}

impl ChildPass {
    fn value(&self, metric: &str) -> Option<f64> {
        self.lines.iter().find(|l| l.0 == metric).map(|l| l.1)
    }
}

fn run_child(
    plan: &Plan,
    workload: &'static str,
    traced: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if plan.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and collects what it wrote.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines = stdout
        .lines()
        .filter_map(|l| {
            let mut w = l.split_whitespace();
            match (w.next(), w.next(), w.next(), w.next(), w.next()) {
                (Some(wl), Some(metric), Some(value), Some(unit), None) if wl == workload => {
                    Some((metric.to_string(), value.parse().ok()?, unit.to_string()))
                }
                _ => None,
            }
        })
        .collect();
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            traced as u8, out.status
        ));
    }
    Ok(lines)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs everything. Returns the process exit code.
pub fn run(plan: &Plan) -> i32 {
    let fingerprint = host::fingerprint_json();
    println!("# host {fingerprint}");
    let mut passes: Vec<ChildPass> = Vec::new();
    let mut ok = true;
    for repeat in 0..plan.repeat {
        for workload in WORKLOADS {
            for traced in [false, true] {
                match run_child(plan, workload, traced) {
                    Ok(lines) => {
                        for (metric, value, unit) in &lines {
                            println!("{workload} {metric} {value} {unit}");
                        }
                        passes.push(ChildPass {
                            repeat,
                            workload,
                            traced,
                            lines,
                        });
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    ok &= passes.iter().all(|p| p.value("failed") == Some(0.0));

    if plan.repeat > 1 {
        println!("# repeat agreement: first run against last, per workload and end-to-end metric");
        println!("# workload metric first last worse_by bound verdict");
        for workload in WORKLOADS {
            let timed = |repeat: usize| {
                passes
                    .iter()
                    .find(|p| p.workload == workload && !p.traced && p.repeat == repeat)
            };
            let (Some(a), Some(b)) = (timed(0), timed(plan.repeat - 1)) else {
                continue;
            };
            for (name, _, better) in END_TO_END {
                let (Some(first), Some(last)) = (a.value(name), b.value(name)) else {
                    continue;
                };
                let worse = worse_by(better, first, last);
                let bound = spec::bound(name);
                let verdict = if worse <= bound { "PASS" } else { "UNRESOLVED" };
                println!("{workload} {name} {first} {last} {worse:+.4} {bound} {verdict}");
            }
        }
    }

    let mut json = format!(
        "{{\"seed\":{},\"seconds\":{},\"host\":{fingerprint},\"passes\":[",
        plan.seed, plan.seconds
    );
    for (i, p) in passes.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"repeat\":{},\"workload\":\"{}\",\"pass\":\"{}\",\"metrics\":{{",
            if i > 0 { "," } else { "" },
            p.repeat,
            p.workload,
            if p.traced { "traced" } else { "timed" }
        );
        for (j, (metric, value, unit)) in p.lines.iter().enumerate() {
            let _ = write!(
                json,
                "{}\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
                if j > 0 { "," } else { "" }
            );
        }
        json.push_str("}}");
    }
    json.push_str("]}");
    let path = out_dir().join("results.json");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("cannot write {}: {e}", path.display());
        ok = false;
    } else {
        println!("# wrote {}", path.display());
    }
    if ok {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
