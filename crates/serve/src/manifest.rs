//! Line-oriented job manifests for `spfc serve --jobs <file>`.
//!
//! One job per line:
//!
//! ```text
//! # comment
//! job <name> kernel=<suite-kernel>|file=<path.loop> [key=value ...]
//! ```
//!
//! Recognized keys (all optional):
//!
//! | key           | meaning                              | default      |
//! |---------------|--------------------------------------|--------------|
//! | `client=`     | fair-share bucket                    | `default`    |
//! | `procs=N`     | 1-D grid `[N]`                       | `procs=2`    |
//! | `grid=AxB`    | multi-dim grid (overrides `procs`)   | —            |
//! | `plan=`       | `fused` / `blocked` / `serial`       | `fused`      |
//! | `backend=`    | `compiled` / `interp` / `simd`       | `compiled`   |
//! | `schedule=`   | `static` / `guided` / `stealing`     | `static`     |
//! | `steps=N`     | timesteps                            | `1`          |
//! | `strip=N`     | strip size for fused plans           | whole block  |
//! | `seed=N`      | init seed                            | `7`          |
//! | `scale=F`     | kernel scale factor (`kernel=` only) | `0.125`      |
//! | `deadline_ms=N` | wall-clock budget                  | none         |
//! | `repeat=N`    | expand into N identical jobs         | `1`          |
//! | `keep_output` | carry the snapshot in the result     | off          |
//!
//! `kernel=` names a program from the paper suite (Table 1, matched
//! case-insensitively); `file=` parses a `.loop` file. Identical lines
//! (and `repeat=`) are the cache's best case: every copy after the first
//! is a hit.

use crate::service::{JobSpec, ServeError};
use shift_peel_core::CodegenMethod;
use sp_exec::{Backend, ExecPlan, Schedule};
use sp_ir::parse_sequence;
use sp_kernels::suite::{all_programs, primary_sequence};
use std::time::Duration;

fn err(line_no: usize, msg: impl Into<String>) -> ServeError {
    ServeError::Manifest(format!("line {line_no}: {}", msg.into()))
}

fn parse_num<T: std::str::FromStr>(line_no: usize, key: &str, v: &str) -> Result<T, ServeError> {
    v.parse::<T>()
        .map_err(|_| err(line_no, format!("bad {key}={v:?}")))
}

/// Parses a manifest into the jobs it describes, in file order (with
/// `repeat=` expansion). `file=` paths are resolved relative to the
/// current directory.
pub fn parse_manifest(text: &str) -> Result<Vec<JobSpec>, ServeError> {
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        if words.next() != Some("job") {
            return Err(err(line_no, format!("expected `job`, got {line:?}")));
        }
        let name = words
            .next()
            .ok_or_else(|| err(line_no, "missing job name"))?;

        let mut scale = 0.125f64;
        let mut client = "default".to_string();
        let mut grid = vec![2usize];
        let mut plan_kind = "fused";
        let mut backend = Backend::Compiled;
        let mut schedule = Schedule::default();
        let mut steps = 1usize;
        let mut strip = i64::MAX;
        let mut seed = 7u64;
        let mut deadline = None;
        let mut repeat = 1usize;
        let mut keep_output = false;
        let mut kernel = None;
        let mut file = None;

        for w in words {
            match w.split_once('=') {
                Some(("kernel", v)) => kernel = Some(v.to_string()),
                Some(("file", v)) => file = Some(v.to_string()),
                Some(("client", v)) => client = v.to_string(),
                Some(("scale", v)) => scale = parse_num(line_no, "scale", v)?,
                Some(("procs", v)) => grid = vec![parse_num::<usize>(line_no, "procs", v)?.max(1)],
                Some(("grid", v)) => {
                    grid = v
                        .split('x')
                        .map(|d| parse_num::<usize>(line_no, "grid", d).map(|n| n.max(1)))
                        .collect::<Result<_, _>>()?;
                }
                Some(("plan", v @ ("fused" | "blocked" | "serial"))) => plan_kind = v,
                Some(("plan", v)) => return Err(err(line_no, format!("unknown plan={v:?}"))),
                Some(("backend", v)) => {
                    backend = Backend::parse(v)
                        .ok_or_else(|| err(line_no, format!("unknown backend={v:?}")))?;
                }
                Some(("schedule", v)) => {
                    schedule = Schedule::parse(v)
                        .ok_or_else(|| err(line_no, format!("unknown schedule={v:?}")))?;
                }
                Some(("steps", v)) => steps = parse_num(line_no, "steps", v)?,
                Some(("strip", v)) => strip = parse_num(line_no, "strip", v)?,
                Some(("seed", v)) => seed = parse_num(line_no, "seed", v)?,
                Some(("deadline_ms", v)) => {
                    deadline = Some(Duration::from_millis(parse_num(line_no, "deadline_ms", v)?));
                }
                Some(("repeat", v)) => repeat = parse_num(line_no, "repeat", v)?,
                None if w == "keep_output" => keep_output = true,
                _ => return Err(err(line_no, format!("unknown option {w:?}"))),
            }
        }

        let seq = match (kernel, file) {
            (Some(k), None) => {
                let entry = all_programs()
                    .into_iter()
                    .find(|e| e.meta.name.eq_ignore_ascii_case(&k))
                    .ok_or_else(|| {
                        err(line_no, format!("unknown kernel {k:?}; try `spfc list`"))
                    })?;
                primary_sequence(&(entry.build)(scale)).clone()
            }
            (None, Some(f)) => {
                let text = std::fs::read_to_string(&f)
                    .map_err(|e| err(line_no, format!("cannot read {f:?}: {e}")))?;
                parse_sequence(&text)
                    .map_err(|e| err(line_no, format!("parse error in {f:?}: {e}")))?
            }
            (Some(_), Some(_)) => {
                return Err(err(line_no, "give kernel= or file=, not both"));
            }
            (None, None) => return Err(err(line_no, "missing kernel= or file=")),
        };

        let plan = match plan_kind {
            "serial" => ExecPlan::Serial,
            "blocked" => ExecPlan::Blocked { grid: grid.clone() },
            _ => ExecPlan::Fused {
                grid: grid.clone(),
                method: CodegenMethod::StripMined,
                strip,
            },
        };
        let mut spec = JobSpec::new(name, seq, plan)
            .client(client)
            .backend(backend)
            .schedule(schedule)
            .steps(steps)
            .seed(seed);
        if let Some(d) = deadline {
            spec = spec.deadline(d);
        }
        if keep_output {
            spec = spec.keep_output();
        }
        for _ in 0..repeat.max(1) {
            jobs.push(spec.clone());
        }
    }
    if jobs.is_empty() {
        return Err(ServeError::Manifest("manifest contains no jobs".into()));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernels_files_and_options() {
        let text = "\
# warm-up pair: the second copy is a guaranteed cache hit
job j1 kernel=jacobi grid=2x2 steps=2 repeat=2
job j2 kernel=LL18 client=alice procs=4 plan=blocked backend=interp seed=3
job j3 kernel=tomcatv plan=serial deadline_ms=5000 keep_output
";
        let jobs = parse_manifest(text).expect("parses");
        assert_eq!(jobs.len(), 4, "repeat=2 expands");
        assert_eq!(jobs[0].name, "j1");
        assert_eq!(jobs[0].plan.grid(), &[2, 2]);
        assert_eq!(jobs[0].levels, 2);
        assert_eq!(jobs[0].steps, 2);
        assert_eq!(
            jobs[0].cache_key(),
            jobs[1].cache_key(),
            "repeated jobs share a key"
        );
        assert_eq!(jobs[2].client, "alice");
        assert_eq!(jobs[2].backend, Backend::Interp);
        assert!(matches!(jobs[2].plan, ExecPlan::Blocked { .. }));
        assert_eq!(jobs[2].seed, 3);
        assert!(matches!(jobs[3].plan, ExecPlan::Serial));
        assert_eq!(jobs[3].deadline, Some(Duration::from_millis(5000)));
        assert!(jobs[3].keep_output);
    }

    #[test]
    fn rejects_bad_lines_with_positions() {
        for (text, needle) in [
            ("run j kernel=jacobi", "expected `job`"),
            ("job j", "missing kernel= or file="),
            ("job j kernel=nosuch", "unknown kernel"),
            ("job j kernel=jacobi plan=banana", "unknown plan"),
            ("job j kernel=jacobi backend=gpu", "unknown backend"),
            ("job j kernel=jacobi bogus=1", "unknown option"),
            ("job j kernel=jacobi file=x.loop", "not both"),
            ("# only comments\n", "no jobs"),
        ] {
            let e = parse_manifest(text).expect_err(text);
            let ServeError::Manifest(m) = &e else {
                panic!("{e:?}")
            };
            assert!(m.contains(needle), "{text:?} -> {m:?}");
        }
    }
}
