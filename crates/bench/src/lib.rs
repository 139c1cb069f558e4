//! # sp-bench — experiment harnesses for the paper's tables and figures
//!
//! One binary per table/figure (see `src/bin/`): each prints the rows or
//! series the paper reports, regenerated on the simulated machines;
//! `runtime` times the executors and backends on the host and writes
//! `results/BENCH_runtime.json`, which [`regression`] gates.
//!
//! Common conventions: every binary accepts `--scale <f>` to shrink the
//! paper's array sizes (default 1.0 = paper size) and `--quick` as a
//! shorthand for `--scale 0.25` with thinner sweeps.

pub mod regression;

pub use regression::{check_dirs, CheckReport, Json, MetricCheck, DEFAULT_BAND};

use std::fmt::Write as _;

/// Command-line options shared by the figure binaries.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Array-size scale factor versus the paper (1.0 = paper size).
    pub scale: f64,
    /// Thin the processor/padding sweeps.
    pub quick: bool,
}

impl Opts {
    /// Parses `--scale <f>` and `--quick` from `std::env::args`.
    pub fn from_args() -> Opts {
        let mut opts = Opts {
            scale: 1.0,
            quick: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    opts.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a number");
                }
                "--quick" => {
                    opts.quick = true;
                    opts.scale = opts.scale.min(0.25);
                }
                other => {
                    eprintln!("unknown option {other}; supported: --scale <f>, --quick");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// Scales an extent, keeping a sane minimum.
    pub fn size(&self, paper: usize) -> usize {
        ((paper as f64 * self.scale) as usize).max(32)
    }

    /// Thins a processor sweep when `--quick`.
    pub fn procs(&self, full: &[usize]) -> Vec<usize> {
        if self.quick {
            let step = 2.max(full.len() / 4);
            let mut v: Vec<usize> = full.iter().copied().step_by(step).collect();
            let last = *full.last().unwrap();
            if v.last() != Some(&last) {
                v.push(last);
            }
            v
        } else {
            full.to_vec()
        }
    }
}

/// A fixed-width text table with a title, printed like the paper's
/// tables.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let line = "-".repeat(total);
        let _ = writeln!(out, "{line}");
        let emit = |cells: &[String]| {
            let mut s = String::new();
            for (w, c) in widths.iter().zip(cells) {
                let _ = write!(s, "{c:>w$}  ");
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", emit(&self.header));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", emit(row));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn opts_size_scales() {
        let o = Opts {
            scale: 0.5,
            quick: false,
        };
        assert_eq!(o.size(512), 256);
        assert_eq!(o.size(16), 32); // floor
    }

    #[test]
    fn opts_procs_thinning_keeps_last() {
        let o = Opts {
            scale: 1.0,
            quick: true,
        };
        let v = o.procs(&[1, 2, 4, 8, 16, 24, 32, 40, 48, 56]);
        assert_eq!(*v.last().unwrap(), 56);
        assert!(v.len() < 10);
    }
}
