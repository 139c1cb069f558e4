//! The harness's own span recorder: one span around every call into a
//! layer, kept in memory and written out when the pass ends. Spans
//! inside the program under test are not this module's business.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `sp-ir.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The benchmark op this span belongs to; spans of one op share it.
    pub op: u64,
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
#[must_use]
pub struct Open(Option<usize>);

/// An in-memory span log.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Recording can be switched off between ops, which is how the
    /// traced pass prices its own overhead.
    pub on: bool,
}

impl Recorder {
    /// An empty log whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Records one leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Every span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Per op, in op order: the summed duration of its spans called
    /// `name`, in microseconds.
    pub fn sum_by_op_us(&self, name: &str) -> Vec<f64> {
        let mut by_op = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_insert(0.0) += (s.end - s.start) as f64 / 1e3;
        }
        by_op.into_values().collect()
    }

    /// Per span: its duration minus the part of it that child spans
    /// cover, in nanoseconds.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut upto = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(upto), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        upto = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// The log as a Chrome trace-event file (`chrome://tracing`,
    /// Perfetto). Nested spans share one lane; each carries its op id,
    /// its parent's index and its self time.
    pub fn chrome_json(&self, workload: &str) -> String {
        let selfs = self.self_nanos();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op,
                parent,
                *self_ns as f64 / 1e3,
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"workload\":\"{workload}\",\"droppedEvents\":0}}}}"
        );
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new();
        r.spans = spans
            .iter()
            .map(|&(name, start, end, parent)| Span {
                name,
                start,
                end,
                parent,
                op: 0,
            })
            .collect();
        r
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // op 0..100 with children 10..30 and 50..90; the second child has
        // a grandchild that must not be subtracted from the root twice.
        let r = log(&[
            ("op", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 50, 90, Some(0)),
            ("b.inner", 60, 70, Some(2)),
        ]);
        assert_eq!(r.self_nanos(), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let r = log(&[
            ("op", 0, 100, None),
            ("a", 10, 60, Some(0)),
            ("b", 40, 80, Some(0)),
            ("c", 90, 120, Some(0)),
        ]);
        assert_eq!(r.self_nanos()[0], 100 - 70 - 10);
    }

    #[test]
    fn nesting_follows_begin_and_end() {
        let mut r = Recorder::new();
        let op = r.begin("op", 7);
        r.time("leaf", 7, || ());
        r.end(op);
        r.on = false;
        r.time("unrecorded", 8, || ());
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end >= r.spans()[1].end);
        assert_eq!(r.durations_us("leaf").len(), 1);
    }

    #[test]
    fn chrome_export_passes_the_repo_validator() {
        let mut r = Recorder::new();
        let op = r.begin("op", 1);
        r.time("sp-ir.parse", 1, || ());
        r.end(op);
        let summary = shift_peel::trace::validate_chrome_trace(&r.chrome_json("t")).unwrap();
        assert_eq!(summary.span_count, 2);
        assert!(summary.has("sp-ir.parse"));
    }
}
