//! Per-run instrumentation: what each worker did and what it cost.
//!
//! Every [`Executor`](crate::executor::Executor) run produces a
//! [`RunReport`]: wall time, per-worker [`ExecCounters`] (including phase
//! wall times and barrier-wait times gathered by the parallel runtimes).
//! Reports serialize to JSON by hand — the workspace builds
//! offline with no serde — in a stable field order suitable for
//! committing under `results/`.

use crate::interp::ExecCounters;
use sp_trace::json::{escape as json_escape, Json};
use sp_trace::{MetricsRegistry, RunTrace, SpanKind};

/// One worker's contribution to a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerReport {
    /// Linearized processor id within the grid.
    pub proc: usize,
    /// Work and timing counters.
    pub counters: ExecCounters,
}

/// Everything measured about one executor run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Name of the executor that produced the run (`scoped`, `pooled`,
    /// `sim`).
    pub executor: String,
    /// Execution backend (`interp` or `compiled`).
    pub backend: String,
    /// Scheduling discipline (`static` or `stealing`).
    pub schedule: String,
    /// Processors the plan executed on.
    pub procs: usize,
    /// Timesteps executed (the plan ran this many times back to back).
    pub steps: usize,
    /// End-to-end wall time of the run as seen by the caller (excludes
    /// lowering, reported separately below).
    pub wall_nanos: u64,
    /// Time spent lowering loop bodies to row programs (0 for the
    /// interpreted backend).
    pub lower_nanos: u64,
    /// Row ops and stores across the lowered tape (0 for interpreted).
    pub tape_ops: u64,
    /// Row ops applying several operators in one pass over a chunk:
    /// two-operator chains and three-operator folds
    /// (`ProgramTape::chain_count`).
    pub tape_chains: u64,
    /// Statements whose last op stores the destination row itself at row
    /// width (all that have an op).
    pub tape_direct_stores: u64,
    /// The tape's widest nest chunk (`ProgramTape::max_row_width`): the
    /// most consecutive inner iterations a row op runs at once under
    /// `Backend::Simd`; 0 for interpreted runs.
    pub max_row_width: u64,
    /// Which compilation of the row loops this host runs (`avx2` or
    /// `baseline`); empty for interpreted runs.
    pub row_isa: String,
    /// True when the run executed a tape served from an artifact cache
    /// (`RunConfig::precompiled`): no lowering happened for this run and
    /// `lower_nanos` is 0.
    pub cached: bool,
    /// Time the job waited in a service queue before its run started.
    /// 0 for direct executor runs — only the serve tier queues.
    pub queue_wait_nanos: u64,
    /// Wall time of the executor run alone when the run came through the
    /// service (its `wall_nanos` then also covers cache lookup, planning,
    /// and lowering). 0 for direct executor runs.
    pub exec_nanos: u64,
    /// Per-worker breakdown, indexed by processor id.
    pub workers: Vec<WorkerReport>,
    /// The recorded event trace, when the run asked for one
    /// ([`RunConfig::trace`](crate::executor::RunConfig::trace)). Not
    /// serialized by [`RunReport::to_json`] — export it separately via
    /// [`RunTrace::chrome_json`].
    pub trace: Option<RunTrace>,
}

impl RunReport {
    /// Sums every worker's counters.
    pub fn merged_counters(&self) -> ExecCounters {
        let mut total = ExecCounters::default();
        for w in &self.workers {
            total.merge(&w.counters);
        }
        total
    }

    /// Total iterations executed across workers (fused + peeled).
    pub fn total_iters(&self) -> u64 {
        self.workers.iter().map(|w| w.counters.total_iters()).sum()
    }

    /// The longest time any worker spent waiting at barriers.
    pub fn max_barrier_wait_nanos(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.counters.barrier_wait_nanos)
            .max()
            .unwrap_or(0)
    }

    /// Block imbalance: the ratio of the busiest worker's iteration count
    /// to the mean (`1.0` = perfectly balanced, `0.0` when no work ran).
    /// Static blocked scheduling bounds this by construction — block
    /// sizes differ by at most one iteration per level — so values far
    /// above 1 indicate peel-induced skew, not decomposition bugs.
    pub fn imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let iters: Vec<u64> = self
            .workers
            .iter()
            .map(|w| w.counters.total_iters())
            .collect();
        let mean = iters.iter().sum::<u64>() as f64 / iters.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        *iters.iter().max().unwrap() as f64 / mean
    }

    /// Time imbalance: the ratio of the busiest worker's compute wall
    /// time (fused + peeled) to the mean. Unlike [`imbalance`]
    /// (iteration counts, which adaptive schedules attribute to chunk
    /// *owners* and therefore hold constant across schedules), this
    /// measures where time was actually spent — the quantity work
    /// stealing drives toward 1.0 on skewed loads. Zero when no timing
    /// was gathered (a report parsed from JSON without it).
    ///
    /// [`imbalance`]: RunReport::imbalance
    pub fn time_imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let busy: Vec<u64> = self
            .workers
            .iter()
            .map(|w| w.counters.busy_nanos())
            .collect();
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        *busy.iter().max().unwrap() as f64 / mean
    }

    /// Passes over a chunk the tape makes per chunk of every nest: its row
    /// ops, and a copy or fill for each statement that has none — the
    /// stores a statement's last op makes itself are no pass of their
    /// own.
    pub fn tape_passes(&self) -> u64 {
        self.tape_ops - self.tape_direct_stores
    }

    /// Total chunks executed by workers that did not own them (zero
    /// under static scheduling).
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.counters.steals).sum()
    }

    /// Total barrier waits that gave up the processor before their
    /// release (the ones that went on to park included).
    pub fn total_yields(&self) -> u64 {
        self.workers.iter().map(|w| w.counters.yields).sum()
    }

    /// Total barrier waits that parked on a condvar.
    pub fn total_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.counters.parks).sum()
    }

    /// Sustained throughput in iterations per second.
    pub fn iters_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.total_iters() as f64 * 1e9 / self.wall_nanos as f64
    }

    /// Aggregates the run into a [`MetricsRegistry`] (counters, derived
    /// gauges, and log2-bucket histograms of barrier-wait and phase
    /// durations), rendered with
    /// [`MetricsRegistry::to_prometheus`]. With a recorded trace the
    /// histograms see one observation per span; without one they fall
    /// back to per-worker totals (coarser, but still comparable).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new(&[
            ("executor", &self.executor),
            ("backend", &self.backend),
            ("schedule", &self.schedule),
        ]);
        let m = self.merged_counters();
        reg.counter(
            "spfc_iters_total",
            "Fused-phase iterations executed",
            m.iters,
        );
        reg.counter(
            "spfc_vec_iters_total",
            "Iterations executed by the row runner",
            m.vec_iters,
        );
        reg.counter(
            "spfc_peeled_iters_total",
            "Peeled-phase iterations executed",
            m.peeled_iters,
        );
        reg.counter(
            "spfc_flops_total",
            "Floating-point operations executed",
            m.flops,
        );
        reg.counter("spfc_loads_total", "Array loads issued", m.loads);
        reg.counter("spfc_stores_total", "Array stores issued", m.stores);
        reg.counter("spfc_strips_total", "Strip-mined tiles executed", m.strips);
        reg.counter(
            "spfc_guards_total",
            "Direct-method guard evaluations",
            m.guards,
        );
        reg.counter(
            "spfc_barriers_total",
            "Barrier crossings per worker, summed",
            m.barriers,
        );
        reg.counter(
            "spfc_steals_total",
            "Chunks executed by workers that did not own them",
            m.steals,
        );
        reg.counter(
            "spfc_barrier_yields_total",
            "Barrier waits that outlasted their spin and yielded the processor",
            m.yields,
        );
        reg.counter(
            "spfc_parks_total",
            "Barrier waits that parked on a condvar",
            m.parks,
        );
        reg.counter("spfc_steps_total", "Timesteps executed", self.steps as u64);
        reg.counter(
            "spfc_wall_nanos_total",
            "End-to-end wall time of the run",
            self.wall_nanos,
        );
        reg.counter(
            "spfc_lower_nanos_total",
            "Time lowering bodies to tapes",
            self.lower_nanos,
        );
        reg.counter(
            "spfc_queue_wait_nanos_total",
            "Time queued in a service before the run started",
            self.queue_wait_nanos,
        );
        reg.counter(
            "spfc_exec_nanos_total",
            "Executor-run wall time alone for service runs",
            self.exec_nanos,
        );
        reg.counter(
            "spfc_tape_ops_total",
            "Row ops and stores across the lowered tape",
            self.tape_ops,
        );
        reg.gauge(
            "spfc_procs",
            "Processors the plan executed on",
            self.procs as f64,
        );
        reg.gauge(
            "spfc_imbalance_ratio",
            "Busiest worker's iterations over the mean",
            self.imbalance(),
        );
        reg.gauge(
            "spfc_time_imbalance_ratio",
            "Busiest worker's compute wall time over the mean",
            self.time_imbalance(),
        );
        reg.gauge(
            "spfc_iters_per_second",
            "Sustained iteration throughput",
            self.iters_per_sec(),
        );
        if let Some(trace) = &self.trace {
            reg.counter(
                "spfc_trace_events_total",
                "Spans recorded across worker rings",
                trace.event_count() as u64,
            );
            reg.counter(
                "spfc_trace_dropped_events_total",
                "Spans lost to per-worker ring overflow (drop-oldest)",
                trace.dropped(),
            );
        }
        {
            let bh = reg.histogram(
                "spfc_barrier_wait_nanos",
                "Time a worker waited at a phase barrier",
            );
            match &self.trace {
                Some(trace) => {
                    for e in trace.events_of(SpanKind::BarrierWait) {
                        bh.observe(e.dur_nanos);
                    }
                }
                None => {
                    for w in &self.workers {
                        bh.observe(w.counters.barrier_wait_nanos);
                    }
                }
            }
        }
        {
            let ph = reg.histogram(
                "spfc_phase_nanos",
                "Duration of one fused, peeled, or serial phase execution",
            );
            match &self.trace {
                Some(trace) => {
                    for w in &trace.workers {
                        for e in &w.events {
                            if matches!(
                                e.kind,
                                SpanKind::Fused | SpanKind::Peeled | SpanKind::Serial
                            ) {
                                ph.observe(e.dur_nanos);
                            }
                        }
                    }
                }
                None => {
                    for w in &self.workers {
                        ph.observe(w.counters.fused_nanos);
                        if w.counters.peeled_nanos > 0 {
                            ph.observe(w.counters.peeled_nanos);
                        }
                    }
                }
            }
        }
        reg
    }

    /// The report as a JSON object (stable field order, no trailing
    /// whitespace), for `results/` artifacts and external tooling.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 256 * self.workers.len());
        s.push_str(&format!(
            "{{\"executor\":\"{}\",\"backend\":\"{}\",\"schedule\":\"{}\",\"procs\":{},\
             \"steps\":{},\"wall_nanos\":{},\"lower_nanos\":{},\"tape_ops\":{},\
             \"tape_chains\":{},\"tape_direct_stores\":{},\"max_row_width\":{},\"row_isa\":\"{}\",\
             \"cached\":{},\"queue_wait_nanos\":{},\"exec_nanos\":{},",
            json_escape(&self.executor),
            json_escape(&self.backend),
            json_escape(&self.schedule),
            self.procs,
            self.steps,
            self.wall_nanos,
            self.lower_nanos,
            self.tape_ops,
            self.tape_chains,
            self.tape_direct_stores,
            self.max_row_width,
            json_escape(&self.row_isa),
            self.cached,
            self.queue_wait_nanos,
            self.exec_nanos
        ));
        s.push_str(&format!(
            "\"iters_per_sec\":{:.1},\"imbalance\":{:.4},\"time_imbalance\":{:.4},\
             \"max_barrier_wait_nanos\":{},",
            self.iters_per_sec(),
            self.imbalance(),
            self.time_imbalance(),
            self.max_barrier_wait_nanos()
        ));
        s.push_str("\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let c = &w.counters;
            s.push_str(&format!(
                "{{\"proc\":{},\"iters\":{},\"vec_iters\":{},\"peeled_iters\":{},\"flops\":{},\
                 \"loads\":{},\"stores\":{},\"strips\":{},\"guards\":{},\"barriers\":{},\
                 \"steals\":{},\"yields\":{},\"parks\":{},\"fused_nanos\":{},\
                 \"peeled_nanos\":{},\"barrier_wait_nanos\":{}",
                w.proc,
                c.iters,
                c.vec_iters,
                c.peeled_iters,
                c.flops,
                c.loads,
                c.stores,
                c.strips,
                c.guards,
                c.barriers,
                c.steals,
                c.yields,
                c.parks,
                c.fused_nanos,
                c.peeled_nanos,
                c.barrier_wait_nanos
            ));
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Parses a report back from the JSON [`RunReport::to_json`] emits.
    ///
    /// Derived fields (`iters_per_sec`, `imbalance`,
    /// `max_barrier_wait_nanos`) are recomputed, not stored, so they are
    /// skipped on input; unknown keys are skipped too, which keeps old
    /// artifacts readable as fields are added.
    pub fn from_json(json: &str) -> Result<RunReport, String> {
        let doc = Json::parse(json).ok_or("not a well-formed JSON document")?;
        let mut r = RunReport::default();
        for (key, v) in object(&doc, "report")? {
            match key.as_str() {
                "executor" => r.executor = string(v, key)?,
                "backend" => r.backend = string(v, key)?,
                "schedule" => r.schedule = string(v, key)?,
                "procs" => r.procs = counter(v, key)? as usize,
                "steps" => r.steps = counter(v, key)? as usize,
                "wall_nanos" => r.wall_nanos = counter(v, key)?,
                "lower_nanos" => r.lower_nanos = counter(v, key)?,
                "tape_ops" => r.tape_ops = counter(v, key)?,
                "tape_chains" => r.tape_chains = counter(v, key)?,
                "tape_direct_stores" => r.tape_direct_stores = counter(v, key)?,
                "max_row_width" => r.max_row_width = counter(v, key)?,
                "row_isa" => r.row_isa = string(v, key)?,
                "cached" => match v {
                    Json::Bool(b) => r.cached = *b,
                    _ => return Err("`cached` is not a boolean".into()),
                },
                "queue_wait_nanos" => r.queue_wait_nanos = counter(v, key)?,
                "exec_nanos" => r.exec_nanos = counter(v, key)?,
                "workers" => {
                    for w in v.as_arr().ok_or("`workers` is not an array")? {
                        r.workers.push(worker_from_json(w)?);
                    }
                }
                _ => {} // derived or unknown
            }
        }
        Ok(r)
    }
}

fn object<'j>(v: &'j Json, what: &str) -> Result<&'j [(String, Json)], String> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => Err(format!("{what} is not a JSON object")),
    }
}

fn string(v: &Json, key: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

/// Reads a counter value, rejecting anything a `u64` counter cannot
/// faithfully hold: negatives, non-finite values (`1e999` parses to
/// infinity), and fractions. A bare `as u64` cast would silently
/// saturate or truncate these.
fn counter(v: &Json, key: &str) -> Result<u64, String> {
    let Json::Num(n) = *v else {
        return Err(format!("`{key}` is not a number"));
    };
    if !n.is_finite() {
        return Err(format!("non-finite counter value for `{key}`"));
    }
    if n < 0.0 {
        return Err(format!("negative counter value {n} for `{key}`"));
    }
    if n.fract() != 0.0 {
        return Err(format!("non-integer counter value {n} for `{key}`"));
    }
    if n > u64::MAX as f64 {
        return Err(format!("counter value {n} for `{key}` out of u64 range"));
    }
    Ok(n as u64)
}

fn worker_from_json(v: &Json) -> Result<WorkerReport, String> {
    let mut w = WorkerReport::default();
    for (key, v) in object(v, "worker")? {
        let c = &mut w.counters;
        match key.as_str() {
            "proc" => w.proc = counter(v, key)? as usize,
            "iters" => c.iters = counter(v, key)?,
            "vec_iters" => c.vec_iters = counter(v, key)?,
            "peeled_iters" => c.peeled_iters = counter(v, key)?,
            "flops" => c.flops = counter(v, key)?,
            "loads" => c.loads = counter(v, key)?,
            "stores" => c.stores = counter(v, key)?,
            "strips" => c.strips = counter(v, key)?,
            "guards" => c.guards = counter(v, key)?,
            "barriers" => c.barriers = counter(v, key)?,
            "steals" => c.steals = counter(v, key)?,
            "yields" => c.yields = counter(v, key)?,
            "parks" => c.parks = counter(v, key)?,
            "fused_nanos" => c.fused_nanos = counter(v, key)?,
            "peeled_nanos" => c.peeled_nanos = counter(v, key)?,
            "barrier_wait_nanos" => c.barrier_wait_nanos = counter(v, key)?,
            _ => {}
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut w0 = WorkerReport {
            proc: 0,
            ..Default::default()
        };
        w0.counters.iters = 90;
        w0.counters.barrier_wait_nanos = 500;
        let mut w1 = WorkerReport {
            proc: 1,
            ..Default::default()
        };
        w1.counters.iters = 100;
        w1.counters.peeled_iters = 10;
        RunReport {
            executor: "pooled".into(),
            backend: "interp".into(),
            schedule: "static".into(),
            procs: 2,
            steps: 3,
            wall_nanos: 1_000_000,
            lower_nanos: 0,
            tape_ops: 0,
            tape_chains: 0,
            tape_direct_stores: 0,
            max_row_width: 0,
            row_isa: String::new(),
            cached: false,
            queue_wait_nanos: 0,
            exec_nanos: 0,
            workers: vec![w0, w1],
            trace: None,
        }
    }

    #[test]
    fn stats_summarize_workers() {
        let r = report();
        assert_eq!(r.total_iters(), 200);
        assert_eq!(r.merged_counters().iters, 190);
        assert_eq!(r.max_barrier_wait_nanos(), 500);
        assert!((r.imbalance() - 1.1).abs() < 1e-9);
        // 200 iters over 1ms of wall time.
        assert!((r.iters_per_sec() - 200_000.0).abs() < 1.0);
    }

    #[test]
    fn json_is_wellformed_and_complete() {
        let r = report();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches("\"proc\":").count(), 2);
        for key in [
            "\"executor\":\"pooled\"",
            "\"backend\":\"interp\"",
            "\"schedule\":\"static\"",
            "\"steals\":0",
            "\"yields\":0",
            "\"parks\":0",
            "\"procs\":2",
            "\"steps\":3",
            "\"wall_nanos\":1000000",
            "\"lower_nanos\":0",
            "\"tape_ops\":0",
            "\"cached\":false",
            "\"barrier_wait_nanos\":500",
            "\"imbalance\":1.1000",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Balanced braces and brackets (no nesting surprises).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    /// `ExecCounters`'s `PartialEq` deliberately ignores timing fields, so
    /// round-trip equality must check them by hand.
    fn assert_reports_equal(a: &RunReport, b: &RunReport) {
        assert_eq!(a, b);
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.counters.fused_nanos, wb.counters.fused_nanos);
            assert_eq!(wa.counters.peeled_nanos, wb.counters.peeled_nanos);
            assert_eq!(
                wa.counters.barrier_wait_nanos,
                wb.counters.barrier_wait_nanos
            );
            assert_eq!(wa.counters.steals, wb.counters.steals);
            assert_eq!(wa.counters.yields, wb.counters.yields);
            assert_eq!(wa.counters.parks, wb.counters.parks);
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let parsed = RunReport::from_json(&r.to_json()).unwrap();
        assert_reports_equal(&r, &parsed);
    }

    #[test]
    fn json_round_trips_with_tape_fields() {
        let mut r = report();
        r.backend = "compiled".into();
        r.lower_nanos = 1234;
        r.tape_ops = 42;
        r.tape_chains = 9;
        r.tape_direct_stores = 6;
        r.max_row_width = 682;
        r.row_isa = "avx2".into();
        r.workers[0].counters.fused_nanos = 999;
        r.workers[1].counters.flops = 77;
        let parsed = RunReport::from_json(&r.to_json()).unwrap();
        assert_reports_equal(&r, &parsed);
    }

    #[test]
    fn json_round_trips_cached_flag() {
        let mut r = report();
        r.cached = true;
        let j = r.to_json();
        assert!(j.contains("\"cached\":true"), "{j}");
        let parsed = RunReport::from_json(&j).unwrap();
        assert!(parsed.cached);
        // A malformed literal is rejected, not silently skipped.
        assert!(RunReport::from_json(&j.replace("\"cached\":true", "\"cached\":tru")).is_err());
    }

    #[test]
    fn queue_wait_and_exec_split_round_trips() {
        let mut r = report();
        r.queue_wait_nanos = 4_200;
        r.exec_nanos = 900_000;
        let j = r.to_json();
        assert!(j.contains("\"queue_wait_nanos\":4200"), "{j}");
        assert!(j.contains("\"exec_nanos\":900000"), "{j}");
        let parsed = RunReport::from_json(&j).unwrap();
        assert_eq!(parsed.queue_wait_nanos, 4_200);
        assert_eq!(parsed.exec_nanos, 900_000);
        // Invalid values are rejected like every other counter.
        let bad = j.replace("\"queue_wait_nanos\":4200", "\"queue_wait_nanos\":-1");
        assert!(RunReport::from_json(&bad).unwrap_err().contains("negative"));
        let bad = j.replace("\"exec_nanos\":900000", "\"exec_nanos\":1e999");
        assert!(RunReport::from_json(&bad)
            .unwrap_err()
            .contains("non-finite"));
        let bad = j.replace("\"exec_nanos\":900000", "\"exec_nanos\":0.5");
        assert!(RunReport::from_json(&bad)
            .unwrap_err()
            .contains("non-integer"));
        // Old artifacts without the split still parse (fields default 0).
        let old = report()
            .to_json()
            .replace("\"queue_wait_nanos\":0,\"exec_nanos\":0,", "");
        let parsed = RunReport::from_json(&old).unwrap();
        assert_eq!((parsed.queue_wait_nanos, parsed.exec_nanos), (0, 0));
        // Metrics carry the split.
        let reg = r.metrics();
        assert_eq!(
            reg.counter_value("spfc_queue_wait_nanos_total"),
            Some(4_200)
        );
        assert_eq!(reg.counter_value("spfc_exec_nanos_total"), Some(900_000));
    }

    #[test]
    fn schedule_and_steal_fields_round_trip() {
        let mut r = report();
        r.schedule = "stealing".into();
        r.workers[0].counters.steals = 3;
        r.workers[1].counters.yields = 5;
        r.workers[1].counters.parks = 2;
        r.workers[0].counters.fused_nanos = 100;
        r.workers[1].counters.fused_nanos = 300;
        let j = r.to_json();
        assert!(j.contains("\"schedule\":\"stealing\""), "{j}");
        // Busy times 100 and 300: max 300 over mean 200.
        assert!(j.contains("\"time_imbalance\":1.5000"), "{j}");
        let parsed = RunReport::from_json(&j).unwrap();
        assert_reports_equal(&r, &parsed);
        assert_eq!(parsed.schedule, "stealing");
        assert_eq!(parsed.total_steals(), 3);
        assert_eq!(parsed.total_yields(), 5);
        assert_eq!(parsed.total_parks(), 2);
        assert_eq!(
            r.metrics().counter_value("spfc_barrier_yields_total"),
            Some(5)
        );
        assert!((parsed.time_imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_round_trips_escaped_strings_and_empty_workers() {
        // Quotes, backslashes, newlines, a tab, a raw control character,
        // and non-ASCII text all survive `to_json -> from_json`.
        for name in [
            "we\"ird\\x\n",
            "tab\there\u{1}",
            "caf\u{e9}-\u{4e16}\u{754c}",
        ] {
            let r = RunReport {
                executor: name.into(),
                ..Default::default()
            };
            let json = r.to_json();
            assert!(!json.chars().any(|c| c.is_control()), "{json:?}");
            let parsed = RunReport::from_json(&json).unwrap();
            assert_eq!(parsed.executor, name);
            assert!(parsed.workers.is_empty());
        }
        // Escapes this writer never emits are still read.
        let parsed = RunReport::from_json("{\"executor\":\"a\\/b\\u00e9\"}").unwrap();
        assert_eq!(parsed.executor, "a/b\u{e9}");
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(RunReport::from_json("").is_err());
        assert!(RunReport::from_json("{\"executor\":}").is_err());
        let r = report();
        let j = r.to_json();
        assert!(RunReport::from_json(&j[..j.len() - 1]).is_err());
        assert!(RunReport::from_json(&format!("{j}x")).is_err());
    }

    #[test]
    fn from_json_rejects_negative_counters() {
        let j = report()
            .to_json()
            .replace("\"wall_nanos\":1000000", "\"wall_nanos\":-5");
        let err = RunReport::from_json(&j).unwrap_err();
        assert!(err.contains("negative"), "{err}");
        // Negative values inside a worker object are rejected too.
        let j = report().to_json().replace("\"iters\":90", "\"iters\":-90");
        let err = RunReport::from_json(&j).unwrap_err();
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn from_json_rejects_non_finite_counters() {
        // `1e999` overflows f64 to infinity; a bare cast would turn it
        // into u64::MAX. `NaN` is not valid JSON and already fails the
        // number scanner.
        let j = report()
            .to_json()
            .replace("\"wall_nanos\":1000000", "\"wall_nanos\":1e999");
        let err = RunReport::from_json(&j).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        let j = report()
            .to_json()
            .replace("\"wall_nanos\":1000000", "\"wall_nanos\":NaN");
        assert!(RunReport::from_json(&j).is_err());
    }

    #[test]
    fn from_json_rejects_fractional_counters() {
        let j = report().to_json().replace("\"steps\":3", "\"steps\":3.5");
        let err = RunReport::from_json(&j).unwrap_err();
        assert!(err.contains("non-integer"), "{err}");
        // Derived float fields (imbalance, iters_per_sec) are skipped,
        // not parsed as counters — the round-trip already proves it.
        assert!(RunReport::from_json(&report().to_json()).is_ok());
    }

    #[test]
    fn metrics_cover_counters_and_histograms() {
        let r = report();
        let reg = r.metrics();
        assert_eq!(reg.counter_value("spfc_iters_total"), Some(190));
        assert_eq!(reg.counter_value("spfc_peeled_iters_total"), Some(10));
        assert_eq!(reg.counter_value("spfc_steps_total"), Some(3));
        let bh = reg.histogram_value("spfc_barrier_wait_nanos").unwrap();
        // Untraced fallback: one observation per worker.
        assert_eq!(bh.count(), 2);
        assert_eq!(bh.sum(), 500);
        let text = reg.to_prometheus();
        assert!(text.contains("executor=\"pooled\""), "{text}");
        assert!(
            text.contains("# TYPE spfc_barrier_wait_nanos histogram"),
            "{text}"
        );
        assert!(text.contains("spfc_imbalance_ratio"), "{text}");
    }
}
