//! Per-worker event tracing across the executors.
//!
//! The acceptance bar (ISSUE 3): a traced run's span set must cover
//! dispatch, per-phase execution, peel regions, and barrier waits for
//! every worker and timestep; the Chrome trace export must pass the
//! schema check; tracing must not perturb results; and the derived
//! barrier-wait/imbalance metrics must respond to a synthetically
//! skewed load.

use shift_peel::exec::ScopedExecutor;
use shift_peel::kernels::jacobi;
use shift_peel::prelude::*;
use shift_peel::trace::{validate_chrome_trace, CONTROLLER_LANE};

fn run_with(
    ex: &mut dyn Executor,
    seq: &LoopSequence,
    levels: usize,
    cfg: &RunConfig,
) -> (Vec<Vec<f64>>, RunReport) {
    let prog = Program::new(seq, levels).expect("analysis");
    let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
    mem.init_deterministic(seq, 11);
    let report = ex.run(&prog, &mut mem, cfg).expect("run");
    (mem.snapshot_all(seq), report)
}

/// A sequence with one parallel nest and one serial recurrence: under a
/// blocked plan the recurrence runs entirely on processor 0 while the
/// rest wait at the barrier, which skews both iteration counts and
/// barrier waits by construction.
fn skewed(n: usize) -> LoopSequence {
    let mut b = SeqBuilder::new("skewed");
    let a = b.array("a", [n, n]);
    let c = b.array("c", [n, n]);
    let (lo, hi) = (1, n as i64 - 2);
    b.nest("L1", [(lo, hi), (lo, hi)], |x| {
        let r = x.ld(a, [0, 1]) + x.ld(a, [0, -1]);
        x.assign(c, [0, 0], r);
    });
    // Loop-carried dependence on `a` at the outer level: serial.
    b.nest("L2", [(lo, hi), (lo, hi)], |x| {
        let r = x.ld(a, [-1, 0]) + x.ld(c, [0, 0]);
        x.assign(a, [0, 0], r);
    });
    b.finish()
}

#[test]
fn traced_pooled_run_covers_all_spans_workers_and_steps() {
    let seq = jacobi::sequence(48);
    let steps = 3usize;
    let cfg = RunConfig::fused([2, 2])
        .strip(8)
        .steps(steps)
        .backend(Backend::Compiled)
        .traced();
    let (out, report) = run_with(&mut PooledExecutor::new(4), &seq, 2, &cfg);

    // Tracing must not perturb results.
    let untraced = RunConfig::fused([2, 2])
        .strip(8)
        .steps(steps)
        .backend(Backend::Compiled);
    let (want, plain) = run_with(&mut PooledExecutor::new(4), &seq, 2, &untraced);
    assert_eq!(out, want, "traced and untraced runs agree bit-for-bit");
    assert!(plain.trace.is_none(), "untraced run carries no trace");

    let trace = report.trace.as_ref().expect("traced run carries a trace");
    // 4 worker lanes plus the controller lane.
    assert_eq!(trace.workers.len(), 5);
    let controller = trace
        .workers
        .iter()
        .find(|w| w.proc == CONTROLLER_LANE)
        .unwrap();
    assert_eq!(
        controller
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::Lower)
            .count(),
        1,
        "compiled run records exactly one lowering span"
    );
    for w in trace.workers.iter().filter(|w| w.proc != CONTROLLER_LANE) {
        assert!(
            w.events.iter().any(|e| e.kind == SpanKind::Dispatch),
            "worker {} has a dispatch span",
            w.proc
        );
        for step in 0..steps as u32 {
            assert!(
                w.events
                    .iter()
                    .any(|e| e.kind == SpanKind::Fused && e.step == step),
                "worker {} fused span at step {step}",
                w.proc
            );
            assert!(
                w.events
                    .iter()
                    .any(|e| e.kind == SpanKind::BarrierWait && e.step == step),
                "worker {} barrier wait at step {step}",
                w.proc
            );
            // Jacobi's fused plan peels, so every step has a peeled phase.
            assert!(
                w.events
                    .iter()
                    .any(|e| e.kind == SpanKind::Peeled && e.step == step),
                "worker {} peeled span at step {step}",
                w.proc
            );
        }
        assert_eq!(w.dropped, 0, "default capacity holds a short run");
    }

    // The Chrome export passes the checked-in schema check and exposes
    // the same coverage.
    let json = trace.chrome_json();
    let summary = validate_chrome_trace(&json).expect("valid chrome trace");
    for name in ["dispatch", "fused", "peeled", "barrier_wait", "lower"] {
        assert!(
            summary.has(name),
            "span {name} in export: {:?}",
            summary.names
        );
    }
    assert_eq!(summary.lanes.len(), 5);
    assert_eq!(summary.steps, vec![0, 1, 2]);
}

#[test]
fn traced_scoped_dynamic_and_sim_runs_record_spans() {
    let seq = jacobi::sequence(32);
    // Scoped: fused plan on a one-run pool, one lane per processor.
    let cfg = RunConfig::fused([2, 2]).strip(8).steps(2).traced();
    let (_, report) = run_with(&mut ScopedExecutor, &seq, 2, &cfg);
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(trace.workers.len(), 5);
    for w in trace.workers.iter().filter(|w| w.proc != CONTROLLER_LANE) {
        for step in 0..2 {
            assert!(w
                .events
                .iter()
                .any(|e| e.kind == SpanKind::Fused && e.step == step));
            assert!(w
                .events
                .iter()
                .any(|e| e.kind == SpanKind::BarrierWait && e.step == step));
        }
    }

    // Self-scheduled: the unfused blocked plan under the stealing
    // schedule over two-iteration chunks (what the dynamic executor was).
    let cfg = RunConfig::blocked([4])
        .schedule(Schedule::Stealing)
        .chunk(2)
        .steps(2)
        .traced();
    let (_, report) = run_with(&mut PooledExecutor::new(4), &seq, 1, &cfg);
    let trace = report.trace.as_ref().unwrap();
    let fused = trace.events_of(SpanKind::Fused).count();
    let waits = trace.events_of(SpanKind::BarrierWait).count();
    assert!(
        fused > 0 && waits > 0,
        "self-scheduled run records spans ({fused} fused, {waits} waits)"
    );
    assert_eq!(trace.events_of(SpanKind::Dispatch).count(), 4);

    // Sim: serialized phases still record per-processor phase spans.
    let cfg = RunConfig::fused([2, 2]).strip(8).steps(2).traced();
    let (_, report) = run_with(&mut SimExecutor, &seq, 2, &cfg);
    let trace = report.trace.as_ref().unwrap();
    assert!(trace.events_of(SpanKind::Fused).count() >= 4 * 2);
    assert!(trace.events_of(SpanKind::Peeled).count() > 0);
    validate_chrome_trace(&trace.chrome_json()).expect("sim trace exports cleanly");
}

/// Satellite: a skewed load must surface in the derived metrics — the
/// serial nest runs on processor 0 while everyone else waits, so the
/// busiest worker executes far more than the mean and someone's barrier
/// wait is nonzero.
#[test]
fn skewed_load_shows_barrier_wait_and_imbalance() {
    let seq = skewed(96);
    let cfg = RunConfig::blocked([4]).steps(4);
    let (_, report) = run_with(&mut PooledExecutor::new(4), &seq, 1, &cfg);
    assert!(
        report.max_barrier_wait_nanos() > 0,
        "workers waited while proc 0 ran the serial nest"
    );
    let imb = report.imbalance();
    assert!(imb > 1.0, "serial nest skews iteration counts, got {imb}");
    // Sanity: proc 0 really is the busiest worker.
    let iters: Vec<u64> = report
        .workers
        .iter()
        .map(|w| w.counters.total_iters())
        .collect();
    assert_eq!(iters.iter().max(), Some(&iters[0]));
}

#[test]
fn metrics_registry_reflects_a_traced_run() {
    let seq = jacobi::sequence(32);
    let cfg = RunConfig::fused([2, 2]).strip(8).steps(2).traced();
    let (_, report) = run_with(&mut PooledExecutor::new(4), &seq, 2, &cfg);
    let reg = report.metrics();
    assert_eq!(reg.counter_value("spfc_steps_total"), Some(2));
    assert_eq!(
        reg.counter_value("spfc_iters_total"),
        Some(report.merged_counters().iters)
    );
    let trace = report.trace.as_ref().unwrap();
    let bh = reg.histogram_value("spfc_barrier_wait_nanos").unwrap();
    assert_eq!(
        bh.count() as usize,
        trace.events_of(SpanKind::BarrierWait).count(),
        "one histogram observation per recorded barrier wait"
    );
    let text = reg.to_prometheus();
    assert!(text.contains("executor=\"pooled\""), "{text}");
    assert!(text.contains("spfc_barrier_wait_nanos_bucket"), "{text}");
    assert!(text.contains("spfc_phase_nanos_sum"), "{text}");
    assert!(text.contains("spfc_trace_events_total"), "{text}");
}

/// Ring overflow keeps the newest window and reports the loss.
#[test]
fn tiny_ring_capacity_drops_oldest_events() {
    let seq = jacobi::sequence(32);
    let cfg = RunConfig::fused([2, 2])
        .strip(8)
        .steps(20)
        .trace(shift_peel::trace::TraceConfig::with_capacity(8));
    let (_, report) = run_with(&mut PooledExecutor::new(4), &seq, 2, &cfg);
    let trace = report.trace.as_ref().unwrap();
    assert!(trace.dropped() > 0, "20 steps overflow an 8-event ring");
    for w in trace.workers.iter().filter(|w| w.proc != CONTROLLER_LANE) {
        assert_eq!(w.events.len(), 8);
        // The surviving window is the newest: it ends with the dispatch
        // span recorded at job end.
        assert_eq!(w.events.last().unwrap().kind, SpanKind::Dispatch);
        assert!(w.dropped > 0, "worker {} reports its own loss", w.proc);
    }
    // The loss is visible everywhere downstream: the Prometheus
    // rendering, the Chrome export's metadata, and the schema check.
    let reg = report.metrics();
    assert_eq!(
        reg.counter_value("spfc_trace_dropped_events_total"),
        Some(trace.dropped())
    );
    assert!(
        reg.to_prometheus()
            .contains("spfc_trace_dropped_events_total"),
        "dropped-events counter rendered"
    );
    let json = trace.chrome_json();
    assert!(
        json.contains(&format!("\"droppedEvents\":{}", trace.dropped())),
        "{json}"
    );
    let summary = validate_chrome_trace(&json).expect("overflowed trace still validates");
    assert_eq!(summary.dropped_events, trace.dropped());
}
