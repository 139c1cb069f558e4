//! Golden-file pin of the Prometheus text rendering.
//!
//! Scrapers parse this format mechanically — HELP/TYPE header placement,
//! label ordering, histogram bucket/sum/count naming, and the `+Inf`
//! bucket are all wire contract, not cosmetics. The registry is built
//! from fixed values so the rendering is fully deterministic; any diff
//! of the golden file *is* the review artifact. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p sp-trace --test prometheus_golden`.

use sp_trace::MetricsRegistry;

const GOLDEN_PATH: &str = "tests/golden/prometheus.txt";

fn render() -> String {
    let mut reg = MetricsRegistry::new(&[("component", "sp-serve")]);
    reg.counter("spfc_serve_jobs_submitted_total", "Jobs admitted", 5);
    reg.labeled_counter(
        "spfc_serve_jobs_total",
        "Jobs by terminal outcome",
        ("outcome", "ok"),
        3,
    );
    reg.labeled_counter(
        "spfc_serve_jobs_total",
        "Jobs by terminal outcome",
        ("outcome", "deadline"),
        1,
    );
    reg.labeled_counter(
        "spfc_serve_jobs_total",
        "Jobs by terminal outcome",
        ("outcome", "rejected"),
        1,
    );
    reg.gauge("spfc_serve_queue_depth", "Jobs pending", 2.0);
    reg.gauge(
        "spfc_serve_results_retained",
        "Finished jobs whose results are still held",
        4.0,
    );
    reg.gauge(
        "spfc_serve_pool_busy_ratio",
        "Execute-stage time over the scheduler's wall time since start",
        0.25,
    );
    let h = reg.histogram("spfc_run_nanos", "Run wall time");
    for v in [100, 900, 1_500, 70_000] {
        h.observe(v);
    }
    for (stage, samples) in [
        ("queue_wait", &[800u64, 1_200][..]),
        ("execute", &[50_000, 65_000][..]),
    ] {
        let h = reg.labeled_histogram(
            "spfc_serve_stage_nanos",
            "Per-stage job latency in nanoseconds",
            ("stage", stage),
        );
        for &v in samples {
            h.observe(v);
        }
    }
    reg.to_prometheus()
}

#[test]
fn prometheus_rendering_is_pinned() {
    let got = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("mkdir golden");
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "Prometheus rendering changed; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p sp-trace --test prometheus_golden"
    );
}
