//! End-to-end tests of serve-tier observability (ISSUE 8).
//!
//! The acceptance bar: a multi-job traced serve session must export ONE
//! valid Chrome trace carrying every job's eight lifecycle stages plus
//! the worker lanes that ran it, with flow events resolving from each
//! job lane to real worker lanes; the metrics registry must expose
//! per-stage latency histograms and per-outcome job counters; the
//! scrape endpoint must serve exactly that text over HTTP; and the
//! stage stats must persist across processes via the cache directory.

use shift_peel_core::CodegenMethod;
use sp_exec::{Backend, ExecPlan};
use sp_kernels::{jacobi, ll18};
use sp_serve::{
    disk_stats, ArtifactCacheConfig, JobSpec, MetricsServer, ServeError, Service, ServiceConfig,
};
use sp_trace::{validate_chrome_trace, JobStage};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn fused(grid: &[usize]) -> ExecPlan {
    ExecPlan::Fused {
        grid: grid.to_vec(),
        method: CodegenMethod::StripMined,
        strip: 8,
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sp-serve-obs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Tentpole acceptance: several jobs through a traced service export as
/// one Chrome trace — all stage spans present per job, flow starts on
/// the jobs process resolving to finishes on worker lanes that carry
/// real execution spans.
#[test]
fn traced_session_exports_one_chrome_trace_with_flows() {
    let service = Service::new(ServiceConfig::default().workers(2).traced());
    let mut ids = Vec::new();
    for (i, seq) in [
        jacobi::sequence(32),
        ll18::sequence(48),
        jacobi::sequence(32),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = JobSpec::new(format!("job-{i}"), seq, fused(&[2]))
            .backend(Backend::Compiled)
            .steps(2)
            .client(if i % 2 == 0 { "alice" } else { "bob" });
        ids.push(service.submit(spec).unwrap());
    }
    for id in &ids {
        service.wait(*id).unwrap();
    }
    let session = service.session_trace().expect("tracing service");
    assert_eq!(session.job_count(), 3);
    // Every job carries every stage (respond_wire is wire-only) and a
    // run trace.
    for job in &session.jobs {
        for stage in JobStage::all() {
            if stage == JobStage::RespondWire {
                continue;
            }
            assert!(
                job.stage_dur(stage).is_some(),
                "job {} missing {}",
                job.job_id,
                stage.name()
            );
        }
        assert!(job.run_trace.is_some(), "traced run attaches worker lanes");
    }
    let lanes = session.worker_lanes();
    assert!(!lanes.is_empty(), "some worker lane recorded spans");

    let json = session.chrome_json();
    let summary = validate_chrome_trace(&json).expect("valid chrome trace");
    assert!(summary.span_count >= 3 * (JobStage::COUNT - 1));
    // Worker spans keep their step args: every job ran steps(2).
    assert_eq!(summary.steps, vec![0, 1]);
    for stage in JobStage::all() {
        if stage == JobStage::RespondWire {
            continue;
        }
        assert!(summary.has(stage.name()), "missing {}", stage.name());
    }
    // One flow start per traced job, each resolving to >=1 finish on a
    // real worker lane of the workers process (pid 0).
    assert_eq!(summary.flow_starts.len(), 3);
    for (id, pid, _) in &summary.flow_starts {
        assert_eq!(*pid, 1, "flow starts on the jobs process");
        let targets: Vec<u64> = summary
            .flow_finishes
            .iter()
            .filter(|(fid, fpid, _)| fid == id && *fpid == 0)
            .map(|(_, _, tid)| *tid)
            .collect();
        assert!(!targets.is_empty(), "job {id} links to no worker lane");
        for tid in targets {
            assert!(
                lanes.contains(&(tid as usize)),
                "flow finish on unknown lane {tid}"
            );
        }
    }
}

/// The scheduler-side stages, in the order a job goes through them.
const TILING: [JobStage; 7] = [
    JobStage::QueueWait,
    JobStage::CacheLookup,
    JobStage::Analysis,
    JobStage::Plan,
    JobStage::Lower,
    JobStage::Execute,
    JobStage::Respond,
];

/// The spans a job exported from `queue_wait` on, checked to be a prefix
/// of [`TILING`] in which every stage starts where the one before it
/// ended. Returns how many stages the job reached.
fn tiled_stages(job: &sp_trace::JobSpans) -> usize {
    let spans: Vec<_> = job
        .stages
        .iter()
        .filter(|s| TILING.contains(&s.stage))
        .collect();
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(span.stage, TILING[i], "job {} stage {i}", job.name);
    }
    for pair in spans.windows(2) {
        assert_eq!(
            pair[0].start_nanos + pair[0].dur_nanos,
            pair[1].start_nanos,
            "job {}: {} does not end where {} starts",
            job.name,
            pair[0].stage.name(),
            pair[1].stage.name()
        );
    }
    spans.len()
}

/// Stage shares divide by the sum of the stage spans, so the spans must
/// tile the job: nothing the scheduler does for it — key derivation
/// included — may fall between two of them. Holds for a miss, a hit, and
/// a job whose deadline cut it short at either check.
#[test]
fn stage_spans_tile_the_job() {
    let service = Service::new(ServiceConfig::default().workers(2).traced());
    let run = |spec: JobSpec| service.wait(service.submit(spec).unwrap());
    let spec = |name: &str| JobSpec::new(name, ll18::sequence(48), fused(&[2])).steps(2);
    assert_eq!(run(spec("miss")).unwrap().cache.name(), "miss");
    assert_eq!(run(spec("hit")).unwrap().cache.name(), "hit");
    // A zero budget dies at the pre-check; a budget a long run outlasts
    // dies at the post-check (or at the pre-check on a stalled host).
    let stillborn = run(spec("stillborn").deadline(Duration::ZERO));
    let overrun = run(spec("overrun")
        .steps(400)
        .deadline(Duration::from_millis(1)));
    for res in [stillborn, overrun] {
        assert!(matches!(res, Err(ServeError::Deadline { .. })), "{res:?}");
    }

    let session = service.session_trace().expect("tracing service");
    let reached: Vec<(&str, usize)> = session
        .jobs
        .iter()
        .map(|job| (job.name.as_str(), tiled_stages(job)))
        .collect();
    assert_eq!(reached[..3], [("miss", 7), ("hit", 7), ("stillborn", 1)]);
    let (name, stages) = reached[3];
    assert_eq!(name, "overrun");
    assert!(stages == 6 || stages == 1, "through execute, no respond");
}

/// Satellite 1 + tentpole metrics: outcome counters and per-stage
/// histograms appear in the registry and its Prometheus rendering.
#[test]
fn metrics_report_stage_histograms_and_outcomes() {
    let service = Service::new(ServiceConfig::default().workers(2).queue_capacity(1));
    let seq = jacobi::sequence(32);
    let ok = service
        .submit(JobSpec::new("ok", seq.clone(), fused(&[2])))
        .unwrap();
    service.wait(ok).unwrap();
    // A zero deadline trips the queue-age pre-check deterministically.
    let late = service
        .submit(JobSpec::new("late", seq.clone(), fused(&[2])).deadline(Duration::ZERO))
        .unwrap();
    assert!(matches!(
        service.wait(late),
        Err(ServeError::Deadline { .. })
    ));

    let stats = service.stage_stats();
    assert_eq!((stats.ok, stats.deadline), (1, 1));
    let exec = stats.stage(JobStage::Execute).unwrap();
    assert_eq!(exec.count(), 1, "only the ok job reached execute");
    assert!(exec.sum() > 0);
    // The deadline job still recorded enqueue + queue-wait.
    assert_eq!(stats.stage(JobStage::QueueWait).unwrap().count(), 2);

    let reg = service.metrics();
    // Both jobs' results are held; the pool was busy for the one execute
    // stage out of however long the scheduler has been up.
    assert_eq!(reg.gauge_value("spfc_serve_results_retained"), Some(2.0));
    let busy = reg.gauge_value("spfc_serve_pool_busy_ratio").unwrap();
    assert!(busy > 0.0 && busy < 1.0, "busy ratio {busy}");
    let text = reg.to_prometheus();
    assert!(text.contains("spfc_serve_jobs_total{component=\"sp-serve\",outcome=\"ok\"} 1"));
    assert!(text.contains("spfc_serve_jobs_total{component=\"sp-serve\",outcome=\"deadline\"} 1"));
    assert!(text.contains("spfc_serve_jobs_total{component=\"sp-serve\",outcome=\"rejected\"} 0"));
    assert!(text.contains("spfc_serve_stage_nanos_bucket{component=\"sp-serve\",stage=\"execute\""));
    assert!(
        text.contains("spfc_serve_stage_nanos_count{component=\"sp-serve\",stage=\"execute\"} 1")
    );
}

/// Backpressure rejections count under `outcome="rejected"` even though
/// no job object ever exists for them.
#[test]
fn rejected_submissions_are_counted() {
    let service = Service::new(ServiceConfig::default().workers(1).queue_capacity(1));
    let seq = jacobi::sequence(48);
    // Saturate: many rapid submissions against a capacity-1 queue must
    // reject at least once while the first job occupies the scheduler.
    let mut rejected = 0;
    let mut accepted = Vec::new();
    for i in 0..64 {
        match service.submit(JobSpec::new(format!("j{i}"), seq.clone(), fused(&[1])).steps(4)) {
            Ok(id) => accepted.push(id),
            Err(ServeError::QueueFull { .. }) => rejected += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    for id in accepted {
        let _ = service.wait(id);
    }
    if rejected > 0 {
        assert_eq!(service.stage_stats().rejected, rejected);
    }
    let text = service.metrics().to_prometheus();
    assert!(text.contains(&format!(
        "spfc_serve_jobs_total{{component=\"sp-serve\",outcome=\"rejected\"}} {rejected}"
    )));
}

/// The scrape endpoint serves the service's live Prometheus text.
#[test]
fn http_endpoint_scrapes_live_service_metrics() {
    let service = Arc::new(Service::new(ServiceConfig::default().workers(2)));
    let render = {
        let service = Arc::clone(&service);
        Arc::new(move || service.metrics().to_prometheus()) as sp_serve::MetricsRender
    };
    let server = MetricsServer::start("127.0.0.1:0", render).unwrap();
    let addr = server.addr();

    let id = service
        .submit(JobSpec::new("scraped", jacobi::sequence(32), fused(&[2])))
        .unwrap();
    service.wait(id).unwrap();

    let mut conn = TcpStream::connect(addr).unwrap();
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"));
    assert!(response.contains("spfc_serve_jobs_total{component=\"sp-serve\",outcome=\"ok\"} 1"));
    assert!(response.contains("spfc_serve_stage_nanos_bucket"));
    assert!(response.contains("spfc_serve_jobs_completed_total"));
    server.shutdown();
}

/// Stage stats persist to the cache dir on drop and aggregate across
/// service lifetimes, the same way cache counters do.
#[test]
fn stage_stats_persist_across_services_sharing_a_cache_dir() {
    let dir = tmpdir("persist");
    let cache = ArtifactCacheConfig::default().disk(&dir);
    for _ in 0..2 {
        let service = Service::new(ServiceConfig::default().workers(2).cache(cache.clone()));
        let id = service
            .submit(JobSpec::new("persisted", jacobi::sequence(32), fused(&[2])))
            .unwrap();
        service.wait(id).unwrap();
        drop(service);
    }
    let total = disk_stats(&dir).stages;
    assert_eq!(total.ok, 2, "both lifetimes flushed");
    assert_eq!(total.stage(JobStage::Execute).unwrap().count(), 2);
    assert!(total.stage(JobStage::Execute).unwrap().sum() > 0);
    assert!(!total.render_summary().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An untraced service keeps reports lean: no session trace, no
/// run-trace theft, but histograms still populate.
#[test]
fn untraced_service_has_no_session_but_full_histograms() {
    let service = Service::new(ServiceConfig::default().workers(2));
    let id = service
        .submit(JobSpec::new("plain", jacobi::sequence(32), fused(&[2])))
        .unwrap();
    let res = service.wait(id).unwrap();
    assert!(res.report.trace.is_none(), "untraced run");
    assert!(res.report.queue_wait_nanos > 0, "queue split recorded");
    assert!(res.report.exec_nanos > 0, "exec split recorded");
    assert!(service.session_trace().is_none());
    let stats = service.stage_stats();
    for stage in JobStage::all() {
        // respond_wire is only recorded for jobs arriving over a socket.
        let want = u64::from(stage != JobStage::RespondWire);
        assert_eq!(
            stats.stage(stage).unwrap().count(),
            want,
            "{}",
            stage.name()
        );
    }
}
