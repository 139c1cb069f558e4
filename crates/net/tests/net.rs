//! End-to-end wire-tier tests over real TCP sockets (ISSUE 9
//! tentpole).
//!
//! The acceptance bar: a job submitted through the socket client must
//! return a result bit-identical to the same job run in-process — same
//! snapshot digest, same per-processor counters — and the protocol's
//! control surface (warm cache hits, by-digest submission, deadline
//! propagation, graceful drain, ping) must behave over the wire exactly
//! as the service behaves in-process.

use shift_peel_core::CodegenMethod;
use sp_exec::{Backend, ExecPlan, Schedule};
use sp_ir::display::render_sequence;
use sp_kernels::jacobi;
use sp_net::{
    read_frame, write_frame, Client, ClientConfig, Frame, NetError, NetServer, NetServerConfig,
    ProgramRef, SubmitJob,
};
use sp_serve::{CacheOutcome, JobSpec, Service, ServiceConfig};
use sp_trace::JobStage;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fused(grid: &[usize]) -> ExecPlan {
    ExecPlan::Fused {
        grid: grid.to_vec(),
        method: CodegenMethod::StripMined,
        strip: 8,
    }
}

fn start_server(cfg: ServiceConfig) -> NetServer {
    NetServer::start("127.0.0.1:0", Arc::new(Service::new(cfg))).expect("bind ephemeral port")
}

fn client(server: &NetServer, tenant: &str) -> Client {
    Client::connect(
        &server.addr().to_string(),
        ClientConfig::default().tenant(tenant),
    )
    .expect("connect")
}

/// Tentpole acceptance: digest and per-proc counters across the wire
/// match the identical job in-process, bit for bit.
#[test]
fn wire_job_is_bit_identical_to_in_process() {
    let spec = JobSpec::new("parity", jacobi::sequence(48), fused(&[2]))
        .backend(Backend::Compiled)
        .steps(3)
        .seed(11);

    // In-process reference, on its own (cold) service.
    let local_service = Service::new(ServiceConfig::default().workers(2));
    let id = local_service.submit(spec.clone()).unwrap();
    let local = local_service.wait(id).unwrap();

    // The same job over a real TCP socket, also cold.
    let server = start_server(ServiceConfig::default().workers(2));
    let mut c = client(&server, "parity-tester");
    let remote = c.submit(&spec).expect("wire submit");

    assert_eq!(remote.digest, local.digest, "bit-identical snapshots");
    assert_eq!(remote.cache, CacheOutcome::Miss, "cold cache both sides");
    assert_eq!(remote.report.procs, local.report.procs);
    assert_eq!(remote.report.steps, local.report.steps);
    assert_eq!(remote.report.backend, local.report.backend);
    assert_eq!(remote.report.schedule, local.report.schedule);
    assert_eq!(remote.report.tape_ops, local.report.tape_ops);
    assert_eq!(
        remote.report.workers.len(),
        local.report.workers.len(),
        "same worker breakdown"
    );
    // Per-proc counters are equal (ExecCounters equality compares work
    // done — iterations, loads, stores — not wall-clock noise).
    for (r, l) in remote.report.workers.iter().zip(&local.report.workers) {
        assert_eq!(r.proc, l.proc);
        assert_eq!(r.counters, l.counters, "proc {} counters", r.proc);
    }
    assert_eq!(remote.tenant, "parity-tester");
    server.shutdown();
}

/// Resubmitting the same program warms the cache, and once the server
/// has seen the text, a digest-only submission suffices; an unknown
/// digest is a typed error.
#[test]
fn warm_and_by_digest_submissions_work() {
    let server = start_server(ServiceConfig::default().workers(2));
    let mut c = client(&server, "digester");
    let spec = JobSpec::new("warm", jacobi::sequence(32), fused(&[2])).steps(2);

    let cold = c.submit(&spec).unwrap();
    assert_eq!(cold.cache, CacheOutcome::Miss);
    let warm = c.submit(&spec).unwrap();
    assert_eq!(warm.cache, CacheOutcome::Memory, "second trip hits");
    assert_eq!(warm.digest, cold.digest);

    // By digest: no program text on the wire at all.
    let by_digest = c.submit_by_digest(&spec).unwrap();
    assert_eq!(by_digest.cache, CacheOutcome::Memory);
    assert_eq!(by_digest.digest, cold.digest);

    // A digest the server never saw is a typed error, not a hang.
    let unknown = JobSpec::new("nope", jacobi::sequence(40), fused(&[2]));
    let err = c.submit_by_digest(&unknown).expect_err("unknown digest");
    let NetError::Serve { code, .. } = err else {
        panic!("expected a server error, got {err}");
    };
    assert_eq!(code, sp_net::CODE_UNKNOWN_PROGRAM);
    server.shutdown();
}

/// Deadline propagation, both halves: a budget that dies client-side
/// never reaches the server; a budget the run overruns on the server
/// comes back as the typed deadline error with the job id attached.
#[test]
fn deadlines_propagate_over_the_wire() {
    let server = start_server(ServiceConfig::default().workers(2));

    // Client side: burn the whole budget before the first attempt (the
    // re-encode of remaining budget underflows), so no frame is sent.
    let mut c = client(&server, "hasty");
    let spec = JobSpec::new("expired", jacobi::sequence(32), fused(&[2]))
        .deadline(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    match c.submit(&spec) {
        Err(NetError::DeadlineExhausted) => {}
        other => panic!("expected DeadlineExhausted, got {other:?}"),
    }

    // Server side: a budget far smaller than the run's wall time trips
    // the server's post-run deadline check; the typed code comes back.
    // A warm-up job first, so the overrun job's id is nonzero and the
    // id-in-error-frame assertion below actually checks propagation.
    let warmup = JobSpec::new("warmup", jacobi::sequence(32), fused(&[2]));
    c.submit(&warmup).expect("warm-up job");
    let spec = JobSpec::new("overrun", jacobi::sequence(96), fused(&[2]))
        .steps(40)
        .deadline(Duration::from_millis(2));
    let err = c.submit(&spec).expect_err("must overrun 2ms");
    let NetError::Serve { code, job, .. } = err else {
        panic!("expected a server error, got {err}");
    };
    assert_eq!(code, 2, "ServeError::Deadline's stable code");
    assert!(job > 0, "the created job's id rides in the error frame");
    server.shutdown();
}

/// Graceful drain over the wire: the server confirms once quiesced,
/// later submissions get the typed shutting-down error, and the hosting
/// process's wait_drained unblocks.
#[test]
fn drain_over_the_wire_quiesces_and_rejects_new_work() {
    let server = start_server(ServiceConfig::default().workers(2));
    let mut c = client(&server, "drainer");
    let spec = JobSpec::new("last", jacobi::sequence(32), fused(&[2]));
    let done = c.submit(&spec).unwrap();
    assert!(done.digest != 0);

    c.drain().expect("drain confirmed");
    server.wait_drained();

    // The drain closed that connection; a fresh one is still accepted,
    // but new work is refused with the stable ShuttingDown code.
    let mut late = client(&server, "latecomer");
    let err = late.submit(&spec).expect_err("no admission after drain");
    let NetError::Serve { code, .. } = err else {
        panic!("expected a server error, got {err}");
    };
    assert_eq!(code, 3, "ServeError::ShuttingDown's stable code");
    server.shutdown();
}

/// Ping round-trips and reports a plausible latency.
#[test]
fn ping_round_trips() {
    let server = start_server(ServiceConfig::default().workers(1));
    let mut c = client(&server, "pinger");
    let rtt = c.ping().expect("ping");
    assert!(rtt < Duration::from_secs(5));
    server.shutdown();
}

/// Wire jobs carry the two wire-only stages: decode lands real time,
/// respond_wire is recorded post-hoc, and a traced session shows both
/// spans on the job's lane.
#[test]
fn wire_jobs_record_decode_and_respond_wire_stages() {
    let server = start_server(ServiceConfig::default().workers(2).traced());
    let mut c = client(&server, "tracer");
    let spec = JobSpec::new("staged", jacobi::sequence(32), fused(&[2])).steps(2);
    let res = c.submit(&spec).unwrap();

    // The server records `RespondWire` once the reply is written, which
    // can be after the client has read it: poll, with a deadline.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = server.service().stage_stats();
        let recorded = stats
            .stage(JobStage::RespondWire)
            .is_some_and(|h| h.count() > 0);
        if recorded || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.stage(JobStage::Decode).unwrap().count(), 1);
    assert_eq!(stats.stage(JobStage::RespondWire).unwrap().count(), 1);

    let session = server.service().session_trace().expect("traced");
    let job = session
        .jobs
        .iter()
        .find(|j| j.job_id == res.job)
        .expect("job lane");
    assert!(job.stage_dur(JobStage::Decode).is_some());
    assert!(job.stage_dur(JobStage::RespondWire).is_some());
    server.shutdown();
}

/// Regression: every backoff gate is clamped to the remaining deadline
/// budget, for a single submit and for a window alike. A 50 ms budget
/// against a full queue, with a 300 ms first backoff, must come back as
/// DeadlineExhausted in ≈budget: an unclamped gate lands far past it
/// (a windowed engine once spun until its 300 ms gate opened).
#[test]
fn backoff_is_clamped_to_the_deadline_budget() {
    let one = ExecPlan::Fused {
        grid: vec![1],
        method: CodegenMethod::StripMined,
        strip: 8,
    };
    for window in [1, 4] {
        let server = start_server(ServiceConfig::default().workers(1).queue_capacity(1));
        let service = Arc::clone(server.service());

        // Occupy the single worker (~0.4 s of interpreter time), then
        // fill the one queue slot, so every wire submission gets
        // QueueFull.
        let occupier = JobSpec::new("occupier", jacobi::sequence(128), one.clone())
            .backend(Backend::Interp)
            .steps(250);
        let occupier_id = service.submit(occupier).unwrap();
        while service.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let filler = JobSpec::new("filler", jacobi::sequence(32), one.clone());
        let filler_id = service.submit(filler).unwrap();

        let mut c = Client::connect(
            &server.addr().to_string(),
            ClientConfig::default()
                .tenant("hurried")
                .backoff(Duration::from_millis(300)),
        )
        .expect("connect");
        let spec = JobSpec::new("budgeted", jacobi::sequence(32), one.clone())
            .deadline(Duration::from_millis(50));
        let t0 = Instant::now();
        let outcomes = if window == 1 {
            vec![c.submit(&spec)]
        } else {
            c.submit_pipelined(&vec![spec; window], window)
        };
        let elapsed = t0.elapsed();
        assert_eq!(outcomes.len(), window);
        for outcome in outcomes {
            assert!(
                matches!(outcome, Err(NetError::DeadlineExhausted)),
                "window {window}: expected DeadlineExhausted, got {outcome:?}"
            );
        }
        assert!(
            elapsed < Duration::from_millis(200),
            "window {window}: budget-clamped retries must give up in ≈budget, took {elapsed:?}"
        );

        // Let the occupier and filler finish so shutdown is quick and the
        // pool proves itself intact.
        service.wait(occupier_id).unwrap();
        service.wait(filler_id).unwrap();
        server.shutdown();
    }
}

/// A proxy in front of `server` for two connections. From the first it
/// forwards the client's first frame, reads the server's answer and
/// discards it, then hangs up on the client. The second is forwarded
/// verbatim, both ways, until the client closes it.
fn reply_dropping_proxy(
    server: std::net::SocketAddr,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use std::net::{Shutdown, TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().unwrap();
    let proxy = std::thread::spawn(move || {
        let (mut client, _) = listener.accept().expect("first connection");
        let mut upstream = TcpStream::connect(server).expect("proxy connects upstream");
        let submit = read_frame(&mut client).expect("the client's submission");
        write_frame(&mut upstream, &submit).unwrap();
        read_frame(&mut upstream).expect("the server's reply");
        drop((client, upstream)); // the client sees a hang-up where its reply was

        let (mut client, _) = listener.accept().expect("the reconnect");
        let mut upstream = TcpStream::connect(server).expect("proxy connects upstream");
        let (mut c2, mut u2) = (client.try_clone().unwrap(), upstream.try_clone().unwrap());
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = std::io::copy(&mut c2, &mut u2);
                let _ = u2.shutdown(Shutdown::Both);
            });
            let _ = std::io::copy(&mut upstream, &mut client);
            let _ = client.shutdown(Shutdown::Both);
        });
    });
    (addr, proxy)
}

/// A reply lost with its connection is asked for again under the same
/// request id on a new connection, and the server answers from the job
/// the first copy ran: the right digest, one dedupe hit, one job run.
#[test]
fn a_resend_after_a_dropped_connection_runs_the_job_once() {
    let spec = JobSpec::new("resent", jacobi::sequence(32), fused(&[2]))
        .backend(Backend::Compiled)
        .steps(2)
        .seed(3);
    let local = Service::new(ServiceConfig::default().workers(2));
    let want = local.wait(local.submit(spec.clone()).unwrap()).unwrap();

    for window in [1, 4] {
        let server = start_server(ServiceConfig::default().workers(2));
        let (addr, proxy) = reply_dropping_proxy(server.addr());
        let cfg = ClientConfig::default()
            .tenant("resender")
            .io_timeout(Duration::from_secs(10));
        let mut c = Client::connect(&addr.to_string(), cfg).expect("connect through the proxy");
        let got = if window == 1 {
            c.submit(&spec)
        } else {
            c.submit_pipelined(std::slice::from_ref(&spec), window)
                .pop()
                .unwrap()
        }
        .expect("the resend is answered");
        assert_eq!(got.digest, want.digest, "window {window}");
        assert_eq!(server.stats().dedupe_hits, 1, "window {window}");
        assert_eq!(server.service().stage_stats().ok, 1, "window {window}");
        drop(c);
        proxy.join().expect("the proxy ends with the client");
        server.shutdown();
    }
}

/// Regression (ISSUE 10 satellite): the digest→program registry is a
/// bounded LRU. With capacity 1, a second program text evicts the
/// first; the evicted digest is a typed unknown-program error until the
/// text is resubmitted, which re-registers it transparently.
#[test]
fn program_registry_evicts_and_reregisters_over_tcp() {
    let service = Arc::new(Service::new(ServiceConfig::default().workers(2)));
    let server = NetServer::start_with(
        "127.0.0.1:0",
        service,
        NetServerConfig {
            program_capacity: 1,
        },
    )
    .expect("bind ephemeral port");
    let mut c = client(&server, "evictee");

    let spec_a = JobSpec::new("a", jacobi::sequence(32), fused(&[2])).steps(2);
    let spec_b = JobSpec::new("b", jacobi::sequence(40), fused(&[2])).steps(2);

    c.submit(&spec_a).expect("text A registers");
    c.submit(&spec_b).expect("text B registers, evicting A");

    let err = c.submit_by_digest(&spec_a).expect_err("A was evicted");
    let NetError::Serve { code, .. } = err else {
        panic!("expected a server error, got {err}");
    };
    assert_eq!(code, sp_net::CODE_UNKNOWN_PROGRAM);

    // Resubmitting the text re-registers the digest transparently …
    c.submit(&spec_a).expect("text A re-registers");
    // … and by-digest works again (B is the eviction victim now).
    let warm = c.submit_by_digest(&spec_a).expect("digest A known again");
    assert_eq!(warm.cache, CacheOutcome::Memory, "service cache survived");

    let stats = server.stats();
    assert_eq!(stats.programs_registered, 3, "A, B, A again");
    assert_eq!(stats.programs_evicted, 2, "A (by B), then B (by A)");
    assert_eq!(stats.programs_live, 1, "capacity is the ceiling");
    assert_eq!(stats.digest_hits, 1, "the one by-digest success");
    server.shutdown();
}

/// Tentpole acceptance: N jobs pipelined through one connection return
/// bit-identical digests and per-proc counters to serial submission.
#[test]
fn pipelined_jobs_match_serial_bit_for_bit() {
    let specs: Vec<JobSpec> = (0..8)
        .map(|i| {
            JobSpec::new(
                format!("pipe-{i}"),
                jacobi::sequence(if i % 2 == 0 { 32 } else { 48 }),
                fused(&[2]),
            )
            .backend(Backend::Compiled)
            .steps(2 + i % 3)
            .seed(100 + i as u64)
        })
        .collect();

    // Serial reference over its own cold server.
    let serial_server = start_server(ServiceConfig::default().workers(2));
    let mut serial_client = client(&serial_server, "pipeliner");
    let serial: Vec<_> = specs
        .iter()
        .map(|s| serial_client.submit(s).expect("serial submit"))
        .collect();
    serial_server.shutdown();

    // The same specs, windowed 4-deep on one connection, cold again.
    let server = start_server(ServiceConfig::default().workers(2).queue_capacity(16));
    let mut c = client(&server, "pipeliner");
    let piped = c.submit_pipelined(&specs, 4);
    assert_eq!(piped.len(), specs.len(), "one outcome per spec, in order");
    for ((spec, got), want) in specs.iter().zip(&piped).zip(&serial) {
        let got = got.as_ref().expect("pipelined submit");
        assert_eq!(got.name, spec.name, "answers line up with their specs");
        assert_eq!(
            got.digest, want.digest,
            "{}: bit-identical snapshot",
            spec.name
        );
        assert_eq!(got.report.workers.len(), want.report.workers.len());
        for (r, l) in got.report.workers.iter().zip(&want.report.workers) {
            assert_eq!(r.proc, l.proc);
            assert_eq!(r.counters, l.counters, "{} proc {}", spec.name, r.proc);
        }
    }
    // The ids were fresh, so nothing deduped; the registry saw both
    // distinct program texts.
    let stats = server.stats();
    assert_eq!(stats.dedupe_hits, 0);
    assert_eq!(stats.programs_live, 2);
    server.shutdown();
}

/// A request resent inside the server's memory of it — same tenant, same
/// nonzero id, same body, as a client does after a transport error —
/// attaches to the job the first copy created: both replies carry that
/// job, `dedupe_hits` counts the second copy, and nothing runs twice.
#[test]
fn a_resubmission_attaches_to_the_first_job() {
    let server = start_server(ServiceConfig::default().workers(2));
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let submit = Frame::Submit(SubmitJob {
        request_id: 42,
        tenant: "retrier".into(),
        name: "once".into(),
        program: ProgramRef::Text(render_sequence(&jacobi::sequence(32))),
        plan: fused(&[2]),
        backend: Backend::Compiled,
        schedule: Schedule::default(),
        steps: 2,
        seed: 5,
        deadline_nanos: 0,
    });
    let mut round_trip = || {
        write_frame(&mut stream, &submit).unwrap();
        match read_frame(&mut stream).expect("a reply") {
            Frame::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        }
    };
    let first = round_trip();
    let second = round_trip();
    assert_eq!((first.request_id, second.request_id), (42, 42));
    assert_eq!(second.job, first.job, "the retry attached to the first job");
    assert_eq!(
        (second.digest, second.order),
        (first.digest, first.order),
        "and was answered with its result"
    );
    assert_eq!(server.stats().dedupe_hits, 1);
    let reg = server.service().metrics();
    assert_eq!(
        reg.counter_value("spfc_serve_jobs_submitted_total"),
        Some(1)
    );
    assert_eq!(
        reg.counter_value("spfc_serve_jobs_completed_total"),
        Some(1)
    );
    server.shutdown();
}

/// A program the server knows costs no front end again: the second
/// by-text submission of the same canonical text is served from the
/// registry without a parse, and is the same job in every respect — same
/// answer, and a cache hit, which only an equal `CacheKey` can be.
#[test]
fn a_known_text_is_served_without_a_parse() {
    let server = start_server(ServiceConfig::default().workers(2));
    let mut c = client(&server, "repeater");
    let spec = JobSpec::new("again", jacobi::sequence(32), fused(&[2])).steps(2);

    let first = c.submit(&spec).unwrap();
    let stats = server.stats();
    assert_eq!((stats.programs_registered, stats.text_hits), (1, 0));

    let second = c.submit(&spec).unwrap();
    let stats = server.stats();
    assert_eq!((stats.programs_registered, stats.text_hits), (2, 1));
    assert_eq!(stats.digest_hits, 0, "a text hit is not a digest hit");
    assert_eq!(second.digest, first.digest);
    assert_eq!(
        (first.cache, second.cache),
        (CacheOutcome::Miss, CacheOutcome::Memory)
    );
    let counters = server.service().cache_counters();
    assert_eq!((counters.total_hits(), counters.misses), (1, 1));
    server.shutdown();
}

/// One hand-framed submission over `stream`, and the result it is owed.
fn raw_round_trip(stream: &mut std::net::TcpStream, submit: &SubmitJob) -> sp_net::ResultFrame {
    write_frame(stream, &Frame::Submit(submit.clone())).unwrap();
    match read_frame(stream).expect("a reply") {
        Frame::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

/// A text that is not the canonical rendering — a comment and a blank
/// line ahead of it — is parsed, and registers the program under its
/// *canonical* digest: a by-digest submission then finds it, and so does
/// the canonical text, without a parse.
#[test]
fn a_hand_written_text_registers_under_the_canonical_digest() {
    let server = start_server(ServiceConfig::default().workers(2));
    let spec = JobSpec::new("by-hand", jacobi::sequence(32), fused(&[2])).steps(2);
    let by_hand = format!("! typed in by hand\n\n{}", spec.seq.text());
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let submit = SubmitJob {
        request_id: 0,
        tenant: "author".into(),
        name: "by-hand".into(),
        program: ProgramRef::Text(by_hand),
        plan: fused(&[2]),
        backend: Backend::Compiled,
        schedule: Schedule::default(),
        steps: 2,
        seed: 7,
        deadline_nanos: 0,
    };
    let first = raw_round_trip(&mut stream, &submit);
    // The same bytes again are still not the entry's text: parsed again.
    let second = raw_round_trip(&mut stream, &submit);
    assert_eq!(second.digest, first.digest);
    let stats = server.stats();
    assert_eq!((stats.programs_registered, stats.text_hits), (2, 0));
    assert_eq!(stats.programs_live, 1, "one program, under one digest");

    let mut c = client(&server, "author");
    let by_digest = c
        .submit_by_digest(&spec)
        .expect("the canonical digest is known");
    assert_eq!(by_digest.digest, first.digest);
    assert_eq!(
        by_digest.cache,
        CacheOutcome::Memory,
        "one program, one key"
    );
    let canonical = c.submit(&spec).unwrap();
    assert_eq!(canonical.digest, first.digest);
    let stats = server.stats();
    assert_eq!((stats.digest_hits, stats.text_hits), (1, 1));
    server.shutdown();
}

/// Text from outside the program that does not parse is a typed error on
/// the reader thread that parsed it, never a panic: an empty loop and a
/// zero-extent array are each refused as malformed, and the same
/// connection then serves a good job.
#[test]
fn unparsable_text_is_malformed_and_the_connection_serves_on() {
    let server = start_server(ServiceConfig::default().workers(2));
    let spec = JobSpec::new("good", jacobi::sequence(32), fused(&[2])).steps(2);
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let submit = |text: &str| SubmitJob {
        request_id: 0,
        tenant: "fuzzer".into(),
        name: "text".into(),
        program: ProgramRef::Text(text.to_string()),
        plan: fused(&[2]),
        backend: Backend::Compiled,
        schedule: Schedule::default(),
        steps: 2,
        seed: 7,
        deadline_nanos: 0,
    };
    for bad in [
        "! array A0 a(8)\nL1:\n  do i0 = 5, 4\n    a[i0] = 1.0\n  end do\n",
        "! array A0 a(0)\n",
    ] {
        write_frame(&mut stream, &Frame::Submit(submit(bad))).unwrap();
        match read_frame(&mut stream).expect("a reply") {
            Frame::Error(e) => assert_eq!(e.code, sp_net::CODE_MALFORMED, "{bad:?}: {e:?}"),
            other => panic!("{bad:?}: expected an error, got {other:?}"),
        }
    }
    let good = raw_round_trip(&mut stream, &submit(spec.seq.text()));
    let mut c = client(&server, "fuzzer");
    assert_eq!(good.digest, c.submit(&spec).unwrap().digest);
    server.shutdown();
}

/// Every text submission either parsed its program or found it:
/// `programs_registered = parses + text_hits`, through an eviction and the
/// re-registration after it.
#[test]
fn text_submissions_are_parses_plus_text_hits() {
    let service = Arc::new(Service::new(ServiceConfig::default().workers(2)));
    let server = NetServer::start_with(
        "127.0.0.1:0",
        service,
        NetServerConfig {
            program_capacity: 1,
        },
    )
    .expect("bind ephemeral port");
    let mut c = client(&server, "counter");
    let spec_a = JobSpec::new("a", jacobi::sequence(32), fused(&[2])).steps(2);
    let spec_b = JobSpec::new("b", jacobi::sequence(40), fused(&[2])).steps(2);

    // (spec, parsed?): first contact parses, a resident text does not, and
    // an evicted one parses again.
    let script = [
        (&spec_a, true),
        (&spec_a, false),
        (&spec_b, true),
        (&spec_a, true),
        (&spec_a, false),
        (&spec_a, false),
    ];
    let (mut submissions, mut parses) = (0, 0);
    for (spec, parsed) in script {
        c.submit(spec).expect("text submission");
        submissions += 1;
        parses += u64::from(parsed);
        let stats = server.stats();
        assert_eq!(stats.programs_registered, submissions);
        assert_eq!(stats.programs_registered, parses + stats.text_hits);
    }
    let stats = server.stats();
    assert_eq!((stats.text_hits, stats.programs_evicted), (3, 2));
    assert_eq!(stats.programs_live, 1);
    server.shutdown();
}

/// The wire tier's counters all reach the scrape endpoint's registry.
#[test]
fn net_counters_are_exported_as_metrics() {
    let server = start_server(ServiceConfig::default().workers(2));
    let mut c = client(&server, "scraped");
    let spec = JobSpec::new("m", jacobi::sequence(32), fused(&[2]));
    c.submit(&spec).unwrap();
    c.submit(&spec).unwrap();
    c.submit_by_digest(&spec).unwrap();

    let reg = server.stats_handle().metrics();
    for (series, want) in [
        ("spfc_net_programs_registered_total", 2),
        ("spfc_net_text_hits_total", 1),
        ("spfc_net_program_evictions_total", 0),
        ("spfc_net_digest_hits_total", 1),
        ("spfc_net_dedupe_hits_total", 0),
    ] {
        assert_eq!(reg.counter_value(series), Some(want), "{series}");
    }
    let text = reg.to_prometheus();
    for series in [
        "spfc_net_programs_registered_total",
        "spfc_net_text_hits_total",
        "spfc_net_program_evictions_total",
        "spfc_net_digest_hits_total",
        "spfc_net_dedupe_hits_total",
    ] {
        let line = format!("{series}{{component=\"sp-net\"}} ");
        assert!(text.contains(&line), "{series} missing from:\n{text}");
    }
    assert!(text.contains("spfc_net_programs_live{component=\"sp-net\"} 1"));
    server.shutdown();
}

/// What makes a resent request the same request: tenant, id and the work
/// asked for. By digest it dedupes as by text does; a reused id with
/// other work runs as a new job; a different deadline alone — what a
/// retry carries — still attaches.
#[test]
fn dedupe_follows_the_work_not_the_deadline() {
    let server = start_server(ServiceConfig::default().workers(2));
    let seq = jacobi::sequence(32);
    let mut c = client(&server, "retrier");
    c.submit(&JobSpec::new("register", seq.clone(), fused(&[2])))
        .expect("the text registers");

    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let base = SubmitJob {
        request_id: 42,
        tenant: "retrier".into(),
        name: "once".into(),
        program: ProgramRef::Digest(sp_net::program_digest(&seq)),
        plan: fused(&[2]),
        backend: Backend::Compiled,
        schedule: Schedule::default(),
        steps: 2,
        seed: 5,
        deadline_nanos: 0,
    };
    let mut round_trip = |submit: &SubmitJob| raw_round_trip(&mut stream, submit);
    let first = round_trip(&base);
    let resent = round_trip(&base);
    assert_eq!(resent.job, first.job, "a by-digest retry attaches");
    let hurried = round_trip(&SubmitJob {
        deadline_nanos: 30_000_000_000,
        ..base.clone()
    });
    assert_eq!(
        hurried.job, first.job,
        "the remaining budget is not the work"
    );
    assert_eq!(server.stats().dedupe_hits, 2);

    // Same tenant, same id, other work: a job of its own (the unit test
    // beside `request_fingerprint` goes through every field).
    let reseeded = SubmitJob {
        seed: 6,
        ..base.clone()
    };
    let other = round_trip(&reseeded);
    assert!(
        other.job > first.job,
        "a changed seed must run as a new job"
    );
    // By text, the same work is still a different request than by digest.
    let by_text = round_trip(&SubmitJob {
        program: ProgramRef::Text(render_sequence(&seq)),
        ..reseeded
    });
    assert!(by_text.job > other.job);
    assert_eq!(server.stats().dedupe_hits, 2);
    server.shutdown();
}

/// Two connections pipeline at once into one service: each gets back
/// exactly the request ids it sent — nothing of the other's, nothing
/// twice — with the digests of the same jobs run in-process. A `Drain`
/// sent right behind a burst arrives after every reply of that burst.
#[test]
fn concurrent_pipelines_get_their_own_replies_and_drain_comes_last() {
    const JOBS: u64 = 6;
    let spec = |i: u64| {
        JobSpec::new(
            format!("conc-{i}"),
            jacobi::sequence(if i.is_multiple_of(2) { 32 } else { 48 }),
            fused(&[2]),
        )
        .steps(2)
        .seed(i)
    };
    let local = Service::new(ServiceConfig::default().workers(2));
    let want: Vec<u64> = (0..JOBS)
        .map(|i| local.wait(local.submit(spec(i)).unwrap()).unwrap().digest)
        .collect();

    let server = start_server(ServiceConfig::default().workers(2).queue_capacity(64));
    let submit = |tenant: &str, request_id: u64, i: u64| {
        let s = spec(i);
        Frame::Submit(SubmitJob {
            request_id,
            tenant: tenant.into(),
            name: s.name.clone(),
            program: ProgramRef::Text(s.seq.text().to_string()),
            plan: s.plan.clone(),
            backend: s.backend,
            schedule: s.schedule,
            steps: s.steps as u64,
            seed: s.seed,
            deadline_nanos: 0,
        })
    };
    let streams: Vec<std::net::TcpStream> = (0..2)
        .map(|_| std::net::TcpStream::connect(server.addr()).expect("connect"))
        .collect();
    std::thread::scope(|scope| {
        for (c, stream) in streams.iter().enumerate() {
            let (submit, want) = (&submit, &want);
            scope.spawn(move || {
                let mut stream = stream;
                let tenant = format!("conn-{c}");
                let base = 1000 * (c as u64 + 1);
                for i in 0..JOBS {
                    write_frame(&mut stream, &submit(&tenant, base + i, i)).unwrap();
                }
                let mut seen = Vec::new();
                for _ in 0..JOBS {
                    let Frame::Result(r) = read_frame(&mut stream).expect("a reply") else {
                        panic!("expected a result");
                    };
                    assert_eq!(r.tenant, tenant);
                    let i = r.request_id - base;
                    assert!(i < JOBS, "{tenant} got request id {}", r.request_id);
                    assert_eq!(r.digest, want[i as usize], "{tenant} job {i}");
                    seen.push(r.request_id);
                }
                seen.sort_unstable();
                assert_eq!(seen, (base..base + JOBS).collect::<Vec<_>>());
            });
        }
    });

    // A burst and a drain in one write: every reply, then the drain.
    let mut stream = &streams[0];
    let mut burst = Vec::new();
    for i in 0..JOBS {
        burst.extend(sp_net::encode_frame(&submit("conn-0", 5000 + i, i)));
    }
    burst.extend(sp_net::encode_frame(&Frame::Drain));
    std::io::Write::write_all(&mut stream, &burst).unwrap();
    let mut replies = 0;
    loop {
        match read_frame(&mut stream).expect("a frame") {
            Frame::Result(r) => {
                assert_eq!(r.digest, want[(r.request_id - 5000) as usize]);
                replies += 1;
            }
            Frame::Drain => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(replies, JOBS, "the drain came after every reply");
    server.wait_drained();
    server.shutdown();
}
