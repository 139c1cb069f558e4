//! The network front door: a threaded wire server over
//! [`sp_serve::Service`].
//!
//! One acceptor thread (the shared [`SocketServer`] skeleton from
//! sp-serve) plus **two** threads per connection: a reader and a
//! completion pump, joined by one channel. The reader decodes
//! [`Frame::Submit`] requests, resolves the program (text, or digest of
//! previously seen text), and feeds the service's fair-share queue via
//! `submit_wire` — so the decode time lands in the job's `decode` stage
//! span. It notes what the connection owes (the request's `request_id`,
//! its job and tenant), asks [`Service::on_done`] to send the job's
//! result down the channel, and goes straight back to reading. The pump
//! blocks on the channel and writes each reply (tagged with its
//! `request_id`) as its job finishes, out of order when jobs finish out
//! of order, batching whatever else has already arrived into the same
//! write and recording the `respond_wire` span. Both halves share the
//! socket's write side behind one mutex, so pump replies and reader-side
//! rejections never interleave bytes. The pump exits once the reader has
//! closed and every owed reply is written. Pipelining depth is the
//! client's choice; a one-at-a-time client sees its replies in order.
//!
//! Retried submissions: a client that resends a request (same tenant,
//! same nonzero `request_id`) after a transport failure may race a job
//! the server is still running — or already finished. The server keeps
//! a bounded FIFO of recently submitted `(tenant, request_id)` keys and
//! answers a resubmission with the *existing* job instead of executing
//! it twice; a fingerprint of the request body guards against an id
//! accidentally reused for different work.
//!
//! Programs: text submissions register the parsed program — a
//! [`SharedProgram`], which holds its canonical text and digest — under
//! that digest, so later jobs can submit by digest alone and a hit hands
//! out a reference, not a copy. A text the registry already holds is not
//! parsed again: the FNV-1a of canonical text *is* the program's digest,
//! so the submitted text's hash finds the entry, and the entry is taken
//! when its text is byte-equal to the submitted one. The hash alone is
//! never trusted — two texts can share one — and any other text (first
//! contact, hand-written, different whitespace) is parsed and registered
//! under its canonical digest. The registry is a bounded LRU
//! ([`NetServerConfig::program_capacity`]); an evicted digest is a typed
//! [`CODE_UNKNOWN_PROGRAM`] rejection and the client re-registers
//! transparently by resubmitting the text. Registration, eviction, and
//! dedupe counters surface through [`NetServer::stats`] and the
//! [`NetStatsHandle`] metrics registry.
//!
//! Deadlines: the submit frame carries the *remaining* budget in
//! nanoseconds; the server re-arms it as a service deadline on arrival,
//! so queue time here counts against the client's budget.
//!
//! Protocol errors (bad magic, CRC mismatch, version skew, garbage
//! payloads) are answered with a typed [`Frame::Error`] (code
//! [`CODE_MALFORMED`]) when the stream is still framable, and the
//! connection is closed cleanly either way — one bad peer never takes
//! the server down.

use crate::wire::{
    encode_frame, write_frame, ErrorFrame, Frame, FrameHeader, ProgramRef, ResultFrame, SubmitJob,
    WireError, CODE_MALFORMED, CODE_UNKNOWN_PROGRAM, HEADER_LEN,
};
use sp_exec::ExecPlan;
use sp_ir::parse_sequence;
use sp_serve::hash::Fnv1a64;
use sp_serve::{
    fnv1a64, Completion, JobId, JobSpec, Service, SharedProgram, SocketServer, RESULT_RETENTION,
};
use sp_trace::{JobStage, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How long a connection reader blocks in one `read` before polling the
/// stop flag. Short enough for prompt shutdown, long enough to be off
/// the hot path.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// Bound on the retry-dedupe FIFO: how many recently submitted
/// `(tenant, request_id)` keys the server remembers. Old entries fall
/// off the front, so the map cannot reintroduce the unbounded-growth
/// bug the program registry had. It is the service's own bound on
/// delivered results: an entry is only good for attaching a retry to the
/// job's result, so the ledger has no use remembering a job for longer
/// than the service remembers what came of it. (A retry that still finds
/// an entry whose result has just expired — jobs that overtook it in the
/// queue can make that happen — is answered `UnknownJob`.)
const DEDUPE_CAPACITY: usize = RESULT_RETENTION;

/// Tunables for [`NetServer::start_with`].
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Max programs retained in the digest registry (LRU eviction).
    pub program_capacity: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            program_capacity: 256,
        }
    }
}

/// A snapshot of the wire tier's own counters (the service's job
/// counters live in [`Service::metrics`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Text submissions that registered (or re-registered) a program —
    /// every one that resolved, parsed or not.
    pub programs_registered: u64,
    /// Text submissions served from the registry without a parse: the
    /// submitted bytes were the resident entry's text.
    pub text_hits: u64,
    /// Programs evicted from the LRU registry.
    pub programs_evicted: u64,
    /// Programs currently resident in the registry.
    pub programs_live: u64,
    /// By-digest submissions served from the registry.
    pub digest_hits: u64,
    /// Resubmitted requests answered from an existing job instead of
    /// executing twice.
    pub dedupe_hits: u64,
}

/// A clonable handle onto a running server's counters — hand it to a
/// metrics scrape endpoint or a shutdown summary without keeping the
/// [`NetServer`] itself borrowed.
#[derive(Clone)]
pub struct NetStatsHandle {
    shared: Arc<ServerShared>,
}

impl NetStatsHandle {
    /// The counters right now.
    pub fn snapshot(&self) -> NetServerStats {
        let reg = self.shared.programs.lock().unwrap();
        let dedupe = self.shared.dedupe.lock().unwrap();
        NetServerStats {
            programs_registered: reg.registered,
            text_hits: reg.text_hits,
            programs_evicted: reg.evictions,
            programs_live: reg.map.len() as u64,
            digest_hits: reg.digest_hits,
            dedupe_hits: dedupe.hits,
        }
    }

    /// The counters as a labeled Prometheus registry (component
    /// `sp-net`), for concatenation with the service's registry on a
    /// scrape endpoint.
    pub fn metrics(&self) -> MetricsRegistry {
        let s = self.snapshot();
        let mut reg = MetricsRegistry::new(&[("component", "sp-net")]);
        reg.counter(
            "spfc_net_programs_registered_total",
            "Program texts registered in the digest registry",
            s.programs_registered,
        );
        reg.counter(
            "spfc_net_text_hits_total",
            "Text submissions resolved from the registry without a parse",
            s.text_hits,
        );
        reg.counter(
            "spfc_net_program_evictions_total",
            "Programs evicted from the bounded registry",
            s.programs_evicted,
        );
        reg.gauge(
            "spfc_net_programs_live",
            "Programs currently resident in the registry",
            s.programs_live as f64,
        );
        reg.counter(
            "spfc_net_digest_hits_total",
            "By-digest submissions resolved from the registry",
            s.digest_hits,
        );
        reg.counter(
            "spfc_net_dedupe_hits_total",
            "Retried submissions answered from an existing job",
            s.dedupe_hits,
        );
        reg
    }
}

/// A running wire server. Dropping it stops the acceptor and joins
/// every connection thread; the wrapped [`Service`] is left running
/// (callers own its lifecycle).
pub struct NetServer {
    service: Arc<Service>,
    inner: SocketServer,
    shared: Arc<ServerShared>,
    drained: Arc<(Mutex<bool>, Condvar)>,
}

/// Digest → program registry with LRU eviction. `lru` holds digests in
/// recency order (front = coldest); it may carry stale entries for
/// digests that were re-touched, which `touch` compacts away.
struct ProgramRegistry {
    capacity: usize,
    map: HashMap<u64, SharedProgram>,
    lru: VecDeque<u64>,
    registered: u64,
    text_hits: u64,
    evictions: u64,
    digest_hits: u64,
}

impl ProgramRegistry {
    fn new(capacity: usize) -> ProgramRegistry {
        ProgramRegistry {
            capacity: capacity.max(1),
            map: HashMap::new(),
            lru: VecDeque::new(),
            registered: 0,
            text_hits: 0,
            evictions: 0,
            digest_hits: 0,
        }
    }

    /// Marks `digest` most recent. A service mostly reruns its hottest
    /// program, which already is: only a change of order walks the list.
    fn touch(&mut self, digest: u64) {
        if self.lru.back() != Some(&digest) {
            self.lru.retain(|&d| d != digest);
            self.lru.push_back(digest);
        }
    }

    /// Registers (or refreshes) a program under its digest, evicting the
    /// coldest entries past capacity.
    fn insert(&mut self, program: SharedProgram) {
        self.registered += 1;
        let digest = program.digest();
        if self.map.insert(digest, program).is_none() {
            while self.map.len() > self.capacity {
                let Some(cold) = self.lru.pop_front() else {
                    break;
                };
                if self.map.remove(&cold).is_some() {
                    self.evictions += 1;
                }
            }
        }
        self.touch(digest);
    }

    /// The entry a by-digest submission names.
    fn get(&mut self, digest: u64) -> Option<SharedProgram> {
        let program = self.map.get(&digest).cloned()?;
        self.digest_hits += 1;
        self.touch(digest);
        Some(program)
    }

    /// The entry whose text is `text`, `key` being `fnv1a64(text)` — the
    /// digest the program is registered under if `text` is canonical. The
    /// bytes decide, not the hash: an entry that merely shares the hash
    /// is left alone and the caller parses.
    fn get_text(&mut self, key: u64, text: &str) -> Option<SharedProgram> {
        let program = self.map.get(&key).filter(|p| p.text() == text).cloned()?;
        self.registered += 1;
        self.text_hits += 1;
        self.touch(key);
        Some(program)
    }
}

/// The retry-dedupe ledger: recently submitted `(tenant, request_id)`
/// keys mapped to the job they created, FIFO-capped. Tenants are the
/// outer key and their names are shared, so a lookup borrows the name
/// and a request that is not a retry (nearly all of them) allocates
/// nothing here unless it is its tenant's first.
struct DedupeMap {
    map: HashMap<Arc<str>, HashMap<u64, (JobId, u64)>>,
    /// The keys in `map`, oldest first.
    order: VecDeque<(Arc<str>, u64)>,
    hits: u64,
}

impl DedupeMap {
    fn new() -> DedupeMap {
        DedupeMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
        }
    }

    /// The existing job for a resubmission of (`tenant`, `request_id`)
    /// with the same request body, if the server still remembers it.
    fn lookup(&mut self, tenant: &str, request_id: u64, fingerprint: u64) -> Option<JobId> {
        match self.map.get(tenant)?.get(&request_id) {
            Some(&(job, fp)) if fp == fingerprint => {
                self.hits += 1;
                Some(job)
            }
            _ => None,
        }
    }

    fn record(&mut self, tenant: &str, request_id: u64, job: JobId, fingerprint: u64) {
        let name = match self.map.get_key_value(tenant) {
            Some((name, _)) => Arc::clone(name),
            None => Arc::from(tenant),
        };
        let ids = self.map.entry(Arc::clone(&name)).or_default();
        if ids.insert(request_id, (job, fingerprint)).is_none() {
            self.order.push_back((name, request_id));
            while self.order.len() > DEDUPE_CAPACITY {
                let Some((tenant, id)) = self.order.pop_front() else {
                    break;
                };
                // A tenant whose last key aged out leaves nothing behind.
                if let Some(ids) = self.map.get_mut(&tenant) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        self.map.remove(&tenant);
                    }
                }
            }
        }
    }
}

/// State shared by every connection thread.
struct ServerShared {
    service: Arc<Service>,
    programs: Mutex<ProgramRegistry>,
    dedupe: Mutex<DedupeMap>,
    drained: Arc<(Mutex<bool>, Condvar)>,
}

impl NetServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving jobs into
    /// `service` with the default [`NetServerConfig`].
    pub fn start(addr: &str, service: Arc<Service>) -> std::io::Result<NetServer> {
        NetServer::start_with(addr, service, NetServerConfig::default())
    }

    /// [`NetServer::start`] with explicit tunables.
    pub fn start_with(
        addr: &str,
        service: Arc<Service>,
        cfg: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let drained = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::new(ServerShared {
            service: Arc::clone(&service),
            programs: Mutex::new(ProgramRegistry::new(cfg.program_capacity)),
            dedupe: Mutex::new(DedupeMap::new()),
            drained: Arc::clone(&drained),
        });
        let conn_shared = Arc::clone(&shared);
        let inner = SocketServer::start(
            addr,
            "spfc-net",
            Arc::new(move |stream, stop| serve_conn(&conn_shared, stream, stop)),
        )?;
        Ok(NetServer {
            service,
            inner,
            shared,
            drained,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// The wrapped service (for stats, metrics, and drains from the
    /// hosting process).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The wire tier's own counters right now.
    pub fn stats(&self) -> NetServerStats {
        self.stats_handle().snapshot()
    }

    /// A clonable handle onto the counters that outlives this borrow
    /// (for metrics render closures).
    pub fn stats_handle(&self) -> NetStatsHandle {
        NetStatsHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until some client drains the service over the wire.
    pub fn wait_drained(&self) {
        let (flag, cv) = &*self.drained;
        let mut done = flag.lock().unwrap();
        while !*done {
            done = cv.wait(done).unwrap();
        }
    }

    /// Stops accepting, closes every connection, joins the threads.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

/// A reply the connection owes: the correlation id to echo, the job
/// whose result answers it, and the tenant for the reply frame.
struct Owed {
    request_id: u64,
    job: JobId,
    tenant: String,
}

struct ConnShared {
    /// What the reader has promised and the pump not yet written.
    owed: Mutex<Vec<Owed>>,
    /// The socket's write side; pump replies and reader rejections
    /// serialize here.
    writer: Mutex<TcpStream>,
}

impl ConnShared {
    fn write(&self, frame: &Frame) -> bool {
        write_frame(&mut *self.writer.lock().unwrap(), frame).is_ok()
    }

    /// One syscall for a whole batch of already-encoded frames.
    fn write_bytes(&self, bytes: &[u8]) -> bool {
        use std::io::Write as _;
        self.writer.lock().unwrap().write_all(bytes).is_ok()
    }

    /// Notes that `job`'s result answers `request_id`, then has the
    /// service send that result down `tx` to the pump.
    fn owe(&self, service: &Service, tx: &Sender<Completion>, owed: Owed) {
        let job = owed.job;
        self.owed.lock().unwrap().push(owed);
        service.on_done(job, tx.clone());
    }

    /// Takes the oldest request `job`'s result answers.
    fn settle(&self, job: JobId) -> Owed {
        let mut owed = self.owed.lock().unwrap();
        let pos = owed.iter().position(|o| o.job == job);
        owed.remove(pos.expect("every completion answers an owed request"))
    }
}

/// One connection: the reader runs here, the pump on its own thread.
/// A `Drain` frame is confirmed only after the service is idle and the
/// pump has written every reply this connection was owed.
fn serve_conn(shared: &Arc<ServerShared>, stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnShared {
        owed: Mutex::new(Vec::new()),
        writer: Mutex::new(writer),
    });
    let (tx, rx) = mpsc::channel();
    let pump = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        thread::Builder::new()
            .name("spfc-net-pump".into())
            .spawn(move || pump_loop(&shared, &conn, &rx))
    };
    let Ok(pump) = pump else {
        return;
    };
    // Buffer the read side: a pipelining client coalesces its burst
    // into one packet, so one syscall here can ingest many frames.
    let mut stream = std::io::BufReader::new(stream);
    let drain = read_loop(shared, &mut stream, &conn, &tx, stop);
    if drain {
        // Every job is delivered when this returns, so every reply the
        // connection is owed is in the channel.
        shared.service.drain();
    }
    drop(tx);
    let _ = pump.join();
    if drain {
        {
            let (flag, cv) = &*shared.drained;
            *flag.lock().unwrap() = true;
            cv.notify_all();
        }
        let _ = conn.write(&Frame::Drain);
    }
}

/// Reads and admits requests until the peer closes, the server stops, or
/// a frame cannot be served. True when the last frame was a `Drain`.
fn read_loop(
    shared: &Arc<ServerShared>,
    stream: &mut impl Read,
    conn: &ConnShared,
    tx: &Sender<Completion>,
    stop: &AtomicBool,
) -> bool {
    loop {
        // Phase 1: wait for a header, polling the stop flag between
        // timeouts. The decode span starts once the header is in.
        let mut raw = [0u8; HEADER_LEN];
        match read_polling(stream, &mut raw, stop, true) {
            PollRead::Done => {}
            PollRead::Closed | PollRead::Stopping | PollRead::Err => return false,
        }
        let decode_start = shared.service.since_epoch();
        let header = match FrameHeader::parse(raw) {
            Ok(h) => h,
            Err(e) => {
                // The stream is desynchronized; answer typed and close.
                reject(conn, &e);
                return false;
            }
        };
        let mut body = vec![0u8; header.payload_len as usize + 4];
        match read_polling(stream, &mut body, stop, false) {
            PollRead::Done => {}
            PollRead::Closed | PollRead::Stopping | PollRead::Err => return false,
        }
        let frame = match header.decode_body(&body) {
            Ok(f) => f,
            Err(e) => {
                reject(conn, &e);
                return false;
            }
        };
        let decode_dur = shared.service.since_epoch() - decode_start;
        match frame {
            Frame::Ping => {
                if !conn.write(&Frame::Ping) {
                    return false;
                }
            }
            Frame::Drain => return true,
            Frame::Submit(submit) => {
                if !handle_submit(shared, conn, tx, submit, (decode_start, decode_dur)) {
                    return false;
                }
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation.
            Frame::Result(_) | Frame::Error(_) => {
                let e = WireError::Malformed("unexpected server-side frame".into());
                reject(conn, &e);
                return false;
            }
        }
    }
}

/// Admits one submission and owes its reply. Returns false when the
/// connection should close (write failure on an immediate rejection).
fn handle_submit(
    shared: &ServerShared,
    conn: &ConnShared,
    tx: &Sender<Completion>,
    submit: SubmitJob,
    decode: (u64, u64),
) -> bool {
    let program_key = registry_key(&submit.program);
    // A retried request (same tenant + nonzero id + same body) attaches
    // to the job the earlier attempt created instead of running twice.
    let fingerprint = request_fingerprint(&submit, program_key);
    let SubmitJob {
        request_id,
        tenant,
        name,
        program,
        plan,
        backend,
        schedule,
        steps,
        seed,
        deadline_nanos,
    } = submit;
    if request_id != 0 {
        let existing = shared
            .dedupe
            .lock()
            .unwrap()
            .lookup(&tenant, request_id, fingerprint);
        if let Some(job) = existing {
            let owed = Owed {
                request_id,
                job,
                tenant,
            };
            conn.owe(&shared.service, tx, owed);
            return true;
        }
    }
    let seq = match resolve_program(&shared.programs, &program, program_key) {
        Ok(seq) => seq,
        Err(mut err) => {
            err.request_id = request_id;
            err.tenant = tenant;
            return conn.write(&Frame::Error(err));
        }
    };
    let mut spec = JobSpec::new(name, seq, plan)
        .client(&tenant)
        .backend(backend)
        .schedule(schedule)
        .steps(steps as usize)
        .seed(seed);
    if deadline_nanos > 0 {
        spec = spec.deadline(Duration::from_nanos(deadline_nanos));
    }
    let id = match shared.service.submit_wire(spec, decode) {
        Ok(id) => id,
        Err(e) => {
            return conn.write(&Frame::Error(ErrorFrame {
                request_id,
                code: e.code(),
                job: 0,
                tenant,
                message: e.to_string(),
            }));
        }
    };
    if request_id != 0 {
        shared
            .dedupe
            .lock()
            .unwrap()
            .record(&tenant, request_id, id, fingerprint);
    }
    let owed = Owed {
        request_id,
        job: id,
        tenant,
    };
    conn.owe(&shared.service, tx, owed);
    true
}

/// What a submission names its program by in the registry: the digest it
/// carries, or the hash of the text it carries — which is the program's
/// digest when that text is canonical.
fn registry_key(program: &ProgramRef) -> u64 {
    match program {
        ProgramRef::Text(text) => fnv1a64(text.as_bytes()),
        ProgramRef::Digest(d) => *d,
    }
}

/// The identity of a request's *work*, streamed field by field into the
/// hash: name, program (whether it came as text or as a digest, and
/// `program_key`, the digest or the text's hash), plan, backend,
/// schedule, steps and seed. The tenant and the request id are the
/// ledger's key, not part of the body; the deadline is left out because
/// a retry re-encodes the remaining budget, which must not defeat dedupe.
fn request_fingerprint(submit: &SubmitJob, program_key: u64) -> u64 {
    // Every field is named, so that a new one has to be placed here.
    let SubmitJob {
        request_id: _,
        tenant: _,
        name,
        program,
        plan,
        backend,
        schedule,
        steps,
        seed,
        deadline_nanos: _,
    } = submit;
    let mut h = Fnv1a64::new();
    let mut word = |w: u64| h.write(&w.to_le_bytes());
    word(match program {
        ProgramRef::Text(_) => 0,
        ProgramRef::Digest(_) => 1,
    });
    word(program_key);
    let (kind, method, strip) = match plan {
        ExecPlan::Serial => (0, 0, 0),
        ExecPlan::Blocked { .. } => (1, 0, 0),
        ExecPlan::Fused { method, strip, .. } => (2, *method as u64, *strip as u64),
    };
    word(kind);
    word(plan.grid().len() as u64);
    plan.grid().iter().for_each(|&d| word(d as u64));
    word(method);
    word(strip);
    word(*backend as u64);
    word(*schedule as u64);
    word(*steps);
    word(*seed);
    // Last, so that its length needs no prefix.
    h.write(name.as_bytes());
    h.finish()
}

/// The completion pump: writes each reply as its job's result arrives,
/// with every other result already waiting in the same write. Exits when
/// the reader and every owed delivery have dropped their senders, or
/// when the peer is gone.
fn pump_loop(shared: &ServerShared, conn: &ConnShared, rx: &Receiver<Completion>) {
    while let Ok(first) = rx.recv() {
        let t0 = shared.service.since_epoch();
        let mut batch = Vec::new();
        let mut replied = Vec::new();
        for (job, result) in std::iter::once(first).chain(rx.try_iter()) {
            let Owed {
                request_id, tenant, ..
            } = conn.settle(job);
            let reply = match result {
                Ok(res) => Frame::Result(ResultFrame {
                    request_id,
                    job: res.id.0,
                    name: res.name,
                    tenant,
                    cache: res.cache,
                    digest: res.digest,
                    queued_nanos: res.queued_nanos,
                    run_nanos: res.run_nanos,
                    order: res.order,
                    report_json: res.report.to_json(),
                }),
                Err(e) => Frame::Error(ErrorFrame {
                    request_id,
                    code: e.code(),
                    job: job.0,
                    tenant,
                    message: e.to_string(),
                }),
            };
            batch.extend_from_slice(&encode_frame(&reply));
            replied.push(job);
        }
        // respond_wire: result encoding + the write back onto the socket.
        let ok = conn.write_bytes(&batch);
        let dur = shared.service.since_epoch() - t0;
        for job in &replied {
            shared
                .service
                .record_wire_stage(*job, JobStage::RespondWire, t0, dur);
        }
        if !ok {
            // The peer is gone; later results have nowhere to go and
            // the reader notices the close.
            return;
        }
    }
}

/// A digest looks the program up. So does a text, by its hash `key`:
/// when the registry holds those very bytes the entry is the program and
/// nothing is parsed; any other text is parsed, rendered once (by
/// [`SharedProgram::from`]) and registered under its canonical digest.
fn resolve_program(
    programs: &Mutex<ProgramRegistry>,
    program: &ProgramRef,
    key: u64,
) -> Result<SharedProgram, ErrorFrame> {
    match program {
        ProgramRef::Text(text) => {
            if let Some(known) = programs.lock().unwrap().get_text(key, text) {
                return Ok(known);
            }
            let seq = parse_sequence(text).map_err(|e| ErrorFrame {
                request_id: 0,
                code: CODE_MALFORMED,
                job: 0,
                tenant: String::new(),
                message: format!("program parse error: {e}"),
            })?;
            let program = SharedProgram::from(seq);
            programs.lock().unwrap().insert(program.clone());
            Ok(program)
        }
        ProgramRef::Digest(d) => programs.lock().unwrap().get(*d).ok_or_else(|| ErrorFrame {
            request_id: 0,
            code: CODE_UNKNOWN_PROGRAM,
            job: 0,
            tenant: String::new(),
            message: format!("unknown program digest {d:#018x}; submit the text once first"),
        }),
    }
}

fn reject(conn: &ConnShared, e: &WireError) {
    let _ = conn.write(&Frame::Error(ErrorFrame {
        request_id: 0,
        code: CODE_MALFORMED,
        job: 0,
        tenant: String::new(),
        message: e.to_string(),
    }));
}

enum PollRead {
    Done,
    Closed,
    Stopping,
    Err,
}

/// Fills `buf` from `stream`, polling `stop` on read timeouts. When
/// `at_boundary`, a clean close before the first byte is `Closed` (the
/// peer just hung up between frames); mid-buffer EOF is `Err`.
fn read_polling(
    stream: &mut impl Read,
    buf: &mut [u8],
    stop: &AtomicBool,
    at_boundary: bool,
) -> PollRead {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && at_boundary => return PollRead::Closed,
            Ok(0) => return PollRead::Err,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return PollRead::Stopping;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return PollRead::Err,
        }
    }
    PollRead::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_peel_core::CodegenMethod;
    use sp_exec::{Backend, Schedule};

    fn program(n: usize) -> SharedProgram {
        use sp_ir::SeqBuilder;
        let mut b = SeqBuilder::new(format!("p{n}"));
        let a = b.array("a", [n]);
        let c = b.array("c", [n]);
        b.nest("L1", [(1, n as i64 - 2)], |x| {
            let r = x.ld(a, [1]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        b.finish().into()
    }

    #[test]
    fn program_registry_evicts_in_lru_order() {
        let mut reg = ProgramRegistry::new(2);
        let (p1, p2, p3) = (program(8), program(9), program(10));
        reg.insert(p1.clone());
        reg.insert(p2.clone());
        assert!(reg.get(p1.digest()).is_some(), "touch 1 so 2 is coldest");
        reg.insert(p3.clone());
        assert_eq!(reg.evictions, 1);
        assert!(reg.get(p2.digest()).is_none(), "2 was coldest");
        assert!(reg.get(p1.digest()).is_some() && reg.get(p3.digest()).is_some());
        // Touching the most recent entry again changes nothing: 1 is
        // still the coldest and is the one evicted next.
        assert!(reg.get(p3.digest()).is_some());
        assert_eq!(reg.lru, [p1.digest(), p3.digest()]);
        // Re-registering an evicted program is transparent.
        reg.insert(p2.clone());
        assert_eq!(reg.evictions, 2);
        assert!(reg.get(p1.digest()).is_none(), "1 was coldest");
        assert!(reg.get(p2.digest()).is_some());
        assert_eq!(reg.registered, 4);
        // A hit hands out the registered object, not a copy of it.
        assert!(SharedProgram::ptr_eq(&reg.get(p2.digest()).unwrap(), &p2));
    }

    /// The by-text rule: the submitted bytes decide, never the hash. An
    /// entry filed under `fnv1a64(text_b)` that holds program A (what a
    /// hash collision would look like) is not served for `text_b`: B is
    /// parsed, and takes the slot under its own digest.
    #[test]
    fn a_text_is_served_from_the_registry_only_when_its_bytes_are_there() {
        let (a, b) = (program(8), program(9));
        let text_b = ProgramRef::Text(b.text().to_string());
        let key_b = fnv1a64(b.text().as_bytes());
        assert_eq!(key_b, b.digest(), "canonical text hashes to the digest");

        let programs = Mutex::new(ProgramRegistry::new(4));
        programs.lock().unwrap().map.insert(key_b, a.clone());
        let got = resolve_program(&programs, &text_b, key_b).expect("B parses");
        assert_eq!(got.text(), b.text(), "the impostor entry was not served");
        assert_eq!(got.digest(), b.digest());
        {
            let reg = programs.lock().unwrap();
            assert_eq!((reg.registered, reg.text_hits), (1, 0), "parsed");
        }
        // Now the registry holds those very bytes: no parse, same object.
        let again = resolve_program(&programs, &text_b, key_b).expect("B is resident");
        assert!(SharedProgram::ptr_eq(&again, &got));
        let reg = programs.lock().unwrap();
        assert_eq!((reg.registered, reg.text_hits), (2, 1));
        assert_eq!(reg.digest_hits, 0, "a text hit is not a digest hit");
    }

    #[test]
    fn dedupe_map_matches_only_same_tenant_id_and_body() {
        let mut d = DedupeMap::new();
        d.record("a", 7, JobId(1), 0xAB);
        assert_eq!(d.lookup("a", 7, 0xAB), Some(JobId(1)));
        assert_eq!(d.lookup("a", 7, 0xCD), None, "different body");
        assert_eq!(d.lookup("b", 7, 0xAB), None, "different tenant");
        assert_eq!(d.lookup("a", 8, 0xAB), None, "different id");
        assert_eq!(d.hits, 1);
    }

    /// The ledger stays bounded, oldest key first, and a tenant whose
    /// keys have all aged out leaves no entry behind.
    #[test]
    fn dedupe_map_forgets_the_oldest_keys_and_their_tenants() {
        let mut d = DedupeMap::new();
        d.record("early", 1, JobId(1), 0xAB);
        for id in 0..DEDUPE_CAPACITY as u64 {
            d.record("late", id, JobId(id), id);
        }
        assert_eq!(d.order.len(), DEDUPE_CAPACITY);
        assert_eq!(d.lookup("early", 1, 0xAB), None, "aged out");
        assert!(!d.map.contains_key("early"));
        assert_eq!(d.lookup("late", 0, 0), Some(JobId(0)));
        // Recording a key again overwrites it without a second slot.
        d.record("late", 0, JobId(9), 0);
        assert_eq!(d.order.len(), DEDUPE_CAPACITY);
        assert_eq!(d.lookup("late", 0, 0), Some(JobId(9)));
    }

    /// What the fingerprint covers: every field that says what work the
    /// request is, and not the deadline.
    #[test]
    fn fingerprint_covers_the_work_and_not_the_deadline() {
        let base = SubmitJob {
            request_id: 42,
            tenant: "t".into(),
            name: "job".into(),
            program: ProgramRef::Digest(7),
            plan: ExecPlan::Fused {
                grid: vec![2, 2],
                method: CodegenMethod::StripMined,
                strip: 8,
            },
            backend: Backend::Compiled,
            schedule: Schedule::Static,
            steps: 3,
            seed: 5,
            deadline_nanos: 0,
        };
        let fp = |s: &SubmitJob| request_fingerprint(s, registry_key(&s.program));
        let want = fp(&base);
        let hurried = SubmitJob {
            deadline_nanos: 1_000_000,
            ..base.clone()
        };
        assert_eq!(
            fp(&hurried),
            want,
            "a retry re-encodes the remaining budget"
        );
        let fused = |grid: &[usize], method, strip| ExecPlan::Fused {
            grid: grid.to_vec(),
            method,
            strip,
        };
        let with_plan = |plan| SubmitJob {
            plan,
            ..base.clone()
        };
        let b = || base.clone();
        let changed = [
            (
                "name",
                SubmitJob {
                    name: "job2".into(),
                    ..b()
                },
            ),
            (
                "program",
                SubmitJob {
                    program: ProgramRef::Digest(8),
                    ..b()
                },
            ),
            (
                "grid",
                with_plan(fused(&[2, 4], CodegenMethod::StripMined, 8)),
            ),
            (
                "grid rank",
                with_plan(fused(&[2], CodegenMethod::StripMined, 8)),
            ),
            (
                "method",
                with_plan(fused(&[2, 2], CodegenMethod::Direct, 8)),
            ),
            (
                "strip",
                with_plan(fused(&[2, 2], CodegenMethod::StripMined, 16)),
            ),
            (
                "plan kind",
                with_plan(ExecPlan::Blocked { grid: vec![2, 2] }),
            ),
            ("serial", with_plan(ExecPlan::Serial)),
            (
                "backend",
                SubmitJob {
                    backend: Backend::Simd,
                    ..b()
                },
            ),
            (
                "schedule",
                SubmitJob {
                    schedule: Schedule::Stealing,
                    ..b()
                },
            ),
            ("steps", SubmitJob { steps: 4, ..b() }),
            ("seed", SubmitJob { seed: 6, ..b() }),
        ];
        let mut seen = vec![want];
        for (what, submit) in &changed {
            let got = fp(submit);
            assert!(!seen.contains(&got), "changing the {what} must not dedupe");
            seen.push(got);
        }
        // The same key arriving as a text is a different request.
        let text = SubmitJob {
            program: ProgramRef::Text("x".into()),
            ..base.clone()
        };
        assert_ne!(
            request_fingerprint(&text, 7),
            request_fingerprint(&base, 7),
            "a text and a digest with one key are different requests"
        );
    }
}
