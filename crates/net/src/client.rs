//! The blocking wire client: connect/submit timeouts, bounded
//! exponential-backoff retries, deadline propagation, and windowed
//! pipelining — one request engine for all of it.
//!
//! One [`Client`] owns one connection and one engine, which keeps up to
//! `window` requests in flight on it and correlates out-of-order replies
//! by the frame's `request_id`. [`Client::submit_pipelined`] runs a batch
//! through it; [`Client::submit`] and [`Client::submit_by_digest`] are a
//! window of one (concurrency = more clients). Transient failures —
//! transport errors and the server's back-off codes
//! ([`ServeError::is_transient_code`]) — are retried up to
//! [`ClientConfig::retries`] times with exponential backoff; everything
//! else surfaces immediately as a typed [`NetError`].
//!
//! Request ids start from a per-client randomized base (so two clients
//! sharing a tenant do not collide) and are **reused across retries**
//! of the same logical request: if a transport failure hides whether
//! the server accepted a submission, the resend carries the same id and
//! the server answers from the job it already has instead of running
//! the work twice.
//!
//! Deadline propagation: [`JobSpec::deadline`](sp_serve::JobSpec) is a
//! budget for the *whole* round trip, started when the call is made.
//! Each request is encoded once; before every send only its deadline is
//! rewritten, to the remaining budget, so time burned on retries,
//! connection setup, the window and the server's queue all count
//! against the same clock. Every backoff gate, per request or per
//! connection, is clamped to the remaining budget, and a budget that
//! runs out client-side fails with [`NetError::DeadlineExhausted`]
//! at its deadline, without bothering the server.
//!
//! Text fallback: a batch interns its programs (text the first time,
//! the digest after). If the server has evicted an interned program, the
//! request is resent with its text under the same id. A digest the
//! caller asked for ([`Client::submit_by_digest`]) never falls back.

use crate::wire::{
    encode_frame, read_frame, set_submit_deadline, write_frame, Frame, ProgramRef, ReadError,
    ResultFrame, SubmitJob, WireError, CODE_UNKNOWN_PROGRAM,
};
use sp_exec::RunReport;
use sp_serve::{CacheOutcome, JobSpec, ServeError};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure modes.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, or write) after all retries.
    Io(String),
    /// The server's bytes were not a valid frame.
    Wire(WireError),
    /// The server answered with a typed error.
    Serve {
        /// Stable error code ([`ServeError::code`] or a net-level
        /// `CODE_*`).
        ///
        /// [`ServeError::code`]: sp_serve::ServeError::code
        code: u16,
        /// The job the error concerns (0 = none was created).
        job: u64,
        /// The offending tenant.
        tenant: String,
        /// Human-readable detail.
        message: String,
    },
    /// The deadline budget ran out client-side (before or between
    /// attempts).
    DeadlineExhausted,
    /// Transient *transport* failures outlasted the retry budget.
    /// (Server-side transient rejections — queue full, over quota —
    /// surface as [`NetError::Serve`] with their typed code once
    /// retries run out, so callers can still tell them apart.)
    RetriesExhausted {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The final rejection.
        last: String,
    },
    /// The server closed the connection without answering.
    Closed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(m) => write!(f, "transport error: {m}"),
            NetError::Wire(e) => write!(f, "protocol error: {e}"),
            NetError::Serve {
                code,
                job,
                tenant,
                message,
            } => write!(
                f,
                "server error [code {code}, job {job}, tenant {tenant}]: {message}"
            ),
            NetError::DeadlineExhausted => write!(f, "deadline budget exhausted client-side"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            NetError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {}

/// Connection and retry policy.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Tenant id sent with every submission (the fair-share bucket and
    /// quota key on the server).
    pub tenant: String,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-frame read/write timeout. Generous: a submit blocks for the
    /// whole job.
    pub io_timeout: Duration,
    /// Extra attempts after the first, for transient errors only.
    pub retries: u32,
    /// First backoff; doubles per retry, capped at 1 s, and always
    /// clamped to the request's remaining deadline budget.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            tenant: "default".into(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
            retries: 4,
            backoff: Duration::from_millis(20),
        }
    }
}

impl ClientConfig {
    /// Sets the tenant id.
    pub fn tenant(mut self, t: impl Into<String>) -> Self {
        self.tenant = t.into();
        self
    }

    /// Sets the retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Sets the base backoff.
    pub fn backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }

    /// Sets the per-frame io timeout.
    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.io_timeout = d;
        self
    }
}

/// A successful round trip: the server-side identifiers plus the full
/// [`RunReport`], decoded.
#[derive(Clone, Debug)]
pub struct NetJobResult {
    /// Server-side job id.
    pub job: u64,
    /// Job name, echoed.
    pub name: String,
    /// Tenant, echoed.
    pub tenant: String,
    /// Which cache tier served the compilation.
    pub cache: CacheOutcome,
    /// `sp_serve::service::snapshot_digest` of the final arrays.
    pub digest: u64,
    /// Queue wait on the server.
    pub queued_nanos: u64,
    /// Wall time of the run on the server.
    pub run_nanos: u64,
    /// 1-based completion order across the service.
    pub order: u64,
    /// The run's full instrumentation.
    pub report: RunReport,
}

/// A blocking wire client over one connection.
pub struct Client {
    /// Every address the server name resolved to; reconnects walk the
    /// list starting from the last one that worked.
    addrs: Vec<SocketAddr>,
    preferred: usize,
    cfg: ClientConfig,
    conn: Option<Conn>,
    next_request_id: u64,
}

/// One live connection: the raw write half plus a buffered read half,
/// so a coalesced batch of replies costs one read syscall.
struct Conn {
    w: TcpStream,
    r: std::io::BufReader<TcpStream>,
}

/// A per-client randomized request-id base, so two clients sharing a
/// tenant land in disjoint id ranges with overwhelming probability
/// (the server's dedupe ledger keys on `(tenant, request_id)`).
fn seed_request_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    let stack_entropy = &nanos as *const u64 as u64;
    sp_exec::splitmix64(&mut (nanos ^ stack_entropy.rotate_left(32)))
}

impl Client {
    /// Resolves `addr` and connects eagerly (so configuration errors
    /// surface here, not on first submit). Every resolved address is
    /// tried in order before failing — an IPv6-first resolution does
    /// not break an IPv4-only listener.
    pub fn connect(addr: &str, cfg: ClientConfig) -> Result<Client, NetError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| NetError::Io(format!("cannot resolve {addr}: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(NetError::Io(format!("{addr} resolves to nothing")));
        }
        let mut client = Client {
            addrs,
            preferred: 0,
            cfg,
            conn: None,
            next_request_id: seed_request_id(),
        };
        client.ensure_conn().map_err(NetError::Io)?;
        Ok(client)
    }

    /// The server address in use (the last resolved address that
    /// accepted a connection).
    pub fn addr(&self) -> SocketAddr {
        self.addrs[self.preferred]
    }

    fn next_request_id(&mut self) -> u64 {
        self.next_request_id = self.next_request_id.wrapping_add(1);
        // 0 means "unpipelined" on the wire; skip it.
        if self.next_request_id == 0 {
            self.next_request_id = 1;
        }
        self.next_request_id
    }

    /// The live connection, or a new one; `Err` says why none could be
    /// made.
    fn ensure_conn(&mut self) -> Result<&mut Conn, String> {
        if self.conn.is_none() {
            let mut failures = Vec::new();
            for off in 0..self.addrs.len() {
                let i = (self.preferred + off) % self.addrs.len();
                match TcpStream::connect_timeout(&self.addrs[i], self.cfg.connect_timeout) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
                        let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
                        let Ok(read_half) = stream.try_clone() else {
                            failures.push(format!("{}: cannot clone stream", self.addrs[i]));
                            continue;
                        };
                        self.preferred = i;
                        self.conn = Some(Conn {
                            w: stream,
                            r: std::io::BufReader::new(read_half),
                        });
                        break;
                    }
                    Err(e) => failures.push(format!("{}: {e}", self.addrs[i])),
                }
            }
            if self.conn.is_none() {
                return Err(format!(
                    "connect failed on every resolved address: {}",
                    failures.join("; ")
                ));
            }
        }
        Ok(self.conn.as_mut().unwrap())
    }

    /// One control-frame exchange (ping, drain). Io failures poison the
    /// connection so the next call reconnects.
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        let conn = self.ensure_conn().map_err(NetError::Io)?;
        if let Err(e) = write_frame(&mut conn.w, frame) {
            self.conn = None;
            return Err(NetError::Io(format!("write: {e}")));
        }
        match read_frame(&mut conn.r) {
            Ok(f) => Ok(f),
            Err(ReadError::Closed) => {
                self.conn = None;
                Err(NetError::Closed)
            }
            Err(ReadError::Io(e)) => {
                self.conn = None;
                Err(NetError::Io(format!("read: {e}")))
            }
            Err(ReadError::Wire(e)) => {
                // Desynchronized; never reuse the stream.
                self.conn = None;
                Err(NetError::Wire(e))
            }
        }
    }

    /// Submits `spec`'s program by full text under this client's
    /// tenant, with retries and deadline propagation: the engine behind
    /// [`Client::submit_pipelined`] with one spec and a window of one.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<NetJobResult, NetError> {
        self.submit_one(spec, false)
    }

    /// Submits by content digest alone — valid once the server has seen
    /// the text (a prior [`Client::submit`] from any connection). A
    /// digest the server does not know is
    /// `NetError::Serve { code: CODE_UNKNOWN_PROGRAM, .. }`: the text is
    /// never sent in its place.
    pub fn submit_by_digest(&mut self, spec: &JobSpec) -> Result<NetJobResult, NetError> {
        self.submit_one(spec, true)
    }

    fn submit_one(&mut self, spec: &JobSpec, by_digest: bool) -> Result<NetJobResult, NetError> {
        let mut outcome = self.run_window(std::slice::from_ref(spec), 1, by_digest);
        outcome.pop().unwrap_or(Err(NetError::Closed))
    }

    /// The encoded `Submit` frame for `spec`, naming its program by the
    /// digest or by the text the spec holds (nothing is rendered).
    fn encode_request(&self, spec: &JobSpec, request_id: u64, by_digest: bool) -> Vec<u8> {
        encode_frame(&Frame::Submit(SubmitJob {
            request_id,
            tenant: self.cfg.tenant.clone(),
            name: spec.name.clone(),
            program: if by_digest {
                ProgramRef::Digest(spec.seq.digest())
            } else {
                ProgramRef::Text(spec.seq.text().to_string())
            },
            plan: spec.plan.clone(),
            backend: spec.backend,
            schedule: spec.schedule,
            steps: spec.steps as u64,
            seed: spec.seed,
            deadline_nanos: spec.deadline.map_or(0, nanos),
        }))
    }

    /// Submits every spec with up to `window` requests in flight on
    /// this one connection, correlating out-of-order replies by request
    /// id. Returns one outcome per spec, in spec order.
    ///
    /// Programs are **interned** per call: the first submission of each
    /// distinct program sends the text, every repeat sends only its
    /// digest and falls back to the text if the server has evicted it.
    /// Submission frames are **coalesced** into one socket write per
    /// burst.
    ///
    /// Each request keeps its own deadline budget, from the start of the
    /// call, and its own retry budget. A transient server rejection backs
    /// off per request; a transport failure poisons the connection and
    /// resends every lost request **with its original id** on the
    /// reconnect, behind one backoff for the whole window, so the server
    /// can answer from work it already ran. Every backoff is clamped to
    /// the request's remaining budget. A protocol-level desync fails
    /// every unfinished request — the stream cannot be trusted after it.
    pub fn submit_pipelined(
        &mut self,
        specs: &[JobSpec],
        window: usize,
    ) -> Vec<Result<NetJobResult, NetError>> {
        self.run_window(specs, window, false)
    }

    /// The client's one request engine. With `by_digest`, every request
    /// names its program by digest and an unknown digest is the caller's
    /// error; without, programs are interned as
    /// [`Client::submit_pipelined`] describes.
    fn run_window(&mut self, specs: &[JobSpec], window: usize, by_digest: bool) -> Vec<Outcome> {
        let window = window.max(1);
        let started = Instant::now();
        let attempts = 1 + self.cfg.retries;
        let mut results: Vec<Option<Outcome>> = specs.iter().map(|_| None).collect();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut queue: VecDeque<PendingReq> = specs
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let interned = !by_digest && !seen.insert(spec.seq.digest());
                // One id for the whole logical request: a resend after a
                // transport failure carries it, so a server that already
                // accepted the first copy dedupes instead of running twice.
                let request_id = self.next_request_id();
                PendingReq {
                    idx,
                    request_id,
                    frame: self.encode_request(spec, request_id, by_digest || interned),
                    interned,
                    // 0 on the wire is "no deadline", and so is one no
                    // `Instant` can hold.
                    deadline: spec
                        .deadline
                        .filter(|d| !d.is_zero())
                        .and_then(|d| started.checked_add(d)),
                    attempts_left: attempts,
                    backoff: self.cfg.backoff,
                    ready_at: None,
                    last: None,
                }
            })
            .collect();
        let mut inflight: Vec<PendingReq> = Vec::new();
        // Transport backoff, shared by the whole window (one dead server
        // should not be hammered `window` times faster).
        let mut conn_backoff = self.cfg.backoff;
        let mut burst = Vec::new();

        loop {
            // A budget that is gone fails fast, before any gate is asked
            // whether it is open: 0 on the wire would mean "no deadline".
            let now = Instant::now();
            queue.retain(|p| {
                let expired = p.deadline.is_some_and(|d| d <= now);
                if expired {
                    results[p.idx] = Some(Err(NetError::DeadlineExhausted));
                }
                !expired
            });
            // Fill the window with every request that is ready to send,
            // each carrying its remaining budget, in one socket write.
            burst.clear();
            while inflight.len() < window {
                let Some(pos) = queue
                    .iter()
                    .position(|p| p.ready_at.is_none_or(|t| t <= now))
                else {
                    break;
                };
                let mut p = queue.remove(pos).expect("a queued request");
                p.attempts_left -= 1;
                if let Some(deadline) = p.deadline {
                    set_submit_deadline(&mut p.frame, nanos(deadline - now));
                }
                burst.extend_from_slice(&p.frame);
                inflight.push(p);
            }
            if !burst.is_empty() {
                let written = self
                    .ensure_conn()
                    .and_then(|conn| conn.w.write_all(&burst).map_err(|e| format!("write: {e}")));
                if let Err(m) = written {
                    let lost = || NetError::Io(m.clone());
                    self.lose_connection(
                        &mut conn_backoff,
                        &mut inflight,
                        &mut queue,
                        &mut results,
                        lost,
                    );
                }
            }

            if inflight.is_empty() {
                if queue.is_empty() {
                    break;
                }
                // Everything left waits behind a gate that opens no later
                // than its request's deadline: sleep to the first.
                let wake = queue.iter().filter_map(|p| p.ready_at).min().unwrap_or(now);
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                continue;
            }

            // One blocking read; replies may answer any in-flight id.
            let read = match self.conn.as_mut() {
                Some(conn) => read_frame(&mut conn.r),
                None => Err(ReadError::Closed),
            };
            match read {
                Ok(Frame::Result(r)) => {
                    conn_backoff = self.cfg.backoff;
                    let Some(p) = take(&mut inflight, r.request_id) else {
                        let detail =
                            format!("reply correlates to unknown request {}", r.request_id);
                        self.fail_batch(&mut results, inflight, queue, || malformed(&detail));
                        break;
                    };
                    results[p.idx] = Some(decode_result(r));
                }
                Ok(Frame::Error(e)) => {
                    conn_backoff = self.cfg.backoff;
                    let err = || NetError::Serve {
                        code: e.code,
                        job: e.job,
                        tenant: e.tenant.clone(),
                        message: e.message.clone(),
                    };
                    if e.request_id == 0 {
                        // A connection-scoped rejection (the server is
                        // about to close); no request of ours can be
                        // answered on this stream anymore.
                        self.fail_batch(&mut results, inflight, queue, err);
                        break;
                    }
                    let Some(mut p) = take(&mut inflight, e.request_id) else {
                        let detail =
                            format!("error correlates to unknown request {}", e.request_id);
                        self.fail_batch(&mut results, inflight, queue, || malformed(&detail));
                        break;
                    };
                    if e.code == CODE_UNKNOWN_PROGRAM && p.interned {
                        // The server evicted a program this call interned:
                        // resend the text under the same id. Not a failure
                        // of the request, so the attempt is returned.
                        p.frame = self.encode_request(&specs[p.idx], p.request_id, false);
                        p.interned = false;
                        p.attempts_left += 1;
                        queue.push_back(p);
                    } else if ServeError::is_transient_code(e.code) {
                        p.last = Some(err());
                        let gate = Instant::now() + p.backoff;
                        p.backoff = (p.backoff * 2).min(MAX_BACKOFF);
                        p.retry(gate, attempts, &mut queue, &mut results);
                    } else {
                        results[p.idx] = Some(Err(err()));
                    }
                }
                Ok(other) => {
                    let detail = format!("unexpected reply frame type {}", other.frame_type());
                    self.fail_batch(&mut results, inflight, queue, || malformed(&detail));
                    break;
                }
                Err(e @ (ReadError::Closed | ReadError::Io(_))) => {
                    let lost = || match &e {
                        ReadError::Io(e) => NetError::Io(format!("read: {e}")),
                        _ => NetError::Closed,
                    };
                    self.lose_connection(
                        &mut conn_backoff,
                        &mut inflight,
                        &mut queue,
                        &mut results,
                        lost,
                    );
                }
                Err(ReadError::Wire(e)) => {
                    self.fail_batch(&mut results, inflight, queue, || NetError::Wire(e.clone()));
                    break;
                }
            }
        }

        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(NetError::Closed)))
            .collect()
    }

    /// A transport failure: every reply owed on this stream is lost.
    /// Each lost request is resent, same id, on a new connection behind
    /// the one connection backoff — or finished if its attempts are spent.
    fn lose_connection(
        &mut self,
        conn_backoff: &mut Duration,
        inflight: &mut Vec<PendingReq>,
        queue: &mut VecDeque<PendingReq>,
        results: &mut [Option<Outcome>],
        err: impl Fn() -> NetError,
    ) {
        self.conn = None;
        let gate = Instant::now() + *conn_backoff;
        *conn_backoff = (*conn_backoff * 2).min(MAX_BACKOFF);
        for mut p in inflight.drain(..) {
            p.last = Some(err());
            p.retry(gate, 1 + self.cfg.retries, queue, results);
        }
    }

    /// Fails every unfinished request with `err()` and drops the
    /// connection: after a desync or a connection-scoped rejection,
    /// nothing else can complete on it.
    fn fail_batch(
        &mut self,
        results: &mut [Option<Outcome>],
        inflight: Vec<PendingReq>,
        queue: VecDeque<PendingReq>,
        err: impl Fn() -> NetError,
    ) {
        self.conn = None;
        for p in inflight.into_iter().chain(queue) {
            results[p.idx] = Some(Err(err()));
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<Duration, NetError> {
        let t0 = Instant::now();
        match self.exchange(&Frame::Ping)? {
            Frame::Ping => Ok(t0.elapsed()),
            f => Err(malformed(&format!(
                "unexpected reply frame type {}",
                f.frame_type()
            ))),
        }
    }

    /// Drains the server over the wire: returns once every job admitted
    /// before the drain has completed and the server confirmed.
    pub fn drain(&mut self) -> Result<(), NetError> {
        match self.exchange(&Frame::Drain)? {
            Frame::Drain => Ok(()),
            f => Err(malformed(&format!(
                "unexpected reply frame type {}",
                f.frame_type()
            ))),
        }
    }
}

/// What one request ends with.
type Outcome = Result<NetJobResult, NetError>;

/// Backoffs double up to this.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// One request's bookkeeping from its first send to its outcome.
struct PendingReq {
    /// Index of its spec and of its outcome.
    idx: usize,
    request_id: u64,
    /// The encoded `Submit` frame; only its deadline is rewritten before
    /// each send.
    frame: Vec<u8>,
    /// The frame names by digest a program this call interned, so an
    /// unknown-program reply is answered by resending the text.
    interned: bool,
    /// When the caller's budget runs out.
    deadline: Option<Instant>,
    attempts_left: u32,
    /// This request's own backoff, for transient server rejections.
    backoff: Duration,
    /// Gate before the next send, never past `deadline`.
    ready_at: Option<Instant>,
    /// Why the last attempt failed.
    last: Option<NetError>,
}

impl PendingReq {
    /// Queues the request again behind `gate`, clamped to its deadline,
    /// or finishes it if its attempts are spent.
    fn retry(
        mut self,
        gate: Instant,
        attempts: u32,
        queue: &mut VecDeque<PendingReq>,
        results: &mut [Option<Outcome>],
    ) {
        if self.attempts_left == 0 {
            let idx = self.idx;
            results[idx] = Some(Err(self.exhausted(attempts)));
        } else {
            self.ready_at = Some(self.deadline.map_or(gate, |d| gate.min(d)));
            queue.push_back(self);
        }
    }

    /// The terminal error once the retry budget is gone: typed server
    /// rejections stay typed; only transport churn collapses into the
    /// retries-exhausted summary.
    fn exhausted(self, attempts: u32) -> NetError {
        match self.last {
            Some(e @ NetError::Serve { .. }) => e,
            Some(e) => NetError::RetriesExhausted {
                attempts,
                last: e.to_string(),
            },
            None => NetError::RetriesExhausted {
                attempts,
                last: "no attempt was made".into(),
            },
        }
    }
}

/// Removes and returns the in-flight request with `id`.
fn take(inflight: &mut Vec<PendingReq>, id: u64) -> Option<PendingReq> {
    let pos = inflight.iter().position(|p| p.request_id == id)?;
    Some(inflight.swap_remove(pos))
}

fn malformed(detail: &str) -> NetError {
    NetError::Wire(WireError::Malformed(detail.into()))
}

/// A budget as the wire carries it.
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn decode_result(r: ResultFrame) -> Outcome {
    let report = RunReport::from_json(&r.report_json)
        .map_err(|e| malformed(&format!("bad report json: {e}")))?;
    Ok(NetJobResult {
        job: r.job,
        name: r.name,
        tenant: r.tenant,
        cache: r.cache,
        digest: r.digest,
        queued_nanos: r.queued_nanos,
        run_nanos: r.run_nanos,
        order: r.order,
        report,
    })
}
