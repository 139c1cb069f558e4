//! The SPFC wire format: length-prefixed, CRC-checked binary frames.
//!
//! Every frame is `header | payload | crc32`:
//!
//! ```text
//!  offset  size  field
//!  0       4     magic  "SPFC"
//!  4       2     protocol version (little-endian, currently 3)
//!  6       1     frame type (1 SubmitJob, 2 JobResult, 3 Error,
//!                            4 Drain, 5 Ping)
//!  7       1     reserved (must be 0)
//!  8       4     payload length (little-endian, <= 8 MiB)
//!  12      n     payload
//!  12+n    4     CRC-32 (IEEE) over header + payload, little-endian
//! ```
//!
//! Integers are little-endian; strings are a `u32` byte length followed
//! by UTF-8. Decoding is total: every malformed input maps to a typed
//! [`WireError`] — bad magic, version skew, CRC mismatch, truncation,
//! oversized length — never a panic, so a server can reject garbage and
//! close the connection cleanly. The version field is checked before
//! anything else past the magic: a future format bumps the version and
//! old peers reject it with [`WireError::Version`] instead of
//! misparsing.
//!
//! Version 2 prepends a client-assigned `request_id` (u64) to the
//! `SubmitJob`, `JobResult`, and `Error` payloads so several requests
//! can be in flight on one connection and replies can arrive out of
//! order: the server echoes the id verbatim on whichever reply the
//! request produces. Id 0 means "unpipelined" (one request in flight,
//! replies in order). A client reuses the id when it retries a request,
//! which lets the server recognize a resubmission of work it is already
//! running (or has finished) instead of executing it twice.
//!
//! Version 3 changes no layout. It changes what a number means: the
//! `digest` of a `JobResult` is the lane-parallel word hash of the
//! output arrays (`sp_exec::WordDigest`) where versions 1 and 2 carried
//! a byte-serial FNV-1a of the same words. A client comparing a v2
//! server's digest with one it computed itself would see every job
//! "differ", so a v2 peer is refused with the typed
//! [`WireError::Version`] instead.

use shift_peel_core::CodegenMethod;
use sp_exec::{Backend, ExecPlan, Schedule};
use sp_serve::CacheOutcome;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SPFC";
/// Current protocol version. Version 2 added the `request_id`
/// correlation field to submit/result/error payloads (pipelining);
/// version 3 redefined `JobResult.digest` (see the module docs).
pub const VERSION: u16 = 3;
/// Fixed header size (magic + version + type + reserved + length).
pub const HEADER_LEN: usize = 12;
/// Largest accepted payload. Program text is at most a few hundred KiB;
/// anything bigger is garbage or abuse.
pub const MAX_PAYLOAD: u32 = 8 * 1024 * 1024;

/// Error code carried by [`Frame::Error`] when the request itself could
/// not be decoded into a job (net-level, disjoint from
/// [`ServeError::code`](sp_serve::ServeError::code) values).
pub const CODE_MALFORMED: u16 = 100;
/// Error code for a by-digest submission naming a program the server
/// has never seen in text form.
pub const CODE_UNKNOWN_PROGRAM: u16 = 101;

/// Typed decode failure. Every variant is a protocol violation by the
/// peer (or corruption in transit), not an internal error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not `SPFC`.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    Version {
        /// Version in the received header.
        got: u16,
        /// Version this build speaks.
        want: u16,
    },
    /// The checksum over header + payload did not match.
    BadCrc {
        /// CRC in the frame.
        got: u32,
        /// CRC computed over the received bytes.
        want: u32,
    },
    /// Fewer bytes than the header or length prefix promised.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Claimed payload length.
        len: u32,
    },
    /// Unknown frame-type byte.
    BadFrameType(u8),
    /// The payload decoded to nonsense (bad enum tag, non-UTF-8 string,
    /// trailing bytes).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::Version { got, want } => {
                write!(f, "protocol version {got} (this build speaks {want})")
            }
            WireError::BadCrc { got, want } => {
                write!(f, "frame checksum {got:#010x} != computed {want:#010x}")
            }
            WireError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// How a [`SubmitJob`] names its program: full text on first contact,
/// the content digest once the server has seen the text.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgramRef {
    /// Rendered `.loop` source (see `sp_ir::render_sequence`).
    Text(String),
    /// [`program_digest`] of previously submitted text.
    Digest(u64),
}

/// A job submission: everything [`sp_serve::JobSpec`] needs, flattened
/// for the wire. `levels` is not carried — it is re-derived from the
/// plan's grid rank, exactly as `JobSpec::new` does.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitJob {
    /// Client-assigned correlation id, echoed on the reply. 0 means
    /// unpipelined. A retry of the same logical request reuses the id
    /// so the server can dedupe an in-flight resubmission.
    pub request_id: u64,
    /// Tenant id: the fair-share bucket and quota key.
    pub tenant: String,
    /// Display name for the job.
    pub name: String,
    /// The program, by text or by digest.
    pub program: ProgramRef,
    /// What to execute (serial / blocked / fused + grid).
    pub plan: ExecPlan,
    /// Execution backend.
    pub backend: Backend,
    /// Work-distribution schedule.
    pub schedule: Schedule,
    /// Timesteps.
    pub steps: u64,
    /// Deterministic initialization seed.
    pub seed: u64,
    /// Remaining deadline budget in nanoseconds; 0 means none. Clients
    /// re-encode the *remaining* budget on each retry so server queue
    /// time counts against the caller's deadline.
    pub deadline_nanos: u64,
}

/// A completed job, echoed back over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFrame {
    /// The submit frame's `request_id`, echoed (0 = unpipelined).
    pub request_id: u64,
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
    /// The full `RunReport`, as its canonical JSON.
    pub report_json: String,
}

/// A typed failure, with the stable [`ServeError::code`]
/// (or a net-level [`CODE_MALFORMED`] / [`CODE_UNKNOWN_PROGRAM`]).
///
/// [`ServeError::code`]: sp_serve::ServeError::code
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The submit frame's `request_id`, echoed (0 = unpipelined, or a
    /// connection-level failure not tied to one request).
    pub request_id: u64,
    /// Stable numeric error code.
    pub code: u16,
    /// The job the error concerns (0 = no job was created).
    pub job: u64,
    /// The offending tenant ("" when unknown).
    pub tenant: String,
    /// Human-readable detail.
    pub message: String,
}

/// Every frame the protocol speaks.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: run this job.
    Submit(SubmitJob),
    /// Server → client: the job completed.
    Result(ResultFrame),
    /// Server → client: the request failed.
    Error(ErrorFrame),
    /// Client → server: drain and confirm; server echoes once drained.
    Drain,
    /// Liveness probe; echoed verbatim.
    Ping,
}

impl Frame {
    /// The frame-type byte.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Submit(_) => 1,
            Frame::Result(_) => 2,
            Frame::Error(_) => 3,
            Frame::Drain => 4,
            Frame::Ping => 5,
        }
    }
}

/// The content address of a program's rendered text — what
/// [`ProgramRef::Digest`] refers to — hashed as it is rendered.
pub fn program_digest(seq: &sp_ir::LoopSequence) -> u64 {
    let mut h = sp_serve::hash::Fnv1a64::new();
    let _ = sp_ir::display::write_sequence(&mut h, seq);
    h.finish()
}

/// `CRC_TABLES[0][b]` is the CRC register after byte `b` alone went
/// through the reflected polynomial `0xEDB88320`; `CRC_TABLES[k][b]` is
/// the same byte followed by `k` zero bytes, which is what lets eight
/// input bytes be folded in with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// The CRC register before the first byte; the sum is its complement
/// after the last.
const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a running CRC register (not yet inverted), eight
/// bytes a step.
fn crc32_extend(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFFFFFF`) — the same
/// polynomial as zlib, slice-by-8 over tables built at compile time. A
/// job crosses the checksum four times (each of its two frames is summed
/// by its sender and by its receiver), and a by-text submission is over
/// a kilobyte: the bit-at-a-time loop this replaced read 5.1 ns a byte,
/// 24 us a job on LL18's 1203-byte text.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_extend(CRC_INIT, bytes)
}

// ---------------------------------------------------------------------
// Encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

fn encode_plan(e: &mut Enc, plan: &ExecPlan) {
    match plan {
        ExecPlan::Serial => {
            e.u8(0);
            e.u8(0); // grid rank
            e.i64(0); // strip
            e.u8(0); // method
        }
        ExecPlan::Blocked { grid } => {
            e.u8(1);
            e.u8(grid.len() as u8);
            for &d in grid {
                e.u32(d as u32);
            }
            e.i64(0);
            e.u8(0);
        }
        ExecPlan::Fused {
            grid,
            method,
            strip,
        } => {
            e.u8(2);
            e.u8(grid.len() as u8);
            for &d in grid {
                e.u32(d as u32);
            }
            e.i64(*strip);
            e.u8(match method {
                CodegenMethod::StripMined => 0,
                CodegenMethod::Direct => 1,
            });
        }
    }
}

fn encode_payload(e: &mut Enc, frame: &Frame) {
    match frame {
        Frame::Submit(s) => {
            e.u64(s.request_id);
            e.str(&s.tenant);
            e.str(&s.name);
            match &s.program {
                ProgramRef::Text(t) => {
                    e.u8(0);
                    e.str(t);
                }
                ProgramRef::Digest(d) => {
                    e.u8(1);
                    e.u64(*d);
                }
            }
            encode_plan(e, &s.plan);
            e.u8(match s.backend {
                Backend::Interp => 0,
                Backend::Compiled => 1,
                Backend::Simd => 2,
            });
            e.u8(match s.schedule {
                Schedule::Static => 0,
                Schedule::Guided => 1,
                Schedule::Stealing => 2,
            });
            e.u64(s.steps);
            e.u64(s.seed);
            e.u64(s.deadline_nanos);
        }
        Frame::Result(r) => {
            e.u64(r.request_id);
            e.u64(r.job);
            e.str(&r.name);
            e.str(&r.tenant);
            e.u8(match r.cache {
                CacheOutcome::Miss => 0,
                CacheOutcome::Memory => 1,
            });
            e.u64(r.digest);
            e.u64(r.queued_nanos);
            e.u64(r.run_nanos);
            e.u64(r.order);
            e.str(&r.report_json);
        }
        Frame::Error(err) => {
            e.u64(err.request_id);
            e.u16(err.code);
            e.u64(err.job);
            e.str(&err.tenant);
            e.str(&err.message);
        }
        Frame::Drain | Frame::Ping => {}
    }
}

/// Encodes `frame` into a complete wire frame (header, payload, CRC).
/// The payload is written straight behind the header and its length
/// filled in afterwards, so a frame is built in the one buffer it is
/// sent from.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.buf.extend_from_slice(&MAGIC);
    e.u16(VERSION);
    e.u8(frame.frame_type());
    e.u8(0); // reserved
    e.u32(0); // payload length, known once the payload is written
    encode_payload(&mut e, frame);
    let payload_len = (e.buf.len() - HEADER_LEN) as u32;
    e.buf[8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&e.buf);
    e.u32(crc);
    e.buf
}

/// Rewrites the deadline of an encoded `Submit` frame — the payload's
/// last field — and the checksum behind it, so a resend re-encodes
/// eight bytes and not the program.
pub(crate) fn set_submit_deadline(frame: &mut [u8], deadline_nanos: u64) {
    let crc_at = frame.len() - 4;
    frame[crc_at - 8..crc_at].copy_from_slice(&deadline_nanos.to_le_bytes());
    let crc = crc32(&frame[..crc_at]);
    frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------
// Decoding

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated {
                need: self.pos + n,
                got: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("non-UTF-8 string".into()))
    }

    /// Rejects trailing bytes so a payload is exactly its fields.
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn decode_plan(d: &mut Dec) -> Result<ExecPlan, WireError> {
    let kind = d.u8()?;
    let rank = d.u8()? as usize;
    let mut grid = Vec::with_capacity(rank);
    for _ in 0..rank {
        grid.push(d.u32()? as usize);
    }
    let strip = d.i64()?;
    let method = match d.u8()? {
        0 => CodegenMethod::StripMined,
        1 => CodegenMethod::Direct,
        m => return Err(WireError::Malformed(format!("bad codegen method {m}"))),
    };
    match kind {
        0 => Ok(ExecPlan::Serial),
        1 => Ok(ExecPlan::Blocked { grid }),
        2 => Ok(ExecPlan::Fused {
            grid,
            method,
            strip,
        }),
        k => Err(WireError::Malformed(format!("bad plan kind {k}"))),
    }
}

fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut d = Dec::new(payload);
    let frame = match frame_type {
        1 => {
            let request_id = d.u64()?;
            let tenant = d.str()?;
            let name = d.str()?;
            let program = match d.u8()? {
                0 => ProgramRef::Text(d.str()?),
                1 => ProgramRef::Digest(d.u64()?),
                t => return Err(WireError::Malformed(format!("bad program tag {t}"))),
            };
            let plan = decode_plan(&mut d)?;
            let backend = match d.u8()? {
                0 => Backend::Interp,
                1 => Backend::Compiled,
                2 => Backend::Simd,
                b => return Err(WireError::Malformed(format!("bad backend {b}"))),
            };
            let schedule = match d.u8()? {
                0 => Schedule::Static,
                1 => Schedule::Guided,
                2 => Schedule::Stealing,
                s => return Err(WireError::Malformed(format!("bad schedule {s}"))),
            };
            Frame::Submit(SubmitJob {
                request_id,
                tenant,
                name,
                program,
                plan,
                backend,
                schedule,
                steps: d.u64()?,
                seed: d.u64()?,
                deadline_nanos: d.u64()?,
            })
        }
        2 => Frame::Result(ResultFrame {
            request_id: d.u64()?,
            job: d.u64()?,
            name: d.str()?,
            tenant: d.str()?,
            cache: match d.u8()? {
                0 => CacheOutcome::Miss,
                1 => CacheOutcome::Memory,
                c => return Err(WireError::Malformed(format!("bad cache outcome {c}"))),
            },
            digest: d.u64()?,
            queued_nanos: d.u64()?,
            run_nanos: d.u64()?,
            order: d.u64()?,
            report_json: d.str()?,
        }),
        3 => Frame::Error(ErrorFrame {
            request_id: d.u64()?,
            code: d.u16()?,
            job: d.u64()?,
            tenant: d.str()?,
            message: d.str()?,
        }),
        4 => Frame::Drain,
        5 => Frame::Ping,
        t => return Err(WireError::BadFrameType(t)),
    };
    d.finish()?;
    Ok(frame)
}

/// A validated frame header plus its raw bytes (needed for the CRC,
/// which covers header + payload).
#[derive(Clone, Debug)]
pub struct FrameHeader {
    /// The frame-type byte (already range-checked).
    pub frame_type: u8,
    /// Payload length in bytes (already capped).
    pub payload_len: u32,
    raw: [u8; HEADER_LEN],
}

impl FrameHeader {
    /// Validates the fixed header: magic, version, reserved byte, frame
    /// type, and the payload-length cap.
    pub fn parse(raw: [u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
        if raw[0..4] != MAGIC {
            return Err(WireError::BadMagic([raw[0], raw[1], raw[2], raw[3]]));
        }
        let version = u16::from_le_bytes([raw[4], raw[5]]);
        if version != VERSION {
            return Err(WireError::Version {
                got: version,
                want: VERSION,
            });
        }
        let frame_type = raw[6];
        if !(1..=5).contains(&frame_type) {
            return Err(WireError::BadFrameType(frame_type));
        }
        if raw[7] != 0 {
            return Err(WireError::Malformed(format!(
                "reserved byte {} != 0",
                raw[7]
            )));
        }
        let payload_len = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]);
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::Oversized { len: payload_len });
        }
        Ok(FrameHeader {
            frame_type,
            payload_len,
            raw,
        })
    }

    /// Decodes the frame body (`payload_len` payload bytes + 4 CRC
    /// bytes): checks the checksum over header + payload, then decodes
    /// the payload.
    pub fn decode_body(&self, body: &[u8]) -> Result<Frame, WireError> {
        let need = self.payload_len as usize + 4;
        if body.len() < need {
            return Err(WireError::Truncated {
                need,
                got: body.len(),
            });
        }
        let (payload, crc_bytes) = body.split_at(self.payload_len as usize);
        let got = u32::from_le_bytes(crc_bytes[..4].try_into().unwrap());
        let want = !crc32_extend(crc32_extend(CRC_INIT, &self.raw), payload);
        if got != want {
            return Err(WireError::BadCrc { got, want });
        }
        decode_payload(self.frame_type, payload)
    }
}

/// Decodes one complete frame from `bytes` (for tests and fuzzing over
/// raw buffers; socket paths use [`read_frame`]).
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            need: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let header = FrameHeader::parse(bytes[..HEADER_LEN].try_into().unwrap())?;
    header.decode_body(&bytes[HEADER_LEN..])
}

/// Why a blocking frame read stopped.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// The transport failed mid-frame.
    Io(std::io::Error),
    /// The bytes arrived but were not a valid frame.
    Wire(WireError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Blocking read of one frame. [`ReadError::Closed`] only at a frame
/// boundary; EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ReadError> {
    let mut raw = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut raw[filled..]) {
            Ok(0) if filled == 0 => return Err(ReadError::Closed),
            Ok(0) => {
                return Err(ReadError::Wire(WireError::Truncated {
                    need: HEADER_LEN,
                    got: filled,
                }))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let header = FrameHeader::parse(raw).map_err(ReadError::Wire)?;
    let mut body = vec![0u8; header.payload_len as usize + 4];
    let mut got = 0;
    while got < body.len() {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(ReadError::Wire(WireError::Truncated {
                    need: body.len(),
                    got,
                }))
            }
            Ok(n) => got += n,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    header.decode_body(&body).map_err(ReadError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition: one bit at a time through the reflected
    /// polynomial. The reference [`crc32`] is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every split of a buffer into eight-byte steps and a tail, at every
    /// alignment of its first byte.
    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length_and_offset() {
        let ramp: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=67 {
                let bytes = &ramp[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "{len} bytes from {start}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn crc32_matches_the_bitwise_definition_on_random_buffers(
            bytes in prop::collection::vec(any::<u8>(), 0..=4096),
            cut in any::<usize>(),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
            // A frame is summed as header then payload: a sum carried
            // across any cut is the sum of the whole.
            let (head, tail) = bytes.split_at(cut % (bytes.len() + 1));
            let carried = !crc32_extend(crc32_extend(CRC_INIT, head), tail);
            prop_assert_eq!(carried, crc32(&bytes));
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One submission and one result, byte for byte as the build before
    /// the table-driven CRC and the single-buffer encoder framed them: a
    /// captured frame stays valid and `VERSION` stays 3.
    #[test]
    fn frames_are_pinned_to_the_bytes_of_protocol_version_3() {
        let submit = Frame::Submit(SubmitJob {
            request_id: 0x0102_0304_0506_0708,
            tenant: "bench".into(),
            name: "jacobi-34-p2".into(),
            program: ProgramRef::Text("program p\narray a[8]\n".into()),
            plan: ExecPlan::Fused {
                grid: vec![2, 3],
                method: CodegenMethod::Direct,
                strip: 16,
            },
            backend: Backend::Simd,
            schedule: Schedule::Guided,
            steps: 2,
            seed: 0xDEAD_BEEF,
            deadline_nanos: 1_000_000,
        });
        let result = Frame::Result(ResultFrame {
            request_id: 9,
            job: 77,
            name: "ll18".into(),
            tenant: "t".into(),
            cache: CacheOutcome::Memory,
            digest: 0x1122_3344_5566_7788,
            queued_nanos: 5,
            run_nanos: 6,
            order: 7,
            report_json: "{\"procs\":2}".into(),
        });
        let pinned = [
            (
                submit,
                "53504643030001006800000008070605040302010500000062656e63680c0000006a61636f\
                 62692d33342d7032001500000070726f6772616d20700a617272617920615b385d0a020202\
                 0000000300000010000000000000000102010200000000000000efbeadde0000000040420f\
                 000000000088bde180",
            ),
            (
                result,
                "53504643030002004d00000009000000000000004d00000000000000040000006c6c313801\
                 000000740188776655443322110500000000000000060000000000000007000000000000\
                 000b0000007b2270726f6373223a327d67c379a9",
            ),
        ];
        for (frame, hex) in pinned {
            let bytes = unhex(hex);
            assert_eq!(encode_frame(&frame), bytes);
            assert_eq!(decode_frame(&bytes).unwrap(), frame);
        }
    }

    /// Cache code 2 is retired: a result frame carrying it is malformed,
    /// like any other unknown code.
    #[test]
    fn a_retired_cache_code_is_malformed() {
        let mut bytes = encode_frame(&Frame::Result(ResultFrame {
            request_id: 9,
            job: 77,
            name: "ll18".into(),
            tenant: "t".into(),
            cache: CacheOutcome::Memory,
            digest: 1,
            queued_nanos: 0,
            run_nanos: 0,
            order: 0,
            report_json: "{}".into(),
        }));
        // Header, request id, job, then two length-prefixed strings.
        let cache_at = HEADER_LEN + 8 + 8 + (4 + 4) + (4 + 1);
        assert_eq!(bytes[cache_at], 1);
        bytes[cache_at] = 2;
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Malformed(m)) if m.contains("cache outcome 2")
        ));
    }

    /// A patched deadline is the frame encoded with that deadline, byte
    /// for byte.
    #[test]
    fn a_patched_deadline_is_a_fresh_encoding() {
        let job = |deadline_nanos| {
            Frame::Submit(SubmitJob {
                request_id: 5,
                tenant: "t".into(),
                name: "n".into(),
                program: ProgramRef::Text("program p\n".into()),
                plan: ExecPlan::Serial,
                backend: Backend::Compiled,
                schedule: Schedule::Static,
                steps: 1,
                seed: 2,
                deadline_nanos,
            })
        };
        let mut bytes = encode_frame(&job(40_000_000));
        for d in [1, 39_999_999, u64::MAX] {
            set_submit_deadline(&mut bytes, d);
            assert_eq!(bytes, encode_frame(&job(d)));
            assert_eq!(decode_frame(&bytes).unwrap(), job(d));
        }
    }

    #[test]
    fn simple_frames_round_trip() {
        for f in [Frame::Drain, Frame::Ping] {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn error_frame_round_trips() {
        let f = Frame::Error(ErrorFrame {
            request_id: 3,
            code: 7,
            job: 42,
            tenant: "alice".into(),
            message: "over quota".into(),
        });
        assert_eq!(decode_frame(&encode_frame(&f)).unwrap(), f);
    }
}
