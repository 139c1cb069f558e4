//! # sp-net — socket wire protocol and network tier for the serve
//! subsystem
//!
//! The paper's economics — fuse once, reuse the schedule — extend past
//! one process: a plan compiled and cached by [`sp_serve::Service`] is
//! worth serving to a fleet. sp-net is the std-only network front door
//! (no async runtime, matching `sp_serve::MetricsServer`):
//!
//! * [`wire`] — the `SPFC` length-prefixed binary frame format
//!   (version 3): versioned header, CRC-32 integrity check, and five
//!   frame types (SubmitJob / JobResult / Error / Drain / Ping).
//!   Submissions carry a client-assigned `request_id` (echoed on the
//!   reply so many requests can share one connection), the program
//!   (full text, or the content digest of text the server has already
//!   seen), the execution plan, backend, schedule, and the *remaining*
//!   deadline budget. Decoding is total: garbage maps to typed
//!   [`WireError`]s, never panics.
//! * [`server`] — [`NetServer`]: the shared
//!   [`SocketServer`](sp_serve::SocketServer) accept loop plus, per
//!   connection, a reader thread (decode + submit) and a completion
//!   pump joined by one channel: each admitted job's result is sent
//!   down it by [`Service::on_done`](sp_serve::Service::on_done), and
//!   the pump writes replies out of order as they arrive. Programs
//!   live in a bounded LRU registry as shared objects (a by-digest hit
//!   is a reference, and a text whose bytes the registry holds is not
//!   parsed again); a retried `request_id` is deduped against the job
//!   already admitted. Wire jobs gain `decode`
//!   and `respond_wire` stage spans in the serve-tier observability.
//! * [`client`] — [`Client`]: blocking, with connect/io timeouts and
//!   one request engine that keeps a window of requests in flight on
//!   one connection. [`Client::submit_pipelined`] runs a batch through
//!   it; [`Client::submit`] and [`Client::submit_by_digest`] are a
//!   window of one. The engine retries transient errors (transport
//!   failures, `QueueFull`, `QuotaExceeded`) with bounded exponential
//!   backoff, rewrites each resend's deadline to the remaining budget,
//!   clamps every backoff to it, and reuses the request id so the
//!   server dedupes instead of re-executing.
//!
//! A job submitted over the wire returns a result bit-identical to the
//! same job run in-process: the snapshot digest and the per-worker
//! counters travel in the frame, and the full `RunReport` rides along
//! as canonical JSON.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, NetError, NetJobResult};
pub use server::{NetServer, NetServerConfig, NetServerStats, NetStatsHandle};
pub use wire::{
    crc32, decode_frame, encode_frame, program_digest, read_frame, write_frame, ErrorFrame, Frame,
    FrameHeader, ProgramRef, ReadError, ResultFrame, SubmitJob, WireError, CODE_MALFORMED,
    CODE_UNKNOWN_PROGRAM, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
