//! # sp-serve — content-addressed compilation cache and job service
//!
//! The serving subsystem treats plan derivation and tape lowering as a
//! *compilation* whose results are worth reusing: two requests that agree
//! on the normalized program text, the planning configuration, the
//! execution backend, and the processor count derive bit-identical
//! artifacts, so the second request can skip derivation and lowering
//! entirely.
//!
//! * [`hash`] — stable content hashing ([`CacheKey`]): FNV-1a over a
//!   versioned canonical rendering of the sequence plus the
//!   [`PlanConfig`](shift_peel_core::PlanConfig), backend, and processor
//!   count;
//! * [`cache`] — the [`ArtifactCache`]: an in-memory LRU over derived
//!   [`FusionPlan`](shift_peel_core::FusionPlan)s, dependence analyses,
//!   and lowered tapes. No plan is persisted: a fresh process derives
//!   one faster than it could read it back. Its hit/miss/evict counters
//!   feed the `sp-trace` metrics registry and, given a stats directory,
//!   aggregate across processes;
//! * [`program`] — [`SharedProgram`]: a job's program with its canonical
//!   text and digest, made once and shared by reference count from the
//!   socket to the scheduler, so no per-job path renders, hashes or
//!   copies a program;
//! * [`service`] — the [`Service`]: a job queue in front of the shared
//!   persistent worker pool, admitting many concurrent clients with
//!   FIFO + per-client fair-share scheduling, bounded-queue backpressure
//!   ([`ServeError::QueueFull`]), per-job deadlines, and graceful drain;
//! * [`manifest`] — the line-oriented job-manifest format behind
//!   `spfc serve --jobs <file>`;
//! * [`obs`] — serve-tier observability: per-stage latency histograms
//!   ([`StageStats`]) and outcome counters, persisted next to the cache
//!   stats so `spfc cache stats` reports latency quantiles across
//!   processes; the service additionally accumulates a
//!   [`SessionTrace`](sp_trace::SessionTrace) (one Chrome trace for the
//!   whole session) when built with [`ServiceConfig::traced`];
//! * [`listener`] — [`SocketServer`], the shared dependency-free TCP
//!   accept-loop skeleton (named acceptor thread, per-connection
//!   threads, stop-flag + self-connect shutdown) under both socket
//!   servers in the workspace;
//! * [`http`] — [`MetricsServer`], a dependency-free HTTP/1.0 scrape
//!   endpoint (`/metrics`, `/healthz`) behind
//!   `spfc serve --listen-metrics ADDR`.
//!
//! The one legality subtlety: the cache key includes the processor
//! *count* but not the grid *shape*, so every lookup revalidates the
//! cached plan against the request's grid with
//! [`revalidate_plan`](shift_peel_core::analysis::revalidate_plan) (Theorem 1 of
//! the paper: every processor's block must be at least `Nt` iterations
//! deep in every fused dimension). A key match alone is never sufficient
//! to serve a plan.

pub mod cache;
pub mod hash;
pub mod http;
pub mod listener;
pub mod manifest;
pub mod obs;
pub mod program;
pub mod service;

pub use cache::{Artifact, ArtifactCache, ArtifactCacheConfig, CacheCounters};
pub use hash::{fnv1a64, CacheKey, CACHE_FORMAT_VERSION};
pub use http::{MetricsRender, MetricsServer};
pub use listener::{parse_request_line, read_http_head, ConnHandler, SocketServer};
pub use manifest::parse_manifest;
pub use obs::{disk_stage_stats, StageStats, TenantStats};
pub use program::SharedProgram;
pub use service::{
    CacheOutcome, JobId, JobResult, JobSpec, ServeError, Service, ServiceConfig, TenantQuota,
    RESULT_RETENTION,
};
