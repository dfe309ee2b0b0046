//! # uu-serve — compile-service daemon with a content-addressed cache
//!
//! The workspace's "millions of users" front end: a long-running daemon
//! that accepts IR modules + pipeline configurations over a
//! length-prefixed framed protocol over a Unix socket, compiles them
//! through the fault-tolerant `uu-core` pipeline, and answers with
//! optimized IR, the degradation rung and compile metrics. Every compile
//! is backed by a **content-addressed artifact cache** keyed on
//!
//! ```text
//! (module hash, canonical pipeline config, pipeline-version fingerprint)
//! ```
//!
//! * the module hash is [`uu_ir::module_hash`] — FNV-1a 64 over the
//!   printed module text, stable across processes, machines and
//!   print → parse → print round trips;
//! * the canonical config is the `Debug` rendering of
//!   [`uu_core::PipelineOptions`] — every field that can change a
//!   compile's output is part of the key (transform, filter, position,
//!   rounds, thresholds, timeout, fault plan, bisect limit);
//! * the pipeline-version fingerprint is
//!   [`uu_core::pipeline_fingerprint`] — bumping any pass version in
//!   [`uu_core::PASS_VERSIONS`] invalidates every cached artifact.
//!
//! The cache has an in-memory layer and an optional on-disk layer
//! holding the same thing: metadata plus the optimized module's printed
//! IR (shared text in memory; a content-addressed file on disk, surviving
//! process restarts). A warm daemon request is keyed from its wire bytes
//! and answered with the stored text — nothing parsed, nothing printed.
//!
//! The service speaks one text shape, the protocol [`Message`] (status
//! line, `key: value` headers, body), and compile results have one codec
//! into it ([`artifact`]): the daemon's `ok` reply, the client reading it
//! and every disk artifact share it. An artifact is a message behind a
//! seal line — an FNV-1a hash of all of it — so a damaged, truncated or
//! version-skewed file degrades to a cache miss and a fresh compile: the
//! cache can make a request faster, never wronger.
//!
//! Batch drivers reuse the same cache in process: `uu-harness` threads a
//! [`CompileCache`] through the sweep and the three-way study, so
//! fig6/fig8/fig9 points share compiles across (kernel, loop, config)
//! triples and a warm `results/` regeneration skips both the compile and
//! the simulation of every previously measured point — byte-identically,
//! at any `UU_JOBS`.
//!
//! Observability follows the typed-stats idiom: [`CacheStats`] is a
//! versioned struct with hit/miss/latency/rung counters, rendered as
//! stable JSON (`stats` protocol verb).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod backoff;
pub mod cache;
pub mod client;
pub mod config;
pub mod fault;
pub mod proto;
pub mod server;
pub mod stats;

pub use artifact::{Artifact, CompileMeta, RunRecord, ARTIFACT_VERSION};
pub use backoff::Backoff;
pub use cache::{inject_store_fault, CachedCompile, CompileCache, Key};
pub use client::{connect_unix, request_over, Remote, RemoteCompile};
pub use config::{config_name, config_names, parse_config};
pub use fault::{ServeFault, ServeFaultKind, ServeFaultPlan};
pub use proto::{
    read_frame, read_frame_lenient, write_frame, FrameDefect, Message, MAX_FRAME, PROTO_VERSION,
    RESYNC_MAX,
};
pub use server::{serve_unix_with, ServeOptions, Service, SERVICE_COMPILE_TIMEOUT};
pub use stats::{CacheStats, STATS_VERSION};
