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
//! line, `key: value` headers, body), one length-prefixed frame each way
//! per connection: a client opens a connection, sends one request, reads
//! one response. Compile results have one codec into the message shape
//! ([`Artifact`]): the daemon's `ok` reply, the client reading it and
//! every disk artifact share it. An artifact is a message behind a seal
//! line — an FNV-1a hash of all of it — so a damaged, truncated or
//! version-skewed file degrades to a cache miss and a fresh compile: the
//! cache can make a request faster, never wronger.
//!
//! Batch drivers reach a store through one interface, [`Artifacts`]
//! (compile, look a run up, store one): a [`CompileCache`] in process, or
//! a [`Remote`] over the daemon's `compile`, `lookup-run` and `store-run`
//! verbs, which serves what the daemon's directory would. A warm
//! `results/` regeneration skips both the compile and the simulation of
//! every previously measured point — byte-identically, at any `UU_JOBS`.
//!
//! Observability follows the typed-stats idiom: [`CacheStats`] is a
//! versioned struct with hit/miss/latency/rung counters, rendered as
//! stable JSON (`stats` protocol verb).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod backoff;
mod cache;
mod client;
mod config;
mod fault;
mod proto;
mod server;
mod stats;

pub use artifact::{Artifact, CompileMeta, RunRecord};
pub use cache::{Artifacts, CachedCompile, CompileCache, Key};
pub use client::{Remote, RemoteCompile};
pub use config::{config_name, config_names, parse_config};
pub use fault::{ServeFault, ServeFaultKind, ServeFaultPlan};
pub use proto::Message;
pub use server::{serve_unix_with, ServeOptions};
pub use stats::CacheStats;
