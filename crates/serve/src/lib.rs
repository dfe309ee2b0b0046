//! # uu-serve — content-addressed artifact cache (and a daemon fixture)
//!
//! The store behind `UU_CACHE_DIR`: a **content-addressed artifact cache**
//! ([`CompileCache`]) for compiles and measured runs, keyed on
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
//! IR (shared text in memory; a content-addressed file on disk, written
//! tmp + rename, surviving process restarts). Compile and run results
//! have one codec ([`Artifact`]): an artifact is a [`Message`] (status
//! line, `key: value` headers, body) behind a seal line — an FNV-1a hash
//! of all of it — so a damaged, truncated or version-skewed file degrades
//! to a cache miss and a fresh compile: the cache can make a run faster,
//! never wronger.
//!
//! Batch drivers reach the store through one interface, [`Artifacts`]
//! (compile, look a run up, store one). A warm `results/` regeneration
//! skips both the compile and the simulation of every previously measured
//! point — byte-identically, at any `UU_JOBS`. [`CacheStats`] is a
//! versioned struct with hit/miss/latency/rung counters, rendered as
//! stable JSON after a cached run.
//!
//! A socket daemon in front of the same cache ([`serve_unix_with`], and
//! [`Remote`], a second [`Artifacts`] over its `compile`, `lookup-run`
//! and `store-run` verbs) is no longer reachable from any command. It
//! stays only as the fixture of e2ebench's `served-warm` workload, with
//! its tests, until that workload is replaced and the daemon deleted
//! (ROADMAP items 2 and 1).

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
