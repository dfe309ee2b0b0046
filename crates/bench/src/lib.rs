//! uu-check-driven micro-benches for uu (see `benches/`); the library
//! target is empty. Run with `cargo bench -p uu-bench`; each row prints to
//! stderr as it completes.
//!
//! `passes` times individual passes on a synthetic loop and on the sweep's
//! largest body, the IR text codec, and whole compiles; `ablations` times
//! DESIGN.md's design decisions and prints the simulated kernel time each
//! produces. Neither is an end-to-end number: sweep, study, cache and
//! daemon wall time, compile throughput (`core.units_per_ms`) and simulator
//! throughput (`simt.mwarp_insts_per_s`), with per-layer attribution, come
//! from the `e2ebench/` package declared in the root `BENCHMARK.json`.

#![forbid(unsafe_code)]
