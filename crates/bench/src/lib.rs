//! uu-check-driven layer micro-benches for uu (see `benches/`); the library
//! target is empty. Run with `cargo bench`; JSON reports land in
//! `target/uu-bench/`.
//!
//! Each bench times one layer in isolation: `sim` (simulator throughput),
//! `compile` (pipeline throughput and per-pass profile), `passes`
//! (individual passes on a synthetic loop), `ablations` (DESIGN.md's design
//! decisions) and `tables_and_figures` (one compile+execute measurement per
//! paper artifact). None of them is
//! an end-to-end number: sweep, study, cache and daemon wall time, with
//! per-layer attribution, come from the `e2ebench/` package declared in
//! the root `BENCHMARK.json`.

#![forbid(unsafe_code)]
