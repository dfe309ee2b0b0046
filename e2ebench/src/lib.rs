//! # uu-e2e — one end-to-end benchmark for the uu stack
//!
//! Four workloads over the paper's kernels, measured from outside through
//! the crates' public functions: `regen-fast` (the cacheless `all --fast`
//! path), `cold-loops` (per-loop XSBench compiles), `sim-launch` (the
//! simulator alone) and `served-warm` (the same sweep from a primed cache,
//! through a daemon and from disk). A plain run reports the end-to-end
//! metrics; a traced run walks the same points itself and attributes the
//! time to layers. See `README.md` and `BENCHMARK.json`.

#![warn(missing_docs)]
pub mod compare;
pub mod json;
pub mod os;
pub mod spec;
pub mod trace;
pub mod walk;
pub mod workloads;
