//! # uu-harness — regenerating the paper's evaluation
//!
//! The experiment driver for reproducing Table I and Figures 6–8 of
//! *Enhancing Performance through Control-Flow Unmerging and Loop Unrolling
//! on GPUs* (CGO 2024), plus the §V hardware-counter analysis.
//!
//! ## Methodology (paper §IV-B, faithfully reproduced)
//!
//! * five configurations: baseline (`-O3` stand-in), `unroll`, `unmerge`,
//!   `u&u` (factors 2/4/8), and the `u&u` heuristic (`c = 1024`,
//!   `u_max = 8`);
//! * transforms applied **one loop at a time**, early in the pipeline;
//! * each data point is the **median of 20 runs**; the simulator being
//!   deterministic, runs are drawn from a seeded noise model calibrated to
//!   the paper's per-application RSD (a documented substitution);
//! * speedup uses the **sum of kernel times**; `%C` weighs kernels against
//!   a PCIe transfer model;
//! * every transformed binary's output **checksum must equal the
//!   baseline's** — a mismatch is recorded as a `MISCOMPILE …` diagnostic
//!   on the point (the sweep's are listed in `faults.txt`, the study's in
//!   `fig9.csv`, and a §V case is dropped), never reported as a speedup.
//!
//! Run `cargo run --release -p uu-harness -- all` to regenerate everything
//! into `results/`. Beyond the paper's own evaluation, the [`study`]
//! module runs the three-way unmerge/meld comparison (u&u vs DARM-style
//! melding vs both) rendered as `fig9` / `table2`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod indepth;
pub mod plan;
pub mod profile;
pub mod report;
pub mod stats;
pub mod study;
pub mod sweep;

pub use experiment::{measure, measure_backed, measure_baseline, Backend, Measurement};
pub use study::{run_study_backed, Study};
pub use sweep::{run_sweep_backed, Sweep};

/// The README's library snippets, compiled and run as doctests so they
/// break with the API they show.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
