//! # uu-check — deterministic fuzzing and differential testing with zero
//! external dependencies
//!
//! The uu workspace builds and tests fully offline; this crate supplies,
//! in-tree, everything the registry crates `rand` and `proptest` used to
//! provide:
//!
//! * [`rng`] — [`SplitMix64`] and xoshiro256++ ([`Rng`]) PRNGs, the
//!   deterministic randomness source for every test and workload;
//! * [`gen`] + [`runner`] — a minimal property-testing framework: the
//!   [`Gen`] trait, seeded case generation ([`check`] / [`Config`]), an
//!   iteration budget and greedy input shrinking with replayable failure
//!   reports (`UU_CHECK_SEED`, `UU_CHECK_CASES`);
//! * [`oracle`] — the [`DiffOracle`]: random well-formed loop kernels
//!   ([`KernelSpec`]) compiled under every pipeline configuration and
//!   executed on the SIMT simulator, asserting bit-identical outputs and
//!   verifier-clean IR after every pass — the repo's core correctness
//!   argument (paper §IV);
//! * [`corpus`] — a checked-in `.seed` regression corpus replayed before
//!   novel fuzzing, so historical counterexamples keep running;
//! * [`json`] — a JSON well-formedness checker the tests run over the
//!   artifact cache's stats JSON;
//! * [`bisect`](mod@bisect) — opt-bisect over the pipeline's pass-invocation counter:
//!   given an oracle-detected miscompile, binary-search to the first bad
//!   pass and write a replayable crash-report artifact (the native
//!   `-opt-bisect-limit` + `CrashRecoveryContext` workflow).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;
pub mod corpus;
pub mod gen;
pub mod json;
pub mod oracle;
pub mod rng;
pub mod runner;

pub use bisect::{bisect, write_crash_report, BisectReport};
pub use gen::Gen;
pub use oracle::{
    build_kernel, execute, execute_on, execute_with_params, DiffOracle, KernelSpec, OracleFailure,
};
pub use rng::{Rng, SplitMix64};
pub use runner::{case_seeds, check, check_result, Config, Failure};
