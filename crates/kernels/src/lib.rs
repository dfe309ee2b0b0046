//! # uu-kernels — the 16 evaluated GPU benchmarks
//!
//! IR re-implementations of the HeCBench applications from the paper's
//! Table I. Each benchmark provides:
//!
//! * a [`uu_ir::Module`] containing its kernels — the *hot* kernels follow
//!   the loops the paper describes (XSBench's binary search,
//!   bezier-surface's blend loop, rainflow's counting loop, complex's
//!   bit-scan `pow` loop, …), while the remaining loop population of each
//!   application (Table I's `L` column, e.g. 210 for XSBench) is filled with
//!   generated *auxiliary* kernels that are compiled but never launched —
//!   mirroring reality, where most of an application's loops are cold.
//!   Per-loop experiments over those cold loops produce the mass of ≈1.0×
//!   points in the paper's Figure 8;
//! * a deterministic workload (sizes derived from the paper's CLI column,
//!   scaled to simulator scale);
//! * a checksum over its outputs, used by the harness to assert that every
//!   compiler configuration preserves semantics;
//! * a host↔device transfer volume, from which the harness derives the
//!   Table I `%C` (time in compute kernels) via a PCIe model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aux;
mod bench;

pub mod bezier;
pub mod bn;
pub mod bspline;
pub mod ccs;
pub mod clink;
pub mod complex;
pub mod contract;
pub mod coordinates;
pub mod haccmk;
pub mod lavamd;
pub mod libor;
pub mod mandelbrot;
pub mod qtclustering;
pub mod quicksort;
pub mod rainflow;
pub mod xsbench;

pub use bench::{all_benchmarks, Benchmark, BenchmarkInfo, RunOutput};

use uu_ir::Module;

/// Version of the benchmark workloads (input sizes, launch counts,
/// checksummed outputs). Part of the harness's *run* cache key: bump it
/// whenever any workload changes in a way that alters simulator output,
/// so stale cached measurements can never masquerade as fresh ones.
pub const WORKLOAD_VERSION: u32 = 1;

/// Count the natural loops across every function of a module (the paper's
/// per-application `L`).
pub fn count_loops(m: &Module) -> usize {
    m.iter()
        .map(|(_, f)| {
            let dom = uu_analysis::DomTree::compute(f);
            uu_analysis::LoopForest::compute(f, &dom).len()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_module_verifies() {
        for b in all_benchmarks() {
            let m = (b.build)();
            uu_ir::verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", b.info.name));
        }
    }

    #[test]
    fn loop_counts_match_table1() {
        for b in all_benchmarks() {
            let m = (b.build)();
            assert_eq!(
                count_loops(&m),
                b.info.table_loops,
                "{} loop count mismatch",
                b.info.name
            );
        }
    }

    #[test]
    fn workloads_execute_and_checksum() {
        for b in all_benchmarks() {
            let m = (b.build)();
            let mut gpu = uu_simt::Gpu::new();
            let out = (b.run)(&m, &mut gpu).unwrap_or_else(|e| panic!("{}: {e}", b.info.name));
            assert!(out.kernel_time_ms > 0.0, "{}", b.info.name);
            assert!(out.checksum.is_finite(), "{}", b.info.name);
            assert!(out.transfer_bytes > 0, "{}", b.info.name);
        }
    }

    #[test]
    fn checksums_are_deterministic() {
        for b in all_benchmarks() {
            let m = (b.build)();
            let mut g1 = uu_simt::Gpu::new();
            let mut g2 = uu_simt::Gpu::new();
            let a = (b.run)(&m, &mut g1).unwrap();
            let c = (b.run)(&m, &mut g2).unwrap();
            assert_eq!(a.checksum, c.checksum, "{}", b.info.name);
        }
    }

    #[test]
    fn sixteen_benchmarks() {
        assert_eq!(all_benchmarks().len(), 16);
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.info.name).collect();
        assert!(names.contains(&"XSBench"));
        assert!(names.contains(&"bezier-surface"));
    }
}
