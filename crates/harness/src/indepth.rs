//! §V in-depth analysis: hardware-counter deltas for XSBench, rainflow and
//! complex — the paper's explanation of *why* u&u wins or loses.

use crate::experiment::{equivalence_diag, measure_backed, Backend, Measurement};
use crate::report::{ascii_table, write_text};
use std::path::Path;
use uu_core::{FaultPlan, LoopFilter, Transform, UnmergeOptions};
use uu_kernels::{all_benchmarks, Benchmark};

/// One counter-comparison case.
#[derive(Debug, Clone)]
pub struct CounterCase {
    /// Application.
    pub app: String,
    /// Factor used (the paper's §V choices).
    pub factor: u32,
    /// Baseline measurement.
    pub base: Measurement,
    /// u&u measurement.
    pub uu: Measurement,
}

fn bench(name: &str) -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

/// Collect the three §V cases: XSBench @8, rainflow @4, complex @8.
///
/// The cases are independent (each builds its own module and GPU), so
/// they fan out across `jobs` workers; `uu-par`'s ordered merge keeps the
/// report order fixed. Every point is measured under `fault` through
/// `backend`, like the sweep's. A case whose measurement faults (or whose
/// checksums diverge — a miscompile) is dropped with a diagnostic on
/// stderr rather than aborting the run; the report renders the survivors.
pub fn collect(jobs: usize, fault: Option<FaultPlan>, backend: Backend<'_>) -> Vec<CounterCase> {
    let cases = [
        ("XSBench", "xs_lookup", 8u32),
        ("rainflow", "rainflow_scan", 4),
        ("complex", "complex_pow", 8),
    ];
    uu_par::par_map(jobs, &cases, |_, (app, func, factor)| {
        let b = bench(app);
        let base = match measure_backed(
            &b,
            Transform::Baseline,
            LoopFilter::All,
            None,
            fault,
            backend,
        ) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("indepth: {app} baseline failed: {e}");
                return None;
            }
        };
        let uu = match measure_backed(
            &b,
            Transform::Uu {
                factor: *factor,
                unmerge: UnmergeOptions::default(),
            },
            LoopFilter::Only {
                func: (*func).to_string(),
                loop_id: 0,
            },
            None,
            fault,
            backend,
        ) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("indepth: {app} u&u failed: {e}");
                return None;
            }
        };
        if let Some(d) = equivalence_diag(&base, &uu, app) {
            eprintln!("indepth: {d}");
            return None;
        }
        Some(CounterCase {
            app: (*app).to_string(),
            factor: *factor,
            base,
            uu,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Emit `indepth.txt`: counter tables in the style of the paper's §V.
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn report(cases: &[CounterCase], out: &Path) -> std::io::Result<()> {
    let clock = uu_simt::GpuParams::default().clock_ghz;
    let warp = uu_simt::GpuParams::default().warp_size;
    let mut text = String::from("In-depth analysis (paper §V): counters baseline vs u&u\n\n");
    for c in cases {
        let rows = vec![
            row("kernel time (ms)", c.base.time_ms, c.uu.time_ms),
            row(
                "inst_misc",
                c.base.metrics.thread_misc as f64,
                c.uu.metrics.thread_misc as f64,
            ),
            row(
                "inst_control",
                c.base.metrics.thread_control as f64,
                c.uu.metrics.thread_control as f64,
            ),
            row(
                "warp_execution_efficiency (%)",
                c.base.metrics.warp_execution_efficiency(warp),
                c.uu.metrics.warp_execution_efficiency(warp),
            ),
            row("IPC", c.base.metrics.ipc(), c.uu.metrics.ipc()),
            row(
                "gld_throughput (GB/s)",
                c.base.metrics.gld_throughput_gbs(clock),
                c.uu.metrics.gld_throughput_gbs(clock),
            ),
            row(
                "stall_inst_fetch (%)",
                c.base.metrics.stall_inst_fetch(),
                c.uu.metrics.stall_inst_fetch(),
            ),
        ];
        text.push_str(&format!("== {} (u&u factor {}) ==\n", c.app, c.factor));
        text.push_str(&ascii_table(&["counter", "baseline", "u&u", "ratio"], &rows));
        text.push('\n');
    }
    write_text(&out.join("indepth.txt"), &text)
}

fn row(name: &str, base: f64, uu: f64) -> Vec<String> {
    let ratio = if base != 0.0 { uu / base } else { f64::NAN };
    vec![
        name.to_string(),
        format!("{base:.4}"),
        format!("{uu:.4}"),
        format!("{ratio:.3}"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{measure, measure_baseline};

    #[test]
    fn xsbench_case_shows_misc_reduction_and_divergence() {
        let b = bench("XSBench");
        let base = measure_baseline(&b).unwrap();
        let uu = measure(
            &b,
            Transform::Uu {
                factor: 8,
                unmerge: UnmergeOptions::default(),
            },
            LoopFilter::Only {
                func: "xs_lookup".into(),
                loop_id: 0,
            },
            None,
        )
        .unwrap();
        assert_eq!(uu.checksum, base.checksum);
        // The paper's §V signature: inst_misc drops sharply while warp
        // execution efficiency drops too (selp → divergent branches).
        assert!(
            (uu.metrics.thread_misc as f64) < 0.7 * base.metrics.thread_misc as f64,
            "misc: {} vs {}",
            uu.metrics.thread_misc,
            base.metrics.thread_misc
        );
        let w = uu_simt::GpuParams::default().warp_size;
        assert!(
            uu.metrics.warp_execution_efficiency(w)
                < base.metrics.warp_execution_efficiency(w)
        );
    }
}
