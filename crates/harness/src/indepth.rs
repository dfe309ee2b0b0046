//! §V in-depth analysis: hardware-counter deltas for XSBench, rainflow and
//! complex — the paper's explanation of *why* u&u wins or loses.

use crate::experiment::{equivalence_diag, sweep_configs, LoopRef, Measurement};
use crate::plan::{Key, Points};
use crate::report::{ascii_table, write_text};
use std::path::Path;
use uu_core::Transform;
use uu_kernels::Benchmark;

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

/// The paper's §V cases: application, hot function and u&u factor.
const CASES: [(&str, &str, u32); 3] = [
    ("XSBench", "xs_lookup", 8),
    ("rainflow", "rainflow_scan", 4),
    ("complex", "complex_pow", 8),
];

/// The §V keys: loop 0 of each case's hot function under the sweep's own
/// `uu<factor>` configuration, so they are sweep keys too. `benches` must
/// hold XSBench, rainflow and complex.
///
/// # Panics
///
/// Panics if one of the three applications is missing from `benches`.
pub fn keys(benches: &[Benchmark]) -> Vec<Key<'_>> {
    CASES
        .iter()
        .map(|&(app, func, factor)| {
            let bench = benches
                .iter()
                .find(|b| b.info.name == app)
                .unwrap_or_else(|| panic!("§V needs {app}"));
            let (config, transform) = sweep_configs()
                .into_iter()
                .find(|(c, _)| *c == format!("uu{factor}"))
                .expect("every §V factor is a sweep configuration");
            let target = Some(std::sync::Arc::new(LoopRef { func: func.to_string(), loop_id: 0 }));
            Key { bench, target, config, transform }
        })
        .collect()
}

/// The §V cases as a view over measured `points`. A case whose baseline
/// or u&u point faulted, or whose checksums diverge (a miscompile), is
/// dropped with a line on stderr; the report renders the survivors.
pub fn view(points: &Points, keys: &[Key<'_>]) -> Vec<CounterCase> {
    let case = |k: &Key<'_>| -> Result<CounterCase, String> {
        let app = k.bench.info.name;
        let base = points.get(&Key::baseline(k.bench));
        let base = base.as_ref().map_err(|e| format!("{app} baseline failed: {e}"))?;
        let uu = points.get(k).as_ref().map_err(|e| format!("{app} u&u failed: {e}"))?;
        if let Some(d) = equivalence_diag(base, uu, app) {
            return Err(d);
        }
        let Transform::Uu { factor, .. } = k.transform else {
            panic!("{app}/{}: §V keys are u&u points", k.config)
        };
        Ok(CounterCase {
            app: app.to_string(),
            factor,
            base: base.clone(),
            uu: uu.clone(),
        })
    };
    keys.iter()
        .filter_map(|k| case(k).map_err(|e| eprintln!("indepth: {e}")).ok())
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
    use uu_core::{LoopFilter, UnmergeOptions};
    use uu_kernels::all_benchmarks;

    #[test]
    fn xsbench_case_shows_misc_reduction_and_divergence() {
        let b = all_benchmarks()
            .into_iter()
            .find(|b| b.info.name == "XSBench")
            .unwrap();
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
