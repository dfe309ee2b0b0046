//! The per-loop experiment sweep feeding Figures 6, 7 and 8.
//!
//! Following the paper's methodology (§IV-B): the pass is applied to *one
//! loop at a time*, for each unroll factor and comparator configuration, and
//! each data point is the median of 20 (noise-modelled) runs against the
//! baseline median.

use crate::experiment::{
    equivalence_diag, loop_list, measure_backed, sweep_configs, Backend, LoopRef, Measurement,
    PointTask,
};
use crate::stats::median_of_20;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use uu_core::{FaultPlan, HeuristicOptions, LoopFilter, Rung, Transform};
use uu_kernels::Benchmark;

/// Stand-in for the frontend + backend compile time that our pipeline does
/// not model (Clang parsing CUDA headers, PTX codegen, ptxas): a real
/// `clang -O3` CUDA compile of these benchmarks takes seconds. Added to
/// both sides of every compile-time ratio so the ratios sit on the paper's
/// scale.
pub const FRONTEND_MS: f64 = 3000.0;

/// One (application, loop, configuration) data point.
#[derive(Debug, Clone)]
pub struct LoopPoint {
    /// Application name.
    pub app: String,
    /// The targeted loop.
    pub loop_ref: LoopRef,
    /// Whether the loop lives in a launched (hot) kernel.
    pub hot: bool,
    /// Configuration name (`uu2`, `unroll4`, `unmerge`, …).
    pub config: String,
    /// Median-of-20 speedup over the baseline median.
    pub speedup: f64,
    /// Code size relative to baseline.
    pub size_ratio: f64,
    /// Compile time relative to baseline.
    pub compile_ratio: f64,
    /// Whether compilation timed out.
    pub timed_out: bool,
    /// Degradation-ladder rung the point's compile landed on
    /// ([`Rung::Full`] when every pass succeeded).
    pub rung: Rung,
    /// Contained-failure diagnostics (pass failures, runtime faults,
    /// equivalence violations); empty when clean.
    pub diag: String,
}

/// Per-application summary of the heuristic configuration.
#[derive(Debug, Clone)]
pub struct AppSummary {
    /// Application name.
    pub app: String,
    /// Baseline measurement (noise-free time).
    pub baseline: Measurement,
    /// Heuristic measurement.
    pub heuristic: Measurement,
    /// Median-of-20 baseline time with noise.
    pub baseline_med: f64,
    /// Median-of-20 heuristic time with noise.
    pub heuristic_med: f64,
    /// Paper-calibrated RSD used by the noise model.
    pub rsd: f64,
    /// Size of the non-kernel part of the binary (see `BenchmarkInfo`).
    pub rest_size: u64,
    /// Baseline/heuristic contained-failure diagnostics; empty when both
    /// app-level measurements are clean.
    pub diag: String,
}

impl AppSummary {
    /// Heuristic speedup over baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_med / self.heuristic_med
    }

    /// Heuristic whole-binary code-size ratio (kernel code + the rest of
    /// the application binary).
    pub fn size_ratio(&self) -> f64 {
        let rest = self.rest_size as f64;
        (rest + self.heuristic.code_size as f64) / (rest + self.baseline.code_size as f64)
    }

    /// Heuristic compile-time ratio (with the frontend stand-in).
    pub fn compile_ratio(&self) -> f64 {
        (FRONTEND_MS + self.heuristic.compile_ms) / (FRONTEND_MS + self.baseline.compile_ms)
    }
}

/// The full sweep output.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// All per-loop points.
    pub points: Vec<LoopPoint>,
    /// Per-application baseline + heuristic summaries.
    pub apps: Vec<AppSummary>,
}

pub(crate) fn seed_for(app: &str, l: &LoopRef, config: &str) -> u64 {
    let mut h = DefaultHasher::new();
    (app, &l.func, l.loop_id, config).hash(&mut h);
    h.finish()
}

/// The application's baseline, which every other number is ratioed
/// against and so must exist even when the baseline run itself faults
/// (e.g. an injected memory fault): a sentinel with unit time keeps every
/// downstream ratio finite and the report renderable, with the fault
/// recorded in `diag`.
pub(crate) fn baseline_or_sentinel(
    bench: &Benchmark,
    fault: Option<FaultPlan>,
    backend: Backend<'_>,
) -> Measurement {
    measure_backed(bench, Transform::Baseline, LoopFilter::All, None, fault, backend)
        .unwrap_or_else(|e| Measurement {
            time_ms: 1.0,
            code_size: 1,
            compile_ms: 0.0,
            checksum: 0.0,
            timed_out: false,
            metrics: Default::default(),
            transfer_ms: 0.0,
            rung: Rung::Unoptimized,
            diag: format!("{}/baseline: {e}", bench.info.name),
        })
}

/// Median-of-20 noisy baseline time: the numerator of every speedup of
/// `bench`, in the sweep and the study alike.
fn baseline_median(bench: &Benchmark, base: &Measurement) -> f64 {
    let baseline = LoopRef { func: "baseline".into(), loop_id: 0 };
    median_of_20(
        base.time_ms,
        bench.info.paper_rsd_pct,
        seed_for(bench.info.name, &baseline, "base"),
    )
}

/// Measure one per-loop task and ratio it against its baseline. The
/// noise seed keys on the point, so a configuration the sweep and the
/// study share (e.g. `uu2`) gets the same numbers in both reports.
pub(crate) fn loop_point(t: &PointTask<'_>) -> LoopPoint {
    let m = t.measure();
    let info = &t.bench.info;
    let med = median_of_20(
        m.time_ms,
        info.paper_rsd_pct,
        seed_for(info.name, &t.loop_ref, t.config),
    );
    let rest = info.binary_rest_size as f64;
    LoopPoint {
        app: info.name.to_string(),
        loop_ref: t.loop_ref.clone(),
        hot: t.hot,
        config: t.config.to_string(),
        speedup: baseline_median(t.bench, t.base) / med,
        size_ratio: (rest + m.code_size as f64) / (rest + t.base.code_size as f64),
        compile_ratio: (FRONTEND_MS + m.compile_ms) / (FRONTEND_MS + t.base.compile_ms),
        timed_out: m.timed_out,
        rung: m.rung,
        diag: m.diag,
    }
}

/// Run the per-loop sweep for `benches` on `jobs` workers, with an
/// explicit fault-injection plan, through `backend` — cache, compile
/// daemon, both or neither. With a daemon, every nameable compile is
/// shipped to it (sharing its cross-process artifact cache); anything the
/// daemon cannot serve — and every simulation — runs locally. The backend
/// is a pure wall-time lever: sweep bytes are identical across cacheless,
/// cached, and daemon-backed runs.
///
/// `fast` restricts cold loops to three per application (hot loops are
/// always measured) — used by tests and `--fast`; the real figures use
/// the full population.
///
/// The product space is embarrassingly parallel and is walked in two
/// fan-out phases: per-application baselines + heuristic runs first, then
/// the flat (application, loop, configuration) point list. Every point is
/// an isolated compile + simulate with its own noise-model seed
/// ([`seed_for`] keys on the point, not on execution order), and `uu-par`
/// merges results in input order, so the returned [`Sweep`] — and every
/// report derived from it — is byte-identical at any worker count;
/// `jobs = 1` runs the exact serial loop. Fault containment keeps this
/// property: every degradation decision is a pure function of the point,
/// never of scheduling.
pub fn run_sweep_backed(
    benches: &[Benchmark],
    fast: bool,
    jobs: usize,
    fault: Option<FaultPlan>,
    backend: Backend<'_>,
) -> Sweep {
    // Phase 1: per-application baseline + whole-app heuristic. A faulted
    // baseline or heuristic degrades to a diagnosed sentinel instead of
    // aborting the sweep.
    let apps_and_bases: Vec<(AppSummary, Measurement)> =
        uu_par::par_map_jobs(jobs, benches, |_, bench| {
            let app = bench.info.name.to_string();
            eprintln!("  sweeping {app} ({} loops)...", bench.info.table_loops);
            let base = baseline_or_sentinel(bench, fault, backend);
            let mut heur = measure_backed(
                bench,
                Transform::UuHeuristic(HeuristicOptions::default()),
                LoopFilter::All,
                None,
                fault,
                backend,
            )
            .unwrap_or_else(|e| {
                let mut h = base.clone();
                h.rung = e.rung;
                h.diag = format!("{app}/heuristic: {e}");
                h
            });
            if let Some(d) = equivalence_diag(&base, &heur, &format!("{app} heuristic")) {
                heur.diag = if heur.diag.is_empty() {
                    d
                } else {
                    format!("{}; {d}", heur.diag)
                };
            }
            let heuristic_med = median_of_20(
                heur.time_ms,
                bench.info.paper_rsd_pct,
                seed_for(&app, &LoopRef { func: "heuristic".into(), loop_id: 0 }, "heur"),
            );
            let diag = [&base.diag, &heur.diag]
                .iter()
                .filter(|d| !d.is_empty())
                .map(|d| d.as_str())
                .collect::<Vec<_>>()
                .join("; ");
            let summary = AppSummary {
                app,
                baseline: base.clone(),
                heuristic: heur,
                baseline_med: baseline_median(bench, &base),
                heuristic_med,
                rsd: bench.info.paper_rsd_pct,
                rest_size: bench.info.binary_rest_size,
                diag,
            };
            (summary, base)
        });

    // Phase 2: flatten the per-loop product in the serial nested-loop
    // order (bench → loop → config) and fan the measurements out. The
    // task list fixes the output order up front; scheduling only decides
    // who computes what.
    let (apps, bases): (Vec<AppSummary>, Vec<Measurement>) =
        apps_and_bases.into_iter().unzip();
    let mut tasks: Vec<PointTask<'_>> = Vec::new();
    for (bench, base) in benches.iter().zip(&bases) {
        let mut cold_seen = 0usize;
        for l in loop_list(bench) {
            let hot = bench.info.hot_kernels.contains(&l.func.as_str());
            if !hot {
                cold_seen += 1;
                if fast && cold_seen > 3 {
                    continue;
                }
            }
            for (cname, transform) in sweep_configs() {
                tasks.push(PointTask {
                    bench,
                    base,
                    loop_ref: l.clone(),
                    hot,
                    config: cname,
                    transform,
                    fault,
                    cache: backend.cache,
                    remote: backend.remote,
                });
            }
        }
    }
    let points = uu_par::par_map_jobs(jobs, &tasks, |_, t| loop_point(t));
    Sweep { points, apps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_kernels::all_benchmarks;

    #[test]
    fn fast_sweep_on_two_apps_produces_consistent_points() {
        let benches: Vec<Benchmark> = all_benchmarks()
            .into_iter()
            .filter(|b| b.info.name == "bezier-surface" || b.info.name == "mandelbrot")
            .collect();
        let sweep = run_sweep_backed(&benches, true, uu_par::num_jobs(), None, Backend::default());
        assert_eq!(sweep.apps.len(), 2);
        // 7 configs per measured loop.
        assert!(sweep.points.len().is_multiple_of(7));
        for p in &sweep.points {
            assert!(p.speedup > 0.0, "{p:?}");
            assert!(p.size_ratio > 0.0);
            assert!(p.compile_ratio > 0.0);
        }
        // Cold loops sit at ≈1.0 speedup (only noise moves them).
        for p in sweep.points.iter().filter(|p| !p.hot) {
            assert!(
                (p.speedup - 1.0).abs() < 0.25,
                "cold loop should be ≈1.0: {p:?}"
            );
        }
        // The bezier hot loop must show a u&u win at some factor.
        let best = sweep
            .points
            .iter()
            .filter(|p| p.hot && p.app == "bezier-surface" && p.config.starts_with("uu"))
            .map(|p| p.speedup)
            .fold(0.0f64, f64::max);
        assert!(best > 1.05, "bezier u&u best {best}");
    }
}
