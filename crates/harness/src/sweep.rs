//! The per-loop experiment sweep feeding Figures 6, 7 and 8.
//!
//! Following the paper's methodology (§IV-B): the pass is applied to *one
//! loop at a time*, for each unroll factor and comparator configuration, and
//! each data point is the median of 20 (noise-modelled) runs against the
//! baseline median.

use crate::experiment::{
    append_diag, equivalence_diag, loop_list, settle, sweep_configs, Backend, LoopRef, Measurement,
};
use crate::plan::{Key, Plan, Points};
use crate::stats::median_of_20;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use uu_core::{FaultPlan, HeuristicOptions, Rung, Transform};
use uu_kernels::Benchmark;

/// Stand-in for the frontend + backend compile time that our pipeline does
/// not model (Clang parsing CUDA headers, PTX codegen, ptxas): a real
/// `clang -O3` CUDA compile of these benchmarks takes seconds. Added to
/// both sides of every compile-time ratio so the ratios sit on the paper's
/// scale.
pub const FRONTEND_MS: f64 = 3000.0;

/// One (application, loop, configuration) data point. A clean one owns no
/// allocation: its names are static and its loop is shared with the loop's
/// other configurations.
#[derive(Debug, Clone)]
pub struct LoopPoint {
    /// Application name.
    pub app: &'static str,
    /// The targeted loop.
    pub loop_ref: Arc<LoopRef>,
    /// Whether the loop lives in a launched (hot) kernel.
    pub hot: bool,
    /// Configuration name (`uu2`, `unroll4`, `unmerge`, …).
    pub config: &'static str,
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
    pub diag: Box<str>,
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

/// The [`LoopPoint`] of the loop key `k`: its outcome [`settle`]d and
/// ratioed against the baseline. The noise seed keys on the point, so a
/// configuration the sweep and the study share (e.g. `uu2`) gets the same
/// numbers in both reports.
pub(crate) fn loop_point(points: &Points, k: &Key<'_>) -> LoopPoint {
    let Some(loop_ref) = &k.target else {
        panic!("{}: not a loop key", k.what())
    };
    let (info, base) = (&k.bench.info, points.base(k.bench));
    let m = settle(base, k.hot(), &k.what(), points.get(k).clone());
    let med = median_of_20(
        m.time_ms,
        info.paper_rsd_pct,
        seed_for(info.name, loop_ref, k.config),
    );
    let rest = info.binary_rest_size as f64;
    LoopPoint {
        app: info.name,
        loop_ref: Arc::clone(loop_ref),
        hot: k.hot(),
        config: k.config,
        speedup: baseline_median(k.bench, base) / med,
        size_ratio: (rest + m.code_size as f64) / (rest + base.code_size as f64),
        compile_ratio: (FRONTEND_MS + m.compile_ms) / (FRONTEND_MS + base.compile_ms),
        timed_out: m.timed_out,
        rung: m.rung,
        diag: m.diag.into_boxed_str(),
    }
}

/// The sweep's keys, per application: its heuristic, then its (loop,
/// configuration) product in loop → config order. `fast` keeps three cold
/// loops per application (hot loops are always measured) — used by tests
/// and `--fast`; the real figures use the full population.
pub fn keys(benches: &[Benchmark], fast: bool) -> Vec<Key<'_>> {
    let mut keys = Vec::new();
    for bench in benches {
        let transform = Transform::UuHeuristic(HeuristicOptions::default());
        keys.push(Key { bench, target: None, config: "heuristic", transform });
        let mut cold_seen = 0usize;
        for l in loop_list(bench) {
            if !bench.info.hot_kernels.contains(&l.func.as_str()) {
                cold_seen += 1;
                if fast && cold_seen > 3 {
                    continue;
                }
            }
            let l = Arc::new(l);
            for (config, transform) in sweep_configs() {
                keys.push(Key { bench, target: Some(Arc::clone(&l)), config, transform });
            }
        }
    }
    keys
}

/// The sweep as a view over measured `points`: an [`AppSummary`] per
/// heuristic key and a [`LoopPoint`] per loop key of `keys`, in order.
pub fn view(points: &Points, keys: &[Key<'_>]) -> Sweep {
    let (apps, loops): (Vec<&Key<'_>>, Vec<&Key<'_>>) =
        keys.iter().partition(|k| k.target.is_none());
    Sweep {
        points: loops.into_iter().map(|k| loop_point(points, k)).collect(),
        apps: apps.into_iter().map(|k| summary(points, k)).collect(),
    }
}

/// The heuristic key `k`'s [`AppSummary`]. A faulted heuristic degrades
/// to a diagnosed copy of the baseline, and a checksum mismatch against
/// the baseline is recorded, never reported as a speedup.
fn summary(points: &Points, k: &Key<'_>) -> AppSummary {
    let (bench, app) = (k.bench, k.bench.info.name);
    let base = points.base(bench);
    let mut heur = points.get(k).clone().unwrap_or_else(|e| {
        let mut h = base.clone();
        h.rung = e.meta.rung;
        h.diag = format!("{}: {e}", k.what());
        h
    });
    if let Some(d) = equivalence_diag(base, &heur, &format!("{app} heuristic")) {
        append_diag(&mut heur.diag, &d);
    }
    let heuristic_med = median_of_20(
        heur.time_ms,
        bench.info.paper_rsd_pct,
        seed_for(app, &LoopRef { func: "heuristic".into(), loop_id: 0 }, "heur"),
    );
    let mut diag = base.diag.clone();
    append_diag(&mut diag, &heur.diag);
    AppSummary {
        app: app.to_string(),
        baseline: base.clone(),
        heuristic: heur,
        baseline_med: baseline_median(bench, base),
        heuristic_med,
        rsd: bench.info.paper_rsd_pct,
        rest_size: bench.info.binary_rest_size,
        diag,
    }
}

/// Run the per-loop sweep for `benches` on `jobs` workers under `fault`,
/// through `backend` (cache, compile daemon, both or neither): a [`view`]
/// over a plan of the sweep's own [`keys`]. The backend changes wall time,
/// never bytes, and so does `jobs`: every point is an isolated compile +
/// simulate with its own noise-model seed (keyed on the point, not on
/// execution order), and every degradation decision is a pure
/// function of the point.
pub fn run_sweep_backed(
    benches: &[Benchmark],
    fast: bool,
    jobs: usize,
    fault: Option<FaultPlan>,
    backend: Backend<'_>,
) -> Sweep {
    let keys = keys(benches, fast);
    let mut plan = Plan::new(jobs, fault, backend);
    plan.add(&keys);
    view(&plan.run(), &keys)
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
        let jobs = uu_par::parse_jobs(None).unwrap();
        let sweep = run_sweep_backed(&benches, true, jobs, None, Backend::default());
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
