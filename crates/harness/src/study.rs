//! The three-way unmerge/meld study: u&u vs DARM-style melding vs both.
//!
//! The paper's unmerging pass *splits* merged control flow so each path can
//! specialize; DARM melds divergent diamonds so a warp no longer serializes
//! both arms. The literature has never run the two head-to-head — this
//! study does, per hot loop, on the same per-loop sweep machinery as
//! Figures 6–8:
//!
//! * **u&u** — `uu2` / `uu4` / `uu8`, exactly the sweep's configurations;
//! * **meld** — [`uu_core::Transform::Meld`] alone;
//! * **both** — `uu<k>+meld`: u&u first, then melding whatever divergent
//!   diamonds remain in the transformed body.
//!
//! Only hot loops are measured: a cold loop's kernel never launches, so all
//! three legs provably tie at 1.0 and would only pad the report. Because
//! hot loops are never subsampled, the study's output is identical in
//! `--fast` and full runs.
//!
//! The study is a [`view`] over the measurement plan ([`crate::plan`]).
//! Its `uu<k>` keys are the sweep's own, so `uu-harness all` measures them
//! once for both reports, with the same numbers in each.
//!
//! Rendered as `fig9` (per-point data + per-app summary) and `table2`
//! (per-loop verdicts) by [`crate::figures`].

use crate::experiment::{loop_list, sweep_configs, Backend, LoopRef};
use crate::plan::{Key, Plan, Points};
use crate::sweep::{loop_point, LoopPoint};
use std::sync::Arc;
use uu_core::{FaultPlan, Transform, UnmergeOptions};
use uu_kernels::Benchmark;

/// The study's measurement configurations, in report order: the sweep's
/// own `uu<k>` legs, meld alone, and each `uu<k>` followed by meld.
pub fn study_configs() -> Vec<(&'static str, Transform)> {
    let uu_meld = |factor| Transform::UuMeld {
        factor,
        unmerge: UnmergeOptions::default(),
    };
    let uu = sweep_configs().into_iter().filter(|(c, _)| c.starts_with("uu"));
    let mut configs: Vec<_> = uu.collect();
    configs.push(("meld", Transform::Meld));
    configs.extend([("uu2+meld", uu_meld(2)), ("uu4+meld", uu_meld(4)), ("uu8+meld", uu_meld(8))]);
    configs
}

/// The study output: one [`LoopPoint`] per (app, hot loop, configuration).
#[derive(Debug, Clone)]
pub struct Study {
    /// All per-loop points, in (bench, loop, config) order.
    pub points: Vec<LoopPoint>,
}

/// The study's keys: every hot loop of `benches` under every
/// [`study_configs`] configuration, in (bench, loop, config) order.
pub fn keys(benches: &[Benchmark]) -> Vec<Key<'_>> {
    let mut keys = Vec::new();
    for bench in benches {
        for l in loop_list(bench) {
            if !bench.info.hot_kernels.contains(&l.func.as_str()) {
                continue;
            }
            let l = Arc::new(l);
            for (config, transform) in study_configs() {
                keys.push(Key { bench, target: Some(Arc::clone(&l)), config, transform });
            }
        }
    }
    keys
}

/// The study as a view over measured `points`: one [`LoopPoint`] per key.
pub fn view(points: &Points, keys: &[Key<'_>]) -> Study {
    Study {
        points: keys.iter().map(|k| loop_point(points, k)).collect(),
    }
}

/// Run the three-way study: a [`view`] over a plan of the study's own
/// [`keys`], with [`crate::sweep::run_sweep_backed`]'s contract. The
/// artifact cache is shared with the sweep, so the study's `uu<k>` legs hit
/// the artifacts the sweep stored for the same loops.
pub fn run_study_backed(
    benches: &[Benchmark],
    jobs: usize,
    fault: Option<FaultPlan>,
    backend: Backend<'_>,
) -> Study {
    let keys = keys(benches);
    let mut plan = Plan::new(jobs, fault, backend);
    plan.add(&keys);
    view(&plan.run(), &keys)
}

/// Per-loop verdict of the three-way comparison.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Application name.
    pub app: &'static str,
    /// The compared loop.
    pub loop_ref: Arc<LoopRef>,
    /// Best u&u speedup and the factor configuration that achieved it.
    pub best_uu: (&'static str, f64),
    /// Meld-only speedup.
    pub meld: f64,
    /// Best u&u+meld speedup and its configuration.
    pub best_both: (&'static str, f64),
    /// Which leg wins: `u&u`, `meld`, `both`, or `tie` (within ±2%).
    pub winner: &'static str,
}

/// Reduce a study to per-loop verdicts, in study point order.
pub fn verdicts(study: &Study) -> Vec<Verdict> {
    let mut out: Vec<Verdict> = Vec::new();
    for p in &study.points {
        if out
            .iter()
            .any(|v| v.app == p.app && v.loop_ref == p.loop_ref)
        {
            continue;
        }
        let of = |pred: &dyn Fn(&str) -> bool| -> (&'static str, f64) {
            study
                .points
                .iter()
                .filter(|q| q.app == p.app && q.loop_ref == p.loop_ref && pred(q.config))
                .map(|q| (q.config, q.speedup))
                .fold(("", f64::MIN), |acc, x| if x.1 > acc.1 { x } else { acc })
        };
        let best_uu = of(&|c| c.starts_with("uu") && !c.ends_with("+meld"));
        let meld = of(&|c| c == "meld").1;
        let best_both = of(&|c| c.ends_with("+meld"));
        let winner = {
            let (u, m, b) = (best_uu.1, meld, best_both.1);
            let top = u.max(m).max(b);
            let tol = top / 1.02;
            match (u >= tol, m >= tol, b >= tol) {
                (true, false, false) => "u&u",
                (false, true, false) => "meld",
                (false, false, true) => "both",
                _ => "tie",
            }
        };
        out.push(Verdict {
            app: p.app,
            loop_ref: Arc::clone(&p.loop_ref),
            best_uu,
            meld,
            best_both,
            winner,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_kernels::all_benchmarks;

    #[test]
    fn study_covers_every_hot_loop_with_all_configs() {
        let benches: Vec<Benchmark> = all_benchmarks()
            .into_iter()
            .filter(|b| b.info.name == "mandelbrot")
            .collect();
        let s = run_study_backed(&benches, 2, None, Backend::default());
        assert!(!s.points.is_empty());
        assert!(s.points.len().is_multiple_of(study_configs().len()));
        for p in &s.points {
            assert!(p.hot);
            assert!(p.speedup > 0.0, "{p:?}");
            assert!(
                p.diag.is_empty(),
                "study point must be clean (no miscompile): {p:?}"
            );
        }
        let v = verdicts(&s);
        assert_eq!(v.len(), s.points.len() / study_configs().len());
        for verdict in &v {
            assert!(["u&u", "meld", "both", "tie"].contains(&verdict.winner));
        }
    }
}
