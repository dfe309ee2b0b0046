//! `--compare A.json B.json`: per workload and end-to-end metric, both
//! values, the ratio with its base, and a verdict under the benchmark's own
//! bounds. Each file is what a whole-benchmark invocation wrote; it may hold
//! several runs of a workload, in which case medians are compared and the
//! quartile spread decides between `regressed` and `unresolved`.

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use uu_harness::stats::median;

/// The verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// B's median is worse by more than the bound, but the run-to-run spread
    /// is wider than the bound and the two sides' runs overlap.
    Unresolved,
}

/// Values of `metric` over the plain runs of `workload` in a results file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map_or(&[][..], Json::items)
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Interquartile range as a share of the median (0 below four samples,
/// where quartiles mean nothing).
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        // The exclusive method of Python's `statistics.quantiles`.
        let pos = (p * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo])
    };
    (q(0.75) - q(0.25)) / median(&v).abs()
}

/// Judge B against A for one metric.
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if m.bound <= spec::EXACT_BOUND {
        return if ma.to_bits() == mb.to_bits() {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    let worse_by = if m.better == "lower" {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if worse_by <= m.bound {
        return Verdict::Ok;
    }
    let overlap = if m.better == "lower" {
        b.iter().copied().fold(f64::INFINITY, f64::min)
            <= a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            >= a.iter().copied().fold(f64::INFINITY, f64::min)
    };
    if spread(a).max(spread(b)) > m.bound && overlap {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

/// Print the comparison table; `Ok(true)` when nothing regressed.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>9}  {:<6} verdict",
        "workload", "metric", "A", "B", "B/A", "unit"
    );
    let mut clean = true;
    for w in &spec::WORKLOADS {
        for m in spec::end_to_end() {
            let (va, vb) = (values(&a, w.name, &m.name), values(&b, w.name, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<12} {:<24} missing from {}",
                    w.name,
                    m.name,
                    if va.is_empty() { path_a } else { path_b }
                );
                clean = false;
                continue;
            }
            let verdict = judge(&m, &va, &vb);
            clean &= verdict == Verdict::Ok;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<12} {:<24} {:>14.6} {:>14.6} {:>9.4}  {:<6} {}",
                w.name,
                m.name,
                ma,
                mb,
                mb / ma,
                m.unit,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("B/A: B's median over A's median (base: A = {path_a}); bounds from BENCHMARK.json");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> MetricSpec {
        spec::end_to_end()
            .into_iter()
            .find(|m| m.name == name)
            .unwrap()
    }

    #[test]
    fn exact_metrics_must_be_equal_and_timings_get_their_bound() {
        let work = metric("compile_work_munits");
        assert_eq!(judge(&work, &[1.5], &[1.5]), Verdict::Ok);
        assert_eq!(judge(&work, &[1.5], &[1.5000001]), Verdict::Regressed);
        let wall = metric("wall_s");
        assert_eq!(
            judge(&wall, &[10.0], &[10.0 * (1.0 + wall.bound) - 0.01]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&wall, &[10.0], &[10.0 * (1.0 + wall.bound) + 0.01]),
            Verdict::Regressed
        );
        let speedup = metric("sim_speedup_geomean");
        assert_eq!(judge(&speedup, &[1.2], &[1.1]), Verdict::Regressed);
    }

    #[test]
    fn wide_overlapping_spreads_are_unresolved() {
        let wall = metric("wall_s");
        let a = [8.0, 10.0, 12.0, 14.0, 9.0];
        let b = [11.0, 13.0, 15.0, 17.0, 12.0];
        assert_eq!(judge(&wall, &a, &b), Verdict::Unresolved);
        let b_clear = [21.0, 23.0, 25.0, 27.0, 22.0];
        assert_eq!(judge(&wall, &a, &b_clear), Verdict::Regressed);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..=10], n=4) = [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
