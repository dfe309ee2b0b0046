//! Regeneration of the paper's Table I and Figures 6–8 from a [`Sweep`].

use crate::experiment::{sweep_configs, LoopRef};
use crate::report::{ascii_table, bar, write_csv, write_text};
use crate::stats::{geomean, noisy_runs, rsd_pct};
use crate::sweep::{LoopPoint, Sweep};
use std::io;
use std::path::Path;

/// Emit `table1.txt` / `table1.csv`: the Table I reproduction.
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn table1(sweep: &Sweep, out: &Path, benches: &[uu_kernels::Benchmark]) -> io::Result<()> {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (s, b) in sweep.apps.iter().zip(benches) {
        assert_eq!(s.app, b.info.name);
        let base_runs = noisy_runs(s.baseline.time_ms, s.rsd, 20, 11);
        let heur_runs = noisy_runs(s.heuristic.time_ms, s.rsd, 20, 12);
        let pct_c = 100.0 * s.baseline.time_ms / (s.baseline.time_ms + s.baseline.transfer_ms);
        rows.push(vec![
            s.app.clone(),
            b.info.category.to_string(),
            b.info.table_loops.to_string(),
            format!("{pct_c:.2}%"),
            format!(
                "{:.4} ± {:.2}%",
                crate::stats::mean(&base_runs),
                rsd_pct(&base_runs)
            ),
            format!(
                "{:.4} ± {:.2}%",
                crate::stats::mean(&heur_runs),
                rsd_pct(&heur_runs)
            ),
        ]);
        csv.push(format!(
            "{},{},{},{:.2},{:.6},{:.2},{:.6},{:.2}",
            s.app,
            b.info.table_loops,
            b.info.cli.replace(',', ";"),
            pct_c,
            crate::stats::mean(&base_runs),
            rsd_pct(&base_runs),
            crate::stats::mean(&heur_runs),
            rsd_pct(&heur_runs),
        ));
    }
    let text = format!(
        "Table I — benchmark overview (simulated; times in simulated ms)\n{}",
        ascii_table(
            &[
                "Name",
                "Category",
                "L",
                "%C",
                "Baseline mean ± RSD",
                "Heuristic mean ± RSD"
            ],
            &rows
        )
    );
    write_text(&out.join("table1.txt"), &text)?;
    write_csv(
        &out.join("table1.csv"),
        "name,loops,cli,compute_pct,baseline_mean_ms,baseline_rsd_pct,heuristic_mean_ms,heuristic_rsd_pct",
        &csv,
    )?;
    Ok(())
}

/// Emit Figure 6a/6b/6c data (`fig6{a,b,c}.csv`) and an ASCII summary.
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn fig6(sweep: &Sweep, out: &Path) -> io::Result<()> {
    for (fig, field, label) in [
        ("fig6a", 0usize, "speedup"),
        ("fig6b", 1, "code size increase"),
        ("fig6c", 2, "compile time increase"),
    ] {
        let mut csv = Vec::new();
        for p in sweep
            .points
            .iter()
            .filter(|p| p.config.starts_with("uu"))
        {
            let v = [p.speedup, p.size_ratio, p.compile_ratio][field];
            csv.push(format!(
                "{},{},{},{},{:.6},{},{}",
                p.app,
                p.loop_ref.func,
                p.loop_ref.loop_id,
                p.config,
                v,
                p.timed_out,
                p.rung.as_str()
            ));
        }
        // Heuristic rows (one per app).
        for s in &sweep.apps {
            let v = [s.speedup(), s.size_ratio(), s.compile_ratio()][field];
            csv.push(format!(
                "{},heuristic,,heuristic,{v:.6},false,{}",
                s.app,
                s.heuristic.rung.as_str()
            ));
        }
        write_csv(
            &out.join(format!("{fig}.csv")),
            "app,func,loop,config,value,timed_out,rung",
            &csv,
        )?;

        // ASCII: per-app best/worst/heuristic.
        let mut rows = Vec::new();
        for s in &sweep.apps {
            let vals: Vec<f64> = sweep
                .points
                .iter()
                .filter(|p| p.app == s.app && p.config.starts_with("uu"))
                .map(|p| [p.speedup, p.size_ratio, p.compile_ratio][field])
                .collect();
            if vals.is_empty() {
                continue;
            }
            let best = vals.iter().cloned().fold(f64::MIN, f64::max);
            let worst = vals.iter().cloned().fold(f64::MAX, f64::min);
            let heur = [s.speedup(), s.size_ratio(), s.compile_ratio()][field];
            rows.push(vec![
                s.app.clone(),
                format!("{worst:.3}"),
                format!("{best:.3}"),
                format!("{heur:.3}"),
                bar(heur, 24),
            ]);
        }
        let heur_all: Vec<f64> = sweep
            .apps
            .iter()
            .map(|s| [s.speedup(), s.size_ratio(), s.compile_ratio()][field])
            .collect();
        let text = format!(
            "Figure 6{} — {label} of u&u (factors 2/4/8 per loop) and heuristic\n{}\nheuristic geomean: {:.3}\n",
            ["a", "b", "c"][field],
            ascii_table(&["app", "min", "max", "heuristic", ""], &rows),
            geomean(&heur_all),
        );
        write_text(&out.join(format!("{fig}.txt")), &text)?;
    }
    Ok(())
}

/// Emit Figure 7: per-application best speedup per configuration.
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn fig7(sweep: &Sweep, out: &Path) -> io::Result<()> {
    let configs: Vec<&str> = sweep_configs().into_iter().map(|(name, _)| name).collect();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for s in &sweep.apps {
        let mut row = vec![s.app.clone()];
        let mut line = s.app.clone();
        for &c in &configs {
            let best = sweep
                .points
                .iter()
                .filter(|p| p.app == s.app && p.config == c)
                .map(|p| p.speedup)
                .fold(f64::NAN, f64::max);
            row.push(format!("{best:.3}"));
            line.push_str(&format!(",{best:.6}"));
        }
        rows.push(row);
        csv.push(line);
    }
    let header: Vec<&str> = std::iter::once("app").chain(configs).collect();
    let text = format!(
        "Figure 7 — best per-loop speedup per application and configuration\n{}",
        ascii_table(&header, &rows)
    );
    write_text(&out.join("fig7.txt"), &text)?;
    write_csv(&out.join("fig7.csv"), &header.join(","), &csv)?;
    Ok(())
}

/// Emit Figure 8a/8b scatter data: u&u speedup vs unroll (8a) / unmerge
/// (8b) per loop.
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn fig8(sweep: &Sweep, out: &Path) -> io::Result<()> {
    // Per scatter: each u&u point, its factor and its partner's speedup.
    let mut a: Vec<(&LoopPoint, &str, f64)> = Vec::new();
    let mut b = Vec::new();
    // Index once: (app, loop, config) → speedup (the sweep has one point
    // per key; a linear scan per point would be quadratic).
    let index: std::collections::HashMap<(&str, &LoopRef, &str), f64> = sweep
        .points
        .iter()
        .map(|p| ((p.app, &*p.loop_ref, p.config), p.speedup))
        .collect();
    for factor in ["2", "4", "8"] {
        for p in sweep.points.iter().filter(|p| p.config == format!("uu{factor}")) {
            let partner = |cfg: &str| index.get(&(p.app, &*p.loop_ref, cfg)).copied();
            if let Some(u) = partner(&format!("unroll{factor}")) {
                a.push((p, factor, u));
            }
            if let Some(um) = partner("unmerge") {
                b.push((p, factor, um));
            }
        }
    }
    let csv = |rows: &[(&LoopPoint, &str, f64)]| -> Vec<String> {
        rows.iter()
            .map(|(p, factor, other)| {
                let (func, id) = (&p.loop_ref.func, p.loop_ref.loop_id);
                format!("{},{func},{id},{factor},{:.6},{other:.6}", p.app, p.speedup)
            })
            .collect()
    };
    let pairs = |rows: &[(&LoopPoint, &str, f64)]| -> Vec<(f64, f64)> {
        rows.iter().map(|(p, _, other)| (p.speedup, *other)).collect()
    };
    write_csv(
        &out.join("fig8a.csv"),
        "app,func,loop,factor,uu_speedup,unroll_speedup",
        &csv(&a),
    )?;
    write_csv(
        &out.join("fig8b.csv"),
        "app,func,loop,factor,uu_speedup,unmerge_speedup",
        &csv(&b),
    )?;
    write_text(
        &out.join("fig8.txt"),
        &format!(
            "Figure 8a (u&u vs unroll, per loop & factor)\n{}\nFigure 8b (u&u vs unmerge)\n{}",
            scatter_summary(&pairs(&a), "unroll"),
            scatter_summary(&pairs(&b), "unmerge")
        ),
    )?;
    Ok(())
}

/// ASCII summary of fig8 scatter `(u&u, other)` speedup pairs: counts by
/// region relative to the diagonal, a ±2% band counting as a tie.
fn scatter_summary(pairs: &[(f64, f64)], other: &str) -> String {
    let (mut below, mut near, mut above) = (0, 0, 0);
    for &(uu, ot) in pairs {
        if uu > ot * 1.02 {
            below += 1;
        } else if ot > uu * 1.02 {
            above += 1;
        } else {
            near += 1;
        }
    }
    format!(
        "u&u wins: {below}   ties (±2%): {near}   {other} wins: {above}   (n = {})\n",
        pairs.len()
    )
}

/// Emit `faults.csv` / `faults.txt`: the fault-tolerance report listing
/// every data point that did not compile-and-run cleanly — its degradation
/// rung and contained-failure diagnostics. Always written (an empty table
/// on a clean sweep) so downstream tooling and the CI determinism diff see
/// a stable file set.
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn faults(sweep: &Sweep, out: &Path) -> io::Result<()> {
    // CSV-quote the diag column: diagnostics contain commas and newlines.
    let quote = |s: &str| format!("\"{}\"", s.replace('"', "\"\"").replace('\n', " | "));
    let mut csv = Vec::new();
    let mut rows = Vec::new();
    for s in &sweep.apps {
        if s.baseline.rung != uu_core::Rung::Full
            || s.heuristic.rung != uu_core::Rung::Full
            || !s.diag.is_empty()
        {
            let rung = s.baseline.rung.max(s.heuristic.rung);
            csv.push(format!(
                "{},app,,heuristic,{},{}",
                s.app,
                rung.as_str(),
                quote(&s.diag)
            ));
            rows.push(vec![
                s.app.clone(),
                "<app>".to_string(),
                "heuristic".to_string(),
                rung.as_str().to_string(),
                truncate(&s.diag, 80),
            ]);
        }
    }
    for p in &sweep.points {
        if p.rung == uu_core::Rung::Full && p.diag.is_empty() {
            continue;
        }
        csv.push(format!(
            "{},{},{},{},{},{}",
            p.app,
            p.loop_ref.func,
            p.loop_ref.loop_id,
            p.config,
            p.rung.as_str(),
            quote(&p.diag)
        ));
        rows.push(vec![
            p.app.to_string(),
            format!("{}#{}", p.loop_ref.func, p.loop_ref.loop_id),
            p.config.to_string(),
            p.rung.as_str().to_string(),
            truncate(&p.diag, 80),
        ]);
    }
    let text = if rows.is_empty() {
        "Fault report — all points compiled and ran cleanly (rung: full)\n".to_string()
    } else {
        format!(
            "Fault report — {} point(s) degraded or diagnosed\n{}",
            rows.len(),
            ascii_table(&["app", "loop", "config", "rung", "diagnostic"], &rows)
        )
    };
    write_csv(&out.join("faults.csv"), "app,func,loop,config,rung,diag", &csv)?;
    write_text(&out.join("faults.txt"), &text)?;
    Ok(())
}

/// Emit Figure 9: the three-way unmerge/meld study — every (hot loop,
/// configuration) point as CSV, plus an ASCII per-application summary of
/// the best speedup each leg (u&u, meld, u&u+meld) achieves.
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn fig9(study: &crate::study::Study, out: &Path) -> io::Result<()> {
    let quote = |s: &str| format!("\"{}\"", s.replace('"', "\"\"").replace('\n', " | "));
    let mut csv = Vec::new();
    for p in &study.points {
        csv.push(format!(
            "{},{},{},{},{:.6},{:.6},{:.6},{},{},{}",
            p.app,
            p.loop_ref.func,
            p.loop_ref.loop_id,
            p.config,
            p.speedup,
            p.size_ratio,
            p.compile_ratio,
            p.timed_out,
            p.rung.as_str(),
            quote(&p.diag)
        ));
    }
    write_csv(
        &out.join("fig9.csv"),
        "app,func,loop,config,speedup,size_ratio,compile_ratio,timed_out,rung,diag",
        &csv,
    )?;

    // ASCII: per-app best of each leg, plus geomeans across apps.
    let mut apps: Vec<&str> = Vec::new();
    for p in &study.points {
        if !apps.contains(&p.app) {
            apps.push(p.app);
        }
    }
    let best = |app: &str, pred: &dyn Fn(&str) -> bool| -> f64 {
        study
            .points
            .iter()
            .filter(|p| p.app == app && pred(&p.config))
            .map(|p| p.speedup)
            .fold(f64::MIN, f64::max)
    };
    let mut rows = Vec::new();
    let (mut uus, mut melds, mut boths) = (Vec::new(), Vec::new(), Vec::new());
    for app in &apps {
        let u = best(app, &|c| c.starts_with("uu") && !c.ends_with("+meld"));
        let m = best(app, &|c| c == "meld");
        let b = best(app, &|c| c.ends_with("+meld"));
        uus.push(u);
        melds.push(m);
        boths.push(b);
        rows.push(vec![
            app.to_string(),
            format!("{u:.3}"),
            format!("{m:.3}"),
            format!("{b:.3}"),
            bar(u.max(m).max(b), 24),
        ]);
    }
    let text = format!(
        "Figure 9 — three-way study: best per-loop speedup of u&u (2/4/8), meld, and u&u+meld (2/4/8)\n{}\ngeomean: u&u {:.3}   meld {:.3}   u&u+meld {:.3}\n",
        ascii_table(&["app", "u&u", "meld", "u&u+meld", ""], &rows),
        geomean(&uus),
        geomean(&melds),
        geomean(&boths),
    );
    write_text(&out.join("fig9.txt"), &text)?;
    Ok(())
}

/// Emit Table II: the per-loop verdicts of the three-way study — which of
/// u&u, meld, or the combination wins each hot loop (±2% tie band).
///
/// # Errors
///
/// Propagates report-write I/O failures.
pub fn table2(study: &crate::study::Study, out: &Path) -> io::Result<()> {
    let verdicts = crate::study::verdicts(study);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for v in &verdicts {
        rows.push(vec![
            v.app.to_string(),
            format!("{}#{}", v.loop_ref.func, v.loop_ref.loop_id),
            format!("{} ({})", fmt3(v.best_uu.1), v.best_uu.0),
            fmt3(v.meld),
            format!("{} ({})", fmt3(v.best_both.1), v.best_both.0),
            v.winner.to_string(),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.6},meld,{:.6},{},{:.6},{}",
            v.app,
            v.loop_ref.func,
            v.loop_ref.loop_id,
            v.best_uu.0,
            v.best_uu.1,
            v.meld,
            v.best_both.0,
            v.best_both.1,
            v.winner,
        ));
    }
    let mut tally: Vec<(&str, usize)> = Vec::new();
    for w in ["u&u", "meld", "both", "tie"] {
        let n = verdicts.iter().filter(|v| v.winner == w).count();
        tally.push((w, n));
    }
    let text = format!(
        "Table II — per-loop verdicts of the three-way unmerge/meld study (±2% tie band)\n{}\nwins: {}\n",
        ascii_table(
            &["app", "loop", "best u&u", "meld", "best u&u+meld", "winner"],
            &rows
        ),
        tally
            .iter()
            .map(|(w, n)| format!("{w} {n}"))
            .collect::<Vec<_>>()
            .join("   "),
    );
    write_text(&out.join("table2.txt"), &text)?;
    write_csv(
        &out.join("table2.csv"),
        "app,func,loop,best_uu_config,best_uu,meld_config,meld,best_both_config,best_both,winner",
        &csv,
    )?;
    Ok(())
}

fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

fn truncate(s: &str, n: usize) -> String {
    let one_line = s.replace('\n', " | ");
    if one_line.chars().count() <= n {
        one_line
    } else {
        let cut: String = one_line.chars().take(n).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep_backed;
    use uu_kernels::all_benchmarks;

    #[test]
    fn scatter_summary_counts_regions() {
        let pairs = [
            (2.0, 1.0),  // u&u wins
            (1.0, 2.0),  // other wins
            (1.0, 1.01), // tie within 2%
        ];
        let s = scatter_summary(&pairs, "unroll");
        assert_eq!(s, "u&u wins: 1   ties (±2%): 1   unroll wins: 1   (n = 3)\n");
    }

    #[test]
    fn figures_emit_files_for_small_sweep() {
        let benches: Vec<_> = all_benchmarks()
            .into_iter()
            .filter(|b| b.info.name == "bezier-surface")
            .collect();
        let jobs = uu_par::parse_jobs(None).unwrap();
        let sweep = run_sweep_backed(&benches, true, jobs, None, crate::Backend::default());
        let dir = std::env::temp_dir().join("uu_fig_test");
        let _ = std::fs::remove_dir_all(&dir);
        table1(&sweep, &dir, &benches).unwrap();
        fig6(&sweep, &dir).unwrap();
        fig7(&sweep, &dir).unwrap();
        fig8(&sweep, &dir).unwrap();
        faults(&sweep, &dir).unwrap();
        for f in [
            "table1.txt",
            "table1.csv",
            "fig6a.csv",
            "fig6b.csv",
            "fig6c.csv",
            "fig6a.txt",
            "fig7.txt",
            "fig7.csv",
            "fig8a.csv",
            "fig8b.csv",
            "fig8.txt",
            "faults.csv",
            "faults.txt",
        ] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let t1 = std::fs::read_to_string(dir.join("table1.txt")).unwrap();
        assert!(t1.contains("bezier-surface"));
        // A clean sweep reports a clean fault table.
        let ft = std::fs::read_to_string(dir.join("faults.txt")).unwrap();
        assert!(ft.contains("cleanly"), "{ft}");
    }
}
