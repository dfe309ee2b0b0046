//! The worklist `uu_analysis::Uniformity` and `Divergence` against the
//! round-robin analyses they replaced, slot for slot, on every function of
//! every hot point of the 16 paper applications: baseline, heuristic and
//! each hot loop under all seven sweep configurations. The `uu8` points are
//! the largest CFGs the simulator analyses (640–770 blocks, hundreds of
//! divergent branches). An unoptimised build checks the heuristic and
//! `uu2` points only.

#[path = "../crates/analysis/tests/reference/mod.rs"]
mod reference;

mod hot_points;

use uu_harness::experiment::sweep_configs;
use uu_kernels::all_benchmarks;

#[test]
fn uniformity_matches_round_robin_reference_on_hot_points() {
    let full = !cfg!(debug_assertions);
    let configs: Vec<&str> = if full {
        sweep_configs().into_iter().map(|(c, _)| c).collect()
    } else {
        vec!["uu2"]
    };
    let benches = all_benchmarks();
    assert_eq!(benches.len(), 16);
    let jobs = uu_par::parse_jobs(None).unwrap();
    let results = uu_par::par_map(jobs, &benches, |_, b| {
        let mut checked = 0usize;
        for (label, m) in hot_points::hot_points(b, full, &configs) {
            for (_, f) in m.iter() {
                if let Some(msg) = reference::first_mismatch(f) {
                    return Err(format!("{} {label}: {msg}", b.info.name));
                }
                checked += 1;
            }
        }
        Ok(checked)
    });
    let mut functions = 0;
    for r in results {
        functions += r.unwrap_or_else(|e| panic!("{e}"));
    }
    eprintln!("uniformity matches the reference on {functions} functions");
    assert!(functions > 0);
}
