//! Per-loop points share their application's module
//! (`experiment::shared_module`): once the baseline has filled the compile
//! memo, a cold-loop point copies and verifies only the function its
//! transform changes, and no compile mutates the shared module.
//!
//! The counters, the shared modules and the memo are thread-local, and
//! each test runs on a thread of its own.

use uu_core::{function_sharing_stats, LoopFilter, PassPosition, PipelineOptions, Transform};
use uu_harness::experiment::{loop_list, measure, shared_module, sweep_configs, LoopRef};
use uu_harness::measure_baseline;
use uu_kernels::{all_benchmarks, Benchmark};

fn xsbench() -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == "XSBench")
        .unwrap()
}

/// Measure XSBench's baseline, then every cold-loop point under every
/// sweep configuration through `measure_backed`, returning each point's
/// `(config, (cloned, verified))` counts.
fn cold_points(b: &Benchmark) -> Vec<(&'static str, (u64, u64))> {
    let base = measure_baseline(b).unwrap();
    let mut out = Vec::new();
    for LoopRef { func, loop_id } in loop_list(b) {
        if b.info.hot_kernels.contains(&func.as_str()) {
            continue;
        }
        for (config, transform) in sweep_configs() {
            let filter = LoopFilter::Only {
                func: func.clone(),
                loop_id,
            };
            let (cloned, verified) = function_sharing_stats();
            measure(b, transform, filter, Some(&base)).unwrap();
            let (c, v) = function_sharing_stats();
            out.push((config, (c - cloned, v - verified)));
        }
    }
    out
}

#[test]
fn a_cold_point_copies_and_verifies_only_the_function_it_changes() {
    let b = xsbench();
    assert_eq!(shared_module(&b).num_functions(), 106);
    let points = cold_points(&b);
    assert_eq!(points.len(), 7 * 209, "every cold loop under every config");
    for (config, (cloned, verified)) in points {
        // The targeted function is copied before its transform runs; the
        // other 105 are the memo's verified bodies, shared.
        assert_eq!(cloned, 1, "{config}");
        // Unmerging a cold loop without branches changes nothing, and the
        // memo then replaces the copy by its verified body too.
        let want = if config == "unmerge" { 0..=1 } else { 1..=1 };
        assert!(want.contains(&verified), "{config}: {verified} verified");
    }
}

#[test]
fn no_compile_mutates_the_shared_module() {
    let b = xsbench();
    let fresh = (b.build)().to_string();
    cold_points(&b);
    // A late-position compile runs a cleanup round over every function
    // after the memo has handed it the shared optimised bodies.
    let mut m = shared_module(&b);
    let late = PipelineOptions {
        transform: Transform::Uu {
            factor: 2,
            unmerge: Default::default(),
        },
        position: PassPosition::Late,
        ..Default::default()
    };
    let out = uu_core::compile(&mut m, &late);
    assert_eq!(out.verify_error, None);
    assert_ne!(m.to_string(), fresh, "the compile changed nothing");
    assert!(
        shared_module(&b).to_string() == fresh,
        "a compile mutated the shared module"
    );
}
