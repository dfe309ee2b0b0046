//! The compiled points of a paper application that the analysis and
//! engine checks run on: its heuristic point and each hot loop under a
//! chosen set of sweep configurations, compiled as the sweep compiles them.

use uu_core::{HeuristicOptions, LoopFilter, PipelineOptions, Transform};
use uu_harness::experiment::{loop_list, sweep_configs, COMPILE_TIMEOUT};
use uu_ir::Module;
use uu_kernels::Benchmark;

/// `(label, module)` for the heuristic point (and the baseline point, when
/// asked for) and for every hot loop of `b` under each sweep configuration
/// named in `configs`.
pub fn hot_points(b: &Benchmark, baseline: bool, configs: &[&str]) -> Vec<(String, Module)> {
    let mut points = vec![(
        "heuristic".to_string(),
        Transform::UuHeuristic(HeuristicOptions::default()),
        LoopFilter::All,
    )];
    if baseline {
        points.push(("baseline".to_string(), Transform::Baseline, LoopFilter::All));
    }
    for l in loop_list(b) {
        if !b.info.hot_kernels.contains(&l.func.as_str()) {
            continue;
        }
        for (config, transform) in sweep_configs() {
            if configs.contains(&config) {
                let label = format!("{}/{}/{config}", l.func, l.loop_id);
                let filter = LoopFilter::Only {
                    func: l.func.clone(),
                    loop_id: l.loop_id,
                };
                points.push((label, transform, filter));
            }
        }
    }
    points
        .into_iter()
        .map(|(label, transform, filter)| {
            let mut m = (b.build)();
            let opts = PipelineOptions {
                transform,
                filter,
                timeout: Some(COMPILE_TIMEOUT),
                ..Default::default()
            };
            uu_core::compile(&mut m, &opts);
            (label, m)
        })
        .collect()
}
