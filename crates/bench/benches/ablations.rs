//! Ablation benches for the design decisions called out in DESIGN.md:
//! whole-path vs direct-successor unmerging, pass position, heuristic
//! parameters and the divergence guard. The harness times the compile+run
//! machinery; each configuration additionally prints the simulated kernel
//! time it produced (the quantity the ablation is about) before sampling.

use uu_check::bench::Harness;
use uu_core::{
    HeuristicOptions, LoopFilter, PassPosition, PipelineOptions, Transform, UnmergeMode,
    UnmergeOptions,
};
use uu_kernels::all_benchmarks;

fn bench_by_name(name: &str) -> uu_kernels::Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap()
}

/// Compile `b` under `opts` and run it once: the simulated kernel time
/// (ms) and the compiled module's code size.
fn run(b: &uu_kernels::Benchmark, opts: PipelineOptions) -> (f64, u64) {
    let mut m = (b.build)();
    uu_core::compile(&mut m, &opts);
    let mut gpu = uu_simt::Gpu::new();
    let run = (b.run)(&m, &mut gpu).unwrap();
    (run.kernel_time_ms, uu_analysis::cost::module_size(&m))
}

/// Whole-path (the paper's design) vs DBDS-style direct-successor
/// duplication, on the bezier hot loop.
fn ablation_unmerge_depth(h: &mut Harness) {
    let b = bench_by_name("bezier-surface");
    for (name, mode) in [
        ("whole_path", UnmergeMode::WholePath),
        ("direct_successor", UnmergeMode::DirectSuccessor),
    ] {
        let opts = || PipelineOptions {
            transform: Transform::Uu {
                factor: 2,
                unmerge: UnmergeOptions {
                    mode,
                    ..Default::default()
                },
            },
            filter: LoopFilter::Only {
                func: "bezier_blend".into(),
                loop_id: 0,
            },
            ..Default::default()
        };
        let (time_ms, size) = run(&b, opts());
        eprintln!("ablation/unmerge_depth/{name}: kernel {time_ms:.6} ms, size {size}");
        h.bench(&format!("ablation/unmerge_depth/{name}"), || {
            run(&b, opts()).0
        });
    }
}

/// Early (the paper's choice) vs late pass position.
fn ablation_pass_position(h: &mut Harness) {
    let b = bench_by_name("bezier-surface");
    for (name, pos) in [("early", PassPosition::Early), ("late", PassPosition::Late)] {
        let opts = || PipelineOptions {
            transform: Transform::Uu {
                factor: 2,
                unmerge: UnmergeOptions::default(),
            },
            filter: LoopFilter::Only {
                func: "bezier_blend".into(),
                loop_id: 0,
            },
            position: pos,
            ..Default::default()
        };
        let (time_ms, _) = run(&b, opts());
        eprintln!("ablation/position/{name}: kernel {time_ms:.6} ms");
        h.bench(&format!("ablation/position/{name}"), || run(&b, opts()).0);
    }
}

/// Heuristic budget `c`: tiny budgets decline everything, the paper's 1024
/// transforms the profitable loops.
fn ablation_heuristic_budget(h: &mut Harness) {
    let b = bench_by_name("bn");
    for budget in [64u64, 1024, 16384] {
        let opts = || PipelineOptions {
            transform: Transform::UuHeuristic(HeuristicOptions {
                c: budget,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (time_ms, size) = run(&b, opts());
        eprintln!("ablation/heuristic_c/{budget}: kernel {time_ms:.6} ms, size {size}");
        h.bench(&format!("ablation/heuristic_c/{budget}"), || {
            run(&b, opts()).0
        });
    }
}

/// The divergence guard rescuing `complex`.
fn ablation_divergence_guard(h: &mut Harness) {
    let b = bench_by_name("complex");
    for (name, guard) in [("off", false), ("on", true)] {
        let opts = || PipelineOptions {
            transform: Transform::UuHeuristic(HeuristicOptions {
                divergence_guard: guard,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (time_ms, _) = run(&b, opts());
        eprintln!("ablation/divergence_guard/{name}: kernel {time_ms:.6} ms");
        h.bench(&format!("ablation/divergence_guard/{name}"), || {
            run(&b, opts()).0
        });
    }
}

fn main() {
    let mut h = Harness::new("ablations");
    ablation_unmerge_depth(&mut h);
    ablation_pass_position(&mut h);
    ablation_heuristic_budget(&mut h);
    ablation_divergence_guard(&mut h);
    h.finish();
}
