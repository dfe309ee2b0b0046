//! `BENCH_compile` — compile-side throughput over the fast-sweep matrix.
//!
//! Each `compile/<app>` entry times every pipeline configuration the fast
//! sweep compiles for one application (the baseline and heuristic compiles
//! plus the per-loop configuration product, with cold loops capped at three
//! exactly as in `uu_harness::run_sweep_backed(_, fast = true, ..)`),
//! without running the simulator — the pure compile side of a cold
//! cacheless fast sweep.
//! Work units are the deterministic compile clock (`CompileOutcome::work`),
//! so `units_per_sec / 1000` is the *measured* work-units-per-millisecond
//! calibration to compare against the frozen `uu_core::WORK_PER_MS`.
//!
//! `pass/<name>` entries carry the per-pass profile from one probe walk of
//! the whole matrix: wall nanoseconds and compile-clock work attributed to
//! each pass, i.e. where a cold sweep's compile time actually goes.
//!
//! The function-level compile memo is cleared before every compile (the
//! `Cold` walks), so all of the above keeps measuring the passes: a memo
//! hit replays a function's charges at zero wall time. One extra `Warm`
//! probe walk per app leaves the memo alone and must charge exactly the
//! same work — the bench aborts otherwise (ci.sh's smoke rung relies on it).
//!
//! `UU_BENCH_APPS=a,b` restricts the matrix to the named applications
//! (ci.sh smoke uses one app to keep the rung fast).

use uu_check::bench::{BenchResult, Harness};
use uu_core::{
    compile, compile_memo_clear, CompileOutcome, HeuristicOptions, LoopFilter, PipelineOptions,
    Transform,
};
use uu_harness::experiment::{loop_list, sweep_configs, COMPILE_TIMEOUT};
use uu_kernels::{all_benchmarks, Benchmark};

/// Whether a matrix walk clears the compile memo before every compile.
#[derive(Clone, Copy, PartialEq)]
enum Memo {
    Cold,
    Warm,
}

/// Compile every configuration the fast sweep compiles for `bench`,
/// returning the outcomes for work and per-pass accounting.
fn compile_matrix(bench: &Benchmark, memo: Memo) -> Vec<CompileOutcome> {
    let mut outcomes = Vec::new();
    let mut run = |transform: Transform, filter: LoopFilter| {
        let mut m = (bench.build)();
        if memo == Memo::Cold {
            compile_memo_clear();
        }
        let opts = PipelineOptions {
            transform,
            filter,
            timeout: Some(COMPILE_TIMEOUT),
            ..Default::default()
        };
        outcomes.push(compile(&mut m, &opts));
    };
    run(Transform::Baseline, LoopFilter::All);
    run(
        Transform::UuHeuristic(HeuristicOptions::default()),
        LoopFilter::All,
    );
    let mut cold_seen = 0usize;
    for l in loop_list(bench) {
        let hot = bench.info.hot_kernels.contains(&l.func.as_str());
        if !hot {
            cold_seen += 1;
            if cold_seen > 3 {
                continue; // fast-sweep cold-loop cap
            }
        }
        for (_, transform) in sweep_configs() {
            run(
                transform,
                LoopFilter::Only {
                    func: l.func.clone(),
                    loop_id: l.loop_id,
                },
            );
        }
    }
    outcomes
}

fn main() {
    let mut h = Harness::new("BENCH_compile");
    let filter = std::env::var("UU_BENCH_APPS").unwrap_or_default();
    let benches: Vec<Benchmark> = all_benchmarks()
        .into_iter()
        .filter(|b| filter.is_empty() || filter.split(',').any(|f| f == b.info.name))
        .collect();

    // Probe walk: deterministic work units per app + the per-pass profile.
    let mut pass_profile: Vec<(&'static str, f64, u64)> = Vec::new();
    let mut app_units: Vec<u64> = Vec::new();
    let mut total_units = 0u64;
    for b in &benches {
        let outcomes = compile_matrix(b, Memo::Cold);
        let units: u64 = outcomes.iter().map(|o| o.work).sum();
        let warm_units: u64 = compile_matrix(b, Memo::Warm).iter().map(|o| o.work).sum();
        assert_eq!(
            warm_units, units,
            "{}: a memo-warm matrix walk must charge the work of a memo-cleared one",
            b.info.name
        );
        for o in &outcomes {
            for t in &o.timings {
                match pass_profile.iter_mut().find(|(n, _, _)| *n == t.name) {
                    Some((_, ns, w)) => {
                        *ns += t.elapsed.as_nanos() as f64;
                        *w += t.work;
                    }
                    None => pass_profile.push((t.name, t.elapsed.as_nanos() as f64, t.work)),
                }
            }
        }
        app_units.push(units);
        total_units += units;
    }

    // Timed entries: wall time of each app's compile matrix; units are the
    // matrix's deterministic compile-clock work.
    let mut total_median_ns = 0.0f64;
    for (b, units) in benches.iter().zip(&app_units) {
        h.bench_batched_units(
            &format!("compile/{}", b.info.name),
            *units,
            || (),
            |()| compile_matrix(b, Memo::Cold),
        );
        total_median_ns += h.results().last().unwrap().median_ns();
    }
    h.push_result(BenchResult {
        name: "compile/matrix-total".into(),
        iters_per_sample: 1,
        samples_ns: vec![total_median_ns.max(1.0)],
        units_per_iter: total_units,
    });
    // Per-pass profile: units/sec is each pass's measured work-units-per-
    // second throughput on this machine.
    for (name, ns, work) in pass_profile {
        h.push_result(BenchResult {
            name: format!("pass/{name}"),
            iters_per_sample: 1,
            samples_ns: vec![ns.max(1.0)],
            units_per_iter: work,
        });
    }
    h.finish();
}
