//! The four design ablations of DESIGN.md, asserted: whole-path vs
//! DBDS-style direct-successor unmerging (§III-A3), early vs late pass
//! position, the heuristic's size bound `c` (§III-C), and the divergence
//! guard §V proposes for `complex`. Each test compiles a real application,
//! runs it on the simulator and checks the verdict. Simulated time is
//! deterministic, so the tests assert orderings; the assert messages print
//! the numbers (kernel time in µs, code size, compile work).

use uu_core::{
    HeuristicOptions, LoopFilter, PassPosition, PipelineOptions, Transform, UnmergeMode,
    UnmergeOptions,
};
use uu_kernels::{all_benchmarks, Benchmark};

fn bench(name: &str) -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap()
}

/// One compiled and simulated configuration.
#[derive(Debug)]
struct Point {
    /// Simulated kernel time, µs.
    time_us: f64,
    /// Code size of the compiled module.
    size: u64,
    /// Deterministic compile work (`CompileOutcome::work`).
    work: u64,
    checksum: f64,
}

fn run(b: &Benchmark, opts: PipelineOptions) -> Point {
    let mut m = (b.build)();
    let out = uu_core::compile(&mut m, &opts);
    let run = (b.run)(&m, &mut uu_simt::Gpu::new()).unwrap();
    Point {
        time_us: run.kernel_time_ms * 1e3,
        size: uu_analysis::cost::module_size(&m),
        work: out.work,
        checksum: run.checksum,
    }
}

/// `uu2` on bezier-surface's blend loop.
fn bezier_uu2(mode: UnmergeMode, position: PassPosition) -> PipelineOptions {
    PipelineOptions {
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
        position,
        ..Default::default()
    }
}

fn heuristic(h: HeuristicOptions) -> PipelineOptions {
    PipelineOptions {
        transform: Transform::UuHeuristic(h),
        ..Default::default()
    }
}

/// Whole-path unmerging (the paper's design) beats DBDS-style duplication
/// of the direct successor only, at the cost of more code; both beat the
/// baseline.
#[test]
fn ablation_unmerge_depth() {
    let b = bench("bezier-surface");
    let base = run(&b, PipelineOptions::default());
    let whole = run(&b, bezier_uu2(UnmergeMode::WholePath, PassPosition::Early));
    let direct = run(
        &b,
        bezier_uu2(UnmergeMode::DirectSuccessor, PassPosition::Early),
    );
    let rows = format!("baseline {base:?}\nwhole path {whole:?}\ndirect successor {direct:?}");
    for p in [&whole, &direct] {
        assert_eq!(p.checksum, base.checksum, "{rows}");
    }
    assert!(whole.time_us < direct.time_us, "{rows}");
    assert!(direct.time_us < base.time_us, "{rows}");
    assert!(whole.size > direct.size, "{rows}");
}

/// Early placement (the paper's choice) beats late placement, which still
/// beats the baseline.
#[test]
fn ablation_pass_position() {
    let b = bench("bezier-surface");
    let base = run(&b, PipelineOptions::default());
    let early = run(&b, bezier_uu2(UnmergeMode::WholePath, PassPosition::Early));
    let late = run(&b, bezier_uu2(UnmergeMode::WholePath, PassPosition::Late));
    let rows = format!("baseline {base:?}\nearly {early:?}\nlate {late:?}");
    for p in [&early, &late] {
        assert_eq!(p.checksum, base.checksum, "{rows}");
    }
    assert!(early.time_us < late.time_us, "{rows}");
    assert!(late.time_us < base.time_us, "{rows}");
}

/// The heuristic's size bound `c` on bn: a larger budget never slows the
/// kernel down, and buys its time with strictly more code and compile
/// work. Even `c` = 64 transforms enough to beat the baseline.
#[test]
fn ablation_heuristic_budget() {
    let b = bench("bn");
    let base = run(&b, PipelineOptions::default());
    let points: Vec<(u64, Point)> = [64, 1024, 16384]
        .into_iter()
        .map(|c| {
            (
                c,
                run(
                    &b,
                    heuristic(HeuristicOptions {
                        c,
                        ..Default::default()
                    }),
                ),
            )
        })
        .collect();
    let mut rows = format!("baseline {base:?}");
    for (c, p) in &points {
        rows += &format!("\nc = {c}: {p:?}");
    }
    for (_, p) in &points {
        assert_eq!(p.checksum, base.checksum, "{rows}");
    }
    for w in points.windows(2) {
        let ((_, lo), (_, hi)) = (&w[0], &w[1]);
        assert!(hi.time_us <= lo.time_us, "{rows}");
        assert!(hi.size > lo.size, "{rows}");
        assert!(hi.work > lo.work, "{rows}");
    }
    assert!(points[0].1.time_us < base.time_us, "{rows}");
}

/// The divergence guard rescues `complex`: with it the heuristic leaves the
/// kernel exactly as the baseline compiles it; without it u&u slows the
/// kernel down.
#[test]
fn ablation_divergence_guard() {
    let b = bench("complex");
    let base = run(&b, PipelineOptions::default());
    let guard = |divergence_guard| {
        run(
            &b,
            heuristic(HeuristicOptions {
                divergence_guard,
                ..Default::default()
            }),
        )
    };
    let (off, on) = (guard(false), guard(true));
    let rows = format!("baseline {base:?}\nguard off {off:?}\nguard on {on:?}");
    for p in [&off, &on] {
        assert_eq!(p.checksum, base.checksum, "{rows}");
    }
    assert_eq!((on.time_us, on.size), (base.time_us, base.size), "{rows}");
    assert!(off.time_us > on.time_us, "{rows}");
    assert!(off.time_us > base.time_us, "{rows}");
}
