//! Fault-injection containment across the whole stack.
//!
//! The tentpole guarantee of the crash-recovery layer (see DESIGN.md
//! "Fault tolerance & crash recovery"): a deterministic fault injected at
//! *any* pass invocation — a panic, verifier-detectable corruption, a
//! silent miscompile, work-budget exhaustion, or a simulated memory fault —
//! is contained by the guarded pass runner, diagnosed in the sweep output,
//! and never aborts the run or poisons the report. And because every
//! degradation decision is a pure function of the point, faulted sweeps
//! stay byte-identical at any worker count.

use std::path::Path;
use uu_core::{FaultPlan, Rung};
use uu_harness::{figures, sweep, Backend};
use uu_kernels::all_benchmarks;

/// The seeded fault matrix: every fault kind, spread over early/mid/late
/// pass indices (and, for memory faults, access counts), with distinct
/// seeds. Specs use the `UU_FAULT` grammar so the test also locks the
/// parser to the documented surface.
const FAULT_MATRIX: &[&str] = &[
    "panic@0:1",
    "panic@3:2",
    "panic@11:3",
    "corrupt@1:4",
    "corrupt@6:5",
    "miscompile@2:6",
    "miscompile@8:7",
    "exhaust@4:8",
    "mem@25:9",
    "mem@400:10",
];

fn small_bench_set() -> Vec<uu_kernels::Benchmark> {
    bench_set(&["mandelbrot", "ccs"])
}

fn bench_set(names: &[&str]) -> Vec<uu_kernels::Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| names.contains(&b.info.name))
        .collect()
}

/// Render every sweep artifact (including the fault report) into `dir` and
/// return `(file name, bytes)` pairs sorted by name.
fn render_all(s: &sweep::Sweep, benches: &[uu_kernels::Benchmark], dir: &Path) -> Vec<(String, Vec<u8>)> {
    std::fs::create_dir_all(dir).unwrap();
    figures::table1(s, dir, benches).unwrap();
    figures::fig6(s, dir).unwrap();
    figures::fig7(s, dir).unwrap();
    figures::fig8(s, dir).unwrap();
    figures::faults(s, dir).unwrap();
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    std::fs::remove_dir_all(dir).ok();
    out
}

/// Property: for every fault in the matrix, the sweep completes, every
/// point lands on a valid rung, at least one point records the fault in
/// its diagnostics, and every report artifact still renders.
#[test]
fn every_injected_fault_is_contained_and_diagnosed() {
    let benches = small_bench_set();
    let tmp = std::env::temp_dir().join(format!("uu-fault-prop-{}", std::process::id()));
    for spec in FAULT_MATRIX {
        let fault = FaultPlan::parse(spec).unwrap();
        // Round-trip: the rendered spec (which normalizes seeds to hex)
        // parses back to the same plan.
        assert_eq!(FaultPlan::parse(&fault.spec()), Ok(fault), "spec round-trip");
        // Containment: the sweep must not panic or abort.
        let s = sweep::run_sweep_backed(&benches, true, 2, Some(fault), Backend::default());
        assert_eq!(s.apps.len(), benches.len(), "{spec}: an app vanished");
        assert!(!s.points.is_empty(), "{spec}: sweep produced no points");
        // Diagnosis: the fault leaves a trace somewhere — a non-Full rung
        // or a recorded diagnostic on a point or app summary. (A fault
        // index past a given compile's pass count legitimately leaves that
        // *point* clean; the matrix indices are chosen to hit at least one
        // compile per spec.)
        let touched = s
            .points
            .iter()
            .map(|p| (p.rung, &*p.diag))
            .chain(s.apps.iter().map(|a| (a.heuristic.rung, a.diag.as_str())))
            .chain(s.apps.iter().map(|a| (a.baseline.rung, a.baseline.diag.as_str())))
            .any(|(rung, diag)| rung != Rung::Full || !diag.is_empty());
        assert!(touched, "{spec}: fault left no trace in any rung or diagnostic");
        // Renderability: every artifact writes cleanly.
        let files = render_all(&s, &benches, &tmp.join("render"));
        assert!(
            files.iter().any(|(n, _)| n == "faults.csv"),
            "{spec}: fault report missing"
        );
        let ftxt = files
            .iter()
            .find(|(n, _)| n == "faults.txt")
            .map(|(_, b)| String::from_utf8_lossy(b).into_owned())
            .unwrap();
        assert!(
            !ftxt.contains("all points compiled and ran cleanly"),
            "{spec}: fault report claims a clean run"
        );
    }
}

/// A faulted sweep is as deterministic as a clean one: the same fault plan
/// at `jobs = 1` and `jobs = 4` produces byte-identical reports.
#[test]
fn faulted_sweeps_are_byte_identical_across_worker_counts() {
    let benches = small_bench_set();
    let tmp = std::env::temp_dir().join(format!("uu-fault-det-{}", std::process::id()));
    for spec in ["panic@3:2", "miscompile@2:6", "mem@25:9"] {
        let fault = Some(FaultPlan::parse(spec).unwrap());
        let serial = render_all(
            &sweep::run_sweep_backed(&benches, true, 1, fault, Backend::default()),
            &benches,
            &tmp.join("j1"),
        );
        let pooled = render_all(
            &sweep::run_sweep_backed(&benches, true, 4, fault, Backend::default()),
            &benches,
            &tmp.join("j4"),
        );
        assert_eq!(serial.len(), pooled.len(), "{spec}: file sets differ");
        for ((an, ab), (bn, bb)) in serial.iter().zip(&pooled) {
            assert_eq!(an, bn, "{spec}: file names diverged");
            assert_eq!(ab, bb, "{spec}: {an} bytes differ between jobs=1 and jobs=4");
        }
    }
}

/// A compile memo warmed by clean compiles must not leak into a faulted
/// sweep: pass-level plans address invocations by index, so a faulted
/// compile bypasses the memo (a `mem` plan targets the simulator and may
/// use it). On one worker everything runs on this thread, whose memo the
/// clean sweep fills. Quicksort has seven functions and sweeps fast; the
/// memo only ever holds functions the swept loop is not in.
#[test]
fn a_memo_warmed_by_a_clean_sweep_does_not_change_a_faulted_sweep() {
    let benches = bench_set(&["quicksort"]);
    let tmp = std::env::temp_dir().join(format!("uu-fault-memo-{}", std::process::id()));
    let specs = ["panic@3:2", "corrupt@6:5", "miscompile@8:7", "exhaust@4:8", "mem@25:9"];
    let sweep_with = |fault| {
        render_all(
            &sweep::run_sweep_backed(&benches, true, 1, fault, Backend::default()),
            &benches,
            &tmp.join("render"),
        )
    };
    let cold: Vec<_> = specs
        .iter()
        .map(|spec| {
            uu_core::compile_memo_clear();
            sweep_with(Some(FaultPlan::parse(spec).unwrap()))
        })
        .collect();
    uu_core::compile_memo_clear();
    sweep_with(None);
    let (hits, _, _) = uu_core::compile_memo_stats();
    assert!(hits > 0, "the clean sweep never hit the memo it was meant to warm");
    for (spec, cold) in specs.iter().zip(&cold) {
        let warm = sweep_with(Some(FaultPlan::parse(spec).unwrap()));
        assert!(warm == *cold, "{spec}: reports differ between a warm and a cold memo");
    }
}

/// Malformed `UU_FAULT` specs are rejected with a message naming the
/// grammar, not silently ignored.
#[test]
fn malformed_fault_specs_are_rejected() {
    for bad in ["", "panic", "panic@", "panic@x", "typo@3", "panic@3:z", "@3"] {
        assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

/// Every invocation index of a clean compile stays addressable, the ones
/// the pass manager elides as settled included: for each index `i` of the
/// clean `pass_log`, an opt-bisect limit of `i + 1` reproduces the log's
/// prefix, `panic@i` fails exactly invocation `i` under the logged pass
/// name, and `miscompile@i` mutates exactly the state invocation `i` left
/// behind. (Each faulted compile is cut at `i + 1`: invocation `i` behaves
/// the same under every larger limit.)
#[test]
fn every_invocation_index_stays_addressable() {
    use uu_core::recover::miscompile_function;
    use uu_core::{compile, FaultKind, PipelineOptions, Transform};
    let (_, spec) = uu_check::corpus::load_corpus().swap_remove(0);
    let mut corpus = uu_ir::Module::new("corpus");
    corpus.add_function(uu_check::build_kernel(&spec));
    let uu2 = Transform::Uu { factor: 2, unmerge: Default::default() };
    let quicksort = (bench_set(&["quicksort"])[0].build)();
    for (label, module, transform) in
        [("corpus", corpus, uu2), ("quicksort", quicksort, Transform::Baseline)]
    {
        let run = |fault: Option<(FaultKind, u64)>, limit: Option<u64>| {
            let mut m = module.clone();
            let opts = PipelineOptions {
                transform: transform.clone(),
                fault: fault.map(|(kind, at)| FaultPlan { kind, at, seed: at }),
                bisect_limit: limit,
                ..Default::default()
            };
            let out = compile(&mut m, &opts);
            (m, out)
        };
        uu_core::compile_memo_clear();
        let (elided, _) = uu_core::pass_elision_stats();
        let log = run(None, None).1.pass_log.to_vec();
        assert!(
            uu_core::pass_elision_stats().0 > elided,
            "{label}: the clean compile elided nothing, so no elided index is tested"
        );
        let mut mutated = 0;
        for (i, inv) in (0u64..).zip(&log) {
            let cut = Some(i + 1);
            let (prefix, out) = run(None, cut);
            assert_eq!(out.pass_log.to_vec(), log[..=i as usize], "{label}: limit {}", i + 1);

            let (_, out) = run(Some((FaultKind::Panic, i)), cut);
            let failed: Vec<_> = out.failures.iter().map(|f| (f.index, f.pass)).collect();
            assert_eq!(failed, [(i, inv.pass)], "{label}: panic@{i}");

            let (got, out) = run(Some((FaultKind::Miscompile, i)), cut);
            assert_eq!(out.pass_log.to_vec(), log[..=i as usize], "{label}: miscompile@{i}");
            let mut want = prefix;
            let (victim, _) = want.iter().find(|(_, f)| *f.name() == *inv.function).unwrap();
            mutated += miscompile_function(want.function_mut(victim), i) as usize;
            assert_eq!(got.to_string(), want.to_string(), "{label}: miscompile@{i}");
        }
        assert!(mutated > 0, "{label}: no miscompile found a site to mutate");
    }
}
