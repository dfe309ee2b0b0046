//! Stage-by-stage verifier coverage over the full paper benchmark suite.
//!
//! `uu_core::compile` only guarantees valid IR at the end; a pass that
//! corrupts the function and a later pass that happens to repair it would
//! slip through. This test re-runs the pipeline stages by hand on all 16
//! paper kernels and runs the IR verifier after the transform, after every
//! individual cleanup pass, after baseline unrolling and after
//! if-conversion, so the first corrupting stage is named directly. Each
//! verdict is also checked against the verifier's reference dominance
//! relation, the set-based fixpoint its dominator tree replaced.

#[path = "../../ir/tests/support/fixpoint_dominance.rs"]
mod fixpoint_dominance;

use uu_core::baseline_unroll::{baseline_unroll, BaselineUnrollOptions};
use uu_core::heuristic::run_heuristic;
use uu_core::opt::{
    condprop::CondProp, dce::Dce, gvn::Gvn, ifconvert::IfConvert, instsimplify::InstSimplify,
    sccp::Sccp, simplifycfg::SimplifyCfg, Pass,
};
use uu_core::{uu_loop, HeuristicOptions, UuOptions};
use uu_ir::{verify_function, Function, Module};
use uu_kernels::all_benchmarks;

fn verify_stage(kernel: &str, f: &Function, stage: &str) {
    fixpoint_dominance::assert_verifiers_agree(f, &format!("kernel '{kernel}' after {stage}"));
    verify_function(f).unwrap_or_else(|e| {
        panic!("kernel '{kernel}', function '{}': IR invalid after {stage}: {e}\n{f}", f.name())
    });
}

/// One fixpoint cleanup round-set, verifying after every individual pass.
fn checked_cleanup(kernel: &str, f: &mut Function, stage: &str, max_rounds: usize) {
    for round in 0..max_rounds {
        let mut changed = false;
        macro_rules! checked {
            ($pass:expr) => {{
                let mut p = $pass;
                changed |= p.run(f);
                verify_stage(kernel, f, &format!("{stage} round {round} pass {}", p.name()));
            }};
        }
        checked!(SimplifyCfg::default());
        checked!(InstSimplify);
        checked!(Sccp);
        checked!(SimplifyCfg::default());
        checked!(Gvn);
        checked!(CondProp);
        checked!(Dce);
        if !changed {
            break;
        }
    }
}

/// The transform to exercise, mirroring `apply_transform` for the
/// all-loops filter.
enum Mode {
    Uu(u32),
    Heuristic,
}

fn apply(kernel: &str, f: &mut Function, mode: &Mode) {
    match mode {
        Mode::Uu(factor) => {
            let dom = uu_analysis::DomTree::compute(f);
            let forest = uu_analysis::LoopForest::compute(f, &dom);
            let headers: Vec<_> = forest.loops().iter().map(|l| l.header).collect();
            for h in headers {
                uu_loop(
                    f,
                    h,
                    &UuOptions {
                        factor: *factor,
                        ..Default::default()
                    },
                );
                verify_stage(kernel, f, &format!("uu factor {factor} on a loop"));
            }
        }
        Mode::Heuristic => {
            run_heuristic(f, &HeuristicOptions::default());
            verify_stage(kernel, f, "uu-heuristic");
        }
    }
}

fn pipeline_stages_verify(kernel: &str, m: &mut Module, mode: &Mode) {
    let funcs: Vec<_> = m.iter().map(|(id, _)| id).collect();
    for id in funcs {
        let f = m.function_mut(id);
        apply(kernel, f, mode);
        checked_cleanup(kernel, f, "cleanup-1", 8);
        baseline_unroll(f, &BaselineUnrollOptions::default());
        verify_stage(kernel, f, "baseline-unroll");
        checked_cleanup(kernel, f, "cleanup-2", 8);
        IfConvert.run(f);
        verify_stage(kernel, f, "ifconvert");
        checked_cleanup(kernel, f, "cleanup-3", 8);
    }
}

#[test]
fn every_stage_verifies_on_all_kernels_uu2() {
    let benches = all_benchmarks();
    assert_eq!(benches.len(), 16, "the paper suite has 16 kernels");
    for b in &benches {
        let mut m = (b.build)();
        pipeline_stages_verify(b.info.name, &mut m, &Mode::Uu(2));
    }
}

#[test]
fn every_stage_verifies_on_all_kernels_heuristic() {
    for b in &all_benchmarks() {
        let mut m = (b.build)();
        pipeline_stages_verify(b.info.name, &mut m, &Mode::Heuristic);
    }
}
