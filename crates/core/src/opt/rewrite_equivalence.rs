//! Batched use rewriting moves no output bit. GVN and instsimplify record
//! their replacements and apply them in one sweep per invocation; their
//! per-replacement references sweep once per replacement. On every bundled
//! kernel's hot loops, transformed as the study's `uu2`, `uu4`, `uu8` and
//! `uu8+meld` points are, both run on the function at each cleanup stage of
//! the pipeline and must leave equal functions (arena included), the same
//! reported change bit and the same exact change bit.
//!
//! The factor-8 points take minutes in an unoptimised build, which checks
//! `uu2` and `uu4`; `cargo test --release -p uu-core --lib` runs them all.

use super::{cleanup_round, gvn, ifconvert::IfConvert, instsimplify, Pass};
use crate::baseline_unroll::{baseline_unroll, BaselineUnrollOptions};
use crate::opt::meld::meld_loop;
use crate::{uu_loop, UuOptions};
use uu_analysis::{DomTree, LoopForest};
use uu_ir::Function;
use uu_kernels::all_benchmarks;

/// Run `pass` on `f`; for a pass with a per-replacement reference, run
/// both under an armed snapshot, as the pipeline does, the reference on a
/// copy, and compare.
fn checked(f: &mut Function, pass: &mut dyn Pass, point: &str, rewrites: &mut usize) -> bool {
    let reference: fn(&mut Function) -> bool = match pass.name() {
        "gvn" => gvn::run_per_replacement,
        "instsimplify" => instsimplify::run_per_replacement,
        _ => return pass.run(f),
    };
    let mut expected = f.clone();
    expected.snapshot_begin();
    let expected_changed = reference(&mut expected);
    let expected_exact = expected.snapshot_changed();
    f.snapshot_begin();
    let changed = pass.run(f);
    let exact = f.snapshot_changed();
    f.snapshot_commit();
    assert!(
        *f == expected && changed == expected_changed && exact == expected_exact,
        "{point}: batched {} differs from its per-replacement reference \
         (reported {changed} vs {expected_changed}, exact {exact} vs {expected_exact})",
        pass.name()
    );
    *rewrites += changed as usize;
    changed
}

/// The cleanup stages of `optimize_function`, every pass checked; counts
/// the checked invocations that rewrote something.
fn checked_pipeline(f: &mut Function, point: &str, rewrites: &mut usize) {
    let mut cleanup = |f: &mut Function| {
        for _ in 0..crate::PipelineOptions::default().max_rounds {
            if !cleanup_round(|p| checked(f, p, point, rewrites)) {
                break;
            }
        }
    };
    cleanup(f);
    baseline_unroll(f, &BaselineUnrollOptions::default());
    cleanup(f);
    IfConvert.run(f);
    cleanup(f);
}

#[test]
fn batched_rewrites_match_the_per_replacement_references_on_hot_loops() {
    let factors: &[u32] = if cfg!(debug_assertions) {
        &[2, 4]
    } else {
        &[2, 4, 8]
    };
    let (mut points, mut rewrites) = (0, 0);
    for b in all_benchmarks() {
        let m = (b.build)();
        for (_, f) in m.iter() {
            if !b.info.hot_kernels.contains(&f.name()) {
                continue;
            }
            let forest = LoopForest::compute(f, &DomTree::compute(f));
            for (loop_id, l) in forest.loops().iter().enumerate() {
                for &factor in factors {
                    for meld in [false, true] {
                        if meld && factor != 8 {
                            continue;
                        }
                        let point = format!(
                            "{} {}#{loop_id} uu{factor}{}",
                            b.info.name,
                            f.name(),
                            if meld { "+meld" } else { "" }
                        );
                        let mut g = f.clone();
                        let opts = UuOptions {
                            factor,
                            ..Default::default()
                        };
                        uu_loop(&mut g, l.header, &opts);
                        if meld {
                            meld_loop(&mut g, l.header);
                        }
                        checked_pipeline(&mut g, &point, &mut rewrites);
                        points += 1;
                    }
                }
            }
        }
    }
    assert!(
        rewrites > 0,
        "{points} points, and no checked invocation rewrote anything"
    );
}
