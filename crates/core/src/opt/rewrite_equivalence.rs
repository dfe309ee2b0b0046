//! The passes' cheap forms move no output bit. GVN and instsimplify record
//! their replacements and apply them in one sweep per invocation; their
//! per-replacement references sweep once per replacement. SCCP meets a phi
//! one incoming per event and condprop finds phi incomings by label; their
//! references re-evaluate and rescan whole phis. On every bundled kernel's
//! hot loops, transformed as the study's `uu2`, `uu4`, `uu8` and
//! `uu8+meld` points are, both run on the function at each cleanup stage of
//! the pipeline and must leave equal functions (arena included), the same
//! reported change bit and the same exact change bit. Unmerging with its
//! per-node indexes must leave what its reference leaves, on the same
//! loops, at factors 1 to 8, in both cascade modes, with and without the
//! block cap stopping it.
//!
//! The factor-8 points take minutes in an unoptimised build, which checks
//! up to factor 4; `cargo test --release -p uu-core --lib
//! rewrite_equivalence` runs them all.

use super::{cleanup_round, condprop, gvn, ifconvert::IfConvert, instsimplify, sccp, Pass};
use crate::baseline_unroll::baseline_unroll;
use crate::opt::meld::meld_loop;
use crate::{uu_loop, UnmergeOptions};
use uu_analysis::{DomTree, LoopForest};
use uu_ir::Function;
use uu_kernels::all_benchmarks;

/// Run `pass` on `f`; for a pass with a reference, run both under an
/// armed snapshot, as the pipeline does, the reference on a copy, and
/// compare.
fn checked(f: &mut Function, pass: &mut dyn Pass, point: &str, rewrites: &mut Rewrites) -> bool {
    let reference: fn(&mut Function) -> bool = match pass.name() {
        "gvn" => gvn::run_per_replacement,
        "instsimplify" => instsimplify::run_per_replacement,
        "sccp" => sccp::reference::run,
        "condprop" => condprop::reference::run,
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
        "{point}: {} differs from its reference \
         (reported {changed} vs {expected_changed}, exact {exact} vs {expected_exact})",
        pass.name()
    );
    if changed {
        *rewrites.entry(pass.name()).or_default() += 1;
    }
    changed
}

/// Per checked pass, the invocations that rewrote something.
type Rewrites = std::collections::BTreeMap<&'static str, usize>;

/// The cleanup stages of `optimize_function`, every pass checked; counts
/// the checked invocations that rewrote something.
fn checked_pipeline(f: &mut Function, point: &str, rewrites: &mut Rewrites) {
    let mut cleanup = |f: &mut Function| {
        for _ in 0..crate::pipeline::CLEANUP_ROUNDS {
            if !cleanup_round(|p| checked(f, p, point, rewrites)) {
                break;
            }
        }
    };
    cleanup(f);
    baseline_unroll(f);
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
    let (mut points, mut rewrites) = (0, Rewrites::new());
    for (point, f, header) in hot_loops() {
        for &factor in factors {
            for meld in [false, true] {
                if meld && factor != 8 {
                    continue;
                }
                let point = format!("{point} uu{factor}{}", if meld { "+meld" } else { "" });
                let mut g = f.clone();
                uu_loop(&mut g, header, factor, UnmergeOptions::default());
                if meld {
                    meld_loop(&mut g, header);
                }
                checked_pipeline(&mut g, &point, &mut rewrites);
                points += 1;
            }
        }
    }
    for pass in ["gvn", "instsimplify", "sccp", "condprop"] {
        assert!(
            rewrites.get(pass).is_some_and(|&n| n > 0),
            "{points} points, and no checked {pass} invocation rewrote anything"
        );
    }
}

/// The hot loops of every bundled kernel: (point name, function, header).
fn hot_loops() -> Vec<(String, Function, uu_ir::BlockId)> {
    let mut out = Vec::new();
    for b in all_benchmarks() {
        let m = (b.build)();
        for (_, f) in m.iter() {
            if !b.info.hot_kernels.contains(&f.name()) {
                continue;
            }
            let forest = LoopForest::compute(f, &DomTree::compute(f));
            for (loop_id, l) in forest.loops().iter().enumerate() {
                let point = format!("{} {}#{loop_id}", b.info.name, f.name());
                out.push((point, f.clone(), l.header));
            }
        }
    }
    out
}

/// Unmerging with per-node indexes leaves what the reference leaves —
/// every arena slot, and the same statistics — on every hot loop, at every
/// factor and in both cascade modes, also when the block cap stops it
/// halfway.
#[test]
fn unmerge_matches_its_reference_on_hot_loops() {
    use crate::unmerge::{reference, unmerge_loop, UnmergeMode};
    use crate::uu::uu_loop_with;
    let factors: &[u32] = if cfg!(debug_assertions) {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let (mut points, mut stopped) = (0, 0);
    for (point, f, header) in hot_loops() {
        for &factor in factors {
            for mode in [UnmergeMode::WholePath, UnmergeMode::DirectSuccessor] {
                let mut opts = UnmergeOptions {
                    mode,
                    ..Default::default()
                };
                let mut caps = vec![opts.max_blocks];
                let mut i = 0;
                while i < caps.len() {
                    opts.max_blocks = caps[i];
                    let mut expected = f.clone();
                    let want =
                        uu_loop_with(&mut expected, header, factor, opts, reference::unmerge_loop);
                    let mut g = f.clone();
                    let got = uu_loop_with(&mut g, header, factor, opts, unmerge_loop);
                    let at = format!("{point} uu{factor} {mode:?} max_blocks {}", caps[i]);
                    assert!(g == expected, "{at}: unmerge differs from its reference");
                    assert_eq!(got.unmerge, want.unmerge, "{at}");
                    assert_eq!(
                        (got.applied, got.unrolled),
                        (want.applied, want.unrolled),
                        "{at}"
                    );
                    uu_ir::verify_function(&g).unwrap_or_else(|e| panic!("{at}: {e}"));
                    // Stop the same run halfway through its clones.
                    if i == 0 && want.unmerge.blocks_cloned >= 2 {
                        caps.push(expected.num_blocks() - want.unmerge.blocks_cloned / 2);
                    }
                    stopped += want.unmerge.hit_limit as usize;
                    points += 1;
                    i += 1;
                }
            }
        }
    }
    assert!(
        stopped > 0,
        "{points} points, and the block cap never stopped one"
    );
}

/// The same checks on generated kernels under `uu4`: unmerging against its
/// reference, then every cleanup stage with each pass against its own.
#[test]
fn references_agree_on_generated_kernels_after_uu4() {
    use crate::unmerge::{reference, unmerge_loop};
    use crate::uu::uu_loop_with;
    use uu_check::{build_kernel, check, Config, KernelSpec};
    let rewrites = std::sync::Mutex::new(Rewrites::new());
    check(
        "references_agree_on_generated_kernels_after_uu4",
        &Config::from_env(32),
        |spec: &KernelSpec| {
            let kernel = build_kernel(spec);
            let header = kernel.layout()[1];
            let opts = UnmergeOptions::default();
            let mut expected = kernel.clone();
            let want = uu_loop_with(&mut expected, header, 4, opts, reference::unmerge_loop);
            let mut g = kernel.clone();
            let got = uu_loop_with(&mut g, header, 4, opts, unmerge_loop);
            if g != expected || got.unmerge != want.unmerge {
                return Err("unmerge differs from its reference".into());
            }
            let mut local = Rewrites::new();
            checked_pipeline(&mut g, "generated kernel uu4", &mut local);
            let mut all = rewrites.lock().unwrap();
            for (pass, n) in local {
                *all.entry(pass).or_default() += n;
            }
            Ok(())
        },
    );
    let rewrites = rewrites.into_inner().unwrap();
    for pass in ["sccp", "condprop"] {
        assert!(
            rewrites.get(pass).is_some_and(|&n| n > 0),
            "no checked {pass} invocation rewrote anything"
        );
    }
}
