//! The verifier's phi-incoming check against a copy of the check it
//! replaced: per block a sorted copy of the predecessors, per phi a sorted
//! copy of its labels and a deduplicated copy of that. The verifier now
//! sorts both into two buffers reused across blocks and finds duplicates
//! as equal neighbours; it must report the same messages in the same
//! order, so the same verdict.
//!
//! Inputs: the `uu-check` corpus and 64 generated kernels, each as built
//! and after `uu4` (unmerging makes the wide phis), every function of the
//! bundled applications, and each of those broken by seeded corruptions:
//! a second terminator (`corrupt_function`), a duplicated phi incoming, a
//! dropped one, and one from a block that is no predecessor.

use uu_check::{build_kernel, corpus::load_corpus, Gen, KernelSpec, Rng};
use uu_core::recover::corrupt_function;
use uu_core::{uu_loop, UnmergeOptions};
use uu_ir::{verify_function, BlockId, Function, InstKind};
use uu_kernels::all_benchmarks;

/// The phi check as it was, on its own: its messages, in order.
fn reference_phi_messages(f: &Function) -> Vec<String> {
    let mut errs = Vec::new();
    let preds = f.predecessors();
    for &b in f.layout() {
        let mut pred_set: Vec<BlockId> = preds[b.index()].to_vec();
        pred_set.sort();
        for &phi in f.phis(b) {
            if let InstKind::Phi { incomings } = &f.inst(phi).kind {
                let mut inc: Vec<BlockId> = incomings.iter().map(|(p, _)| *p).collect();
                inc.sort();
                let mut dedup = inc.clone();
                dedup.dedup();
                if dedup.len() != inc.len() {
                    errs.push(format!(
                        "phi %{} in {b} has duplicate incomings",
                        phi.index()
                    ));
                }
                if inc != pred_set {
                    errs.push(format!(
                        "phi %{} in {b} incomings {inc:?} do not match predecessors {pred_set:?}",
                        phi.index()
                    ));
                }
            }
        }
    }
    errs
}

/// Which kinds of phi message the comparisons met: duplicate, mismatch.
#[derive(Default)]
struct Seen {
    functions: usize,
    duplicate: usize,
    mismatch: usize,
}

/// Panic unless the verifier's phi-check messages equal the reference's.
fn assert_agrees(f: &Function, what: &str, seen: &mut Seen) {
    let want = reference_phi_messages(f);
    let verdict = verify_function(f);
    let got: Vec<String> = match &verdict {
        Ok(()) => Vec::new(),
        Err(e) => e
            .messages
            .iter()
            .filter(|m| {
                m.ends_with("has duplicate incomings") || m.contains("do not match predecessors")
            })
            .cloned()
            .collect(),
    };
    assert_eq!(
        got, want,
        "{what}: phi check differs from its reference\n{f}"
    );
    assert!(
        want.is_empty() || verdict.is_err(),
        "{what}: phi errors, yet verified"
    );
    seen.functions += 1;
    seen.duplicate += want.iter().any(|m| m.ends_with("duplicate incomings")) as usize;
    seen.mismatch += want.iter().any(|m| m.contains("do not match")) as usize;
}

/// A phi with at least one incoming, picked by `seed`.
fn pick_phi(f: &Function, seed: u64) -> Option<uu_ir::InstId> {
    let phis: Vec<_> = f
        .layout()
        .iter()
        .flat_map(|&b| f.phis(b).iter().copied())
        .collect();
    let phi = *phis.get(seed as usize % phis.len().max(1))?;
    match &f.inst(phi).kind {
        InstKind::Phi { incomings } if !incomings.is_empty() => Some(phi),
        _ => None,
    }
}

/// Break one phi of `f` as `how` says: 0 duplicates an incoming, 1 drops
/// one, 2 adds one from a layout block that is not a predecessor. Returns
/// whether anything changed.
fn corrupt_phi(f: &mut Function, seed: u64, how: u64) -> bool {
    let Some(phi) = pick_phi(f, seed) else {
        return false;
    };
    let stranger = f.layout()[seed as usize % f.num_blocks()];
    let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind else {
        unreachable!("pick_phi returns phis")
    };
    let at = seed as usize % incomings.len();
    match how {
        0 => incomings.insert(at, incomings[at]),
        1 => {
            incomings.remove(at);
        }
        _ => incomings.push((stranger, incomings[at].1)),
    }
    true
}

/// `f` and its seeded corruptions.
fn check_with_corruptions(f: &Function, what: &str, seen: &mut Seen) {
    assert_agrees(f, what, seen);
    for seed in 0..3u64 {
        let mut g = f.clone();
        if corrupt_function(&mut g, seed) {
            assert_agrees(&g, &format!("{what}, corrupt seed {seed}"), seen);
        }
        for how in 0..3 {
            let mut g = f.clone();
            if corrupt_phi(&mut g, seed, how) {
                assert_agrees(
                    &g,
                    &format!("{what}, phi corruption {how} seed {seed}"),
                    seen,
                );
            }
        }
    }
}

/// A kernel as built and after `uu4` on its loop.
fn check_kernel(kernel: Function, what: &str, seen: &mut Seen) {
    check_with_corruptions(&kernel, what, seen);
    let header = kernel.layout()[1];
    let mut g = kernel;
    uu_loop(&mut g, header, 4, UnmergeOptions::default());
    check_with_corruptions(&g, &format!("{what} uu4"), seen);
}

#[test]
fn verifier_phi_check_matches_its_reference() {
    let mut seen = Seen::default();
    for (name, spec) in load_corpus() {
        check_kernel(build_kernel(&spec), &format!("corpus {name}"), &mut seen);
    }
    let mut rng = Rng::seed_from_u64(0xF1_5EED);
    for k in 0..64 {
        let spec = KernelSpec::generate(&mut rng);
        check_kernel(
            build_kernel(&spec),
            &format!("generated kernel {k}"),
            &mut seen,
        );
    }
    for b in all_benchmarks() {
        let m = (b.build)();
        for (_, f) in m.iter() {
            check_with_corruptions(f, &format!("{} @{}", b.info.name, f.name()), &mut seen);
        }
    }
    eprintln!(
        "verify_phi_reference: {} functions, {} with duplicate incomings, {} with mismatches",
        seen.functions, seen.duplicate, seen.mismatch
    );
    assert!(seen.duplicate > 0, "no input had duplicate phi incomings");
    assert!(
        seen.mismatch > 0,
        "no input had phi incomings that mismatch"
    );
}
