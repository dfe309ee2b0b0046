//! The verifier's reference dominance relation: the iterative set-based
//! fixpoint it used before its dominator tree, kept as a test oracle.
//! Quadratic in the number of blocks, so only differential tests run it.

use std::collections::{HashMap, HashSet};
use uu_ir::{verify_function_with, BlockId, Function, VerifyError};

/// `dom[b]`: every layout block that dominates layout block `b`.
pub fn fixpoint_dominators(f: &Function) -> HashMap<BlockId, HashSet<BlockId>> {
    let layout = f.layout();
    let preds = f.predecessors();
    let all: HashSet<BlockId> = layout.iter().copied().collect();
    let mut dom: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
    let entry = f.entry();
    for &b in layout {
        if b == entry {
            dom.insert(b, [b].into_iter().collect());
        } else {
            dom.insert(b, all.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in layout {
            if b == entry {
                continue;
            }
            let mut new: Option<HashSet<BlockId>> = None;
            for &p in &preds[b.index()] {
                if !all.contains(&p) {
                    continue;
                }
                let pd = &dom[&p];
                new = Some(match new {
                    None => pd.clone(),
                    Some(acc) => acc.intersection(pd).copied().collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            new.insert(b);
            if new != dom[&b] {
                dom.insert(b, new);
                changed = true;
            }
        }
    }
    dom
}

/// `verify_function` as it was with the fixpoint: every check is the
/// verifier's own, and only block dominance comes from the sets.
pub fn verify_with_fixpoint(f: &Function) -> Result<(), VerifyError> {
    let dom = fixpoint_dominators(f);
    verify_function_with(f, &|def, user| {
        dom.get(&user).is_some_and(|d| d.contains(&def))
    })
}

/// Panic unless the verifier and the fixpoint oracle agree on `f`:
/// the same verdict and the same messages in the same order.
pub fn assert_verifiers_agree(f: &Function, what: &str) {
    let new = uu_ir::verify_function(f);
    let old = verify_with_fixpoint(f);
    assert!(
        new == old,
        "{what}: dominator-tree verifier and fixpoint oracle disagree\n\
         tree:     {new:?}\nfixpoint: {old:?}\n{f}"
    );
}
