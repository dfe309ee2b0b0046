//! Per-function cache of CFG-derived analyses with pass-declared
//! invalidation.
//!
//! The cleanup driver runs the same short pass list for up to eight rounds,
//! and historically every dominator-hungry pass (GVN, condprop) recomputed
//! [`DomTree`] — and sometimes [`LoopForest`] — from scratch on entry. Most
//! of those recomputations are wasted: a pass that only rewrites
//! instructions inside blocks (GVN, condprop, instsimplify, DCE) leaves the
//! block graph — and therefore every CFG-derived analysis — untouched.
//!
//! [`AnalysisCache`] memoizes both analyses behind [`Rc`] handles (cheap to
//! hand to a pass that is about to mutate the function) and the pipeline
//! invalidates with one rule, declared per pass:
//!
//! > invalidate iff the invocation changed the function **and** the pass
//! > does not preserve the CFG.
//!
//! "Changed" is the exact bit of `Function::snapshot_changed`, not what
//! the pass reports: a pass that grows the CFG while reporting no change
//! must still invalidate.
//!
//! A guarded invocation that rolls back (verifier rejection, injected
//! panic) restores the function exactly, so the cache stays valid without
//! special-casing; fault injections that mutate instructions in place
//! (operator flips) never touch the block graph.

use crate::{DomTree, LoopForest};
use std::rc::Rc;
use uu_ir::Function;

/// Memoized CFG-derived analyses for one function.
///
/// Handles are [`Rc`]-shared: `dominators()` hands out a clone of the
/// cached tree so the caller can keep it across its own mutations of the
/// function (sound only while those mutations preserve the CFG — which is
/// exactly what the invalidation rule enforces at the pipeline level).
#[derive(Default)]
pub struct AnalysisCache {
    dom: Option<Rc<DomTree>>,
    loops: Option<Rc<LoopForest>>,
    /// Number of cache misses (fresh computations) — test/diagnostic hook.
    misses: usize,
}

impl AnalysisCache {
    /// An empty cache; the first query computes.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dominator tree of `f`, computing it on first use.
    pub fn dominators(&mut self, f: &Function) -> Rc<DomTree> {
        if self.dom.is_none() {
            self.misses += 1;
            self.dom = Some(Rc::new(DomTree::compute(f)));
        }
        Rc::clone(self.dom.as_ref().unwrap())
    }

    /// The loop forest of `f`, computing it (and the dominator tree it
    /// depends on) on first use.
    pub fn loop_forest(&mut self, f: &Function) -> Rc<LoopForest> {
        if self.loops.is_none() {
            let dom = self.dominators(f);
            self.misses += 1;
            self.loops = Some(Rc::new(LoopForest::compute(f, &dom)));
        }
        Rc::clone(self.loops.as_ref().unwrap())
    }

    /// Drop every cached analysis: call after a pass changed the CFG.
    pub fn invalidate(&mut self) {
        self.dom = None;
        self.loops = None;
    }

    /// How many fresh analysis computations this cache has performed.
    pub fn misses(&self) -> usize {
        self.misses
    }
}
