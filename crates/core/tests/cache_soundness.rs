//! Soundness of the per-function [`AnalysisCache`] under the pipeline's
//! invalidation rule: *invalidate iff the invocation changed the function
//! and the pass does not preserve the CFG*. A stale dominator tree served
//! after a CFG-clobbering pass would silently mis-scope GVN and condprop,
//! so these tests pin the protocol down directly.

use uu_analysis::{AnalysisCache, DomTree};
use uu_core::opt::{condprop::CondProp, gvn::Gvn, simplifycfg::SimplifyCfg, Pass, PassScope};
use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

/// entry -> chooser -(c)-> {t | f} -> merge -> tail chain, with a
/// re-evaluated condition in the merge for GVN/condprop to chew on and an
/// empty forwarding block for simplifycfg to thread away.
fn build() -> uu_ir::Function {
    let mut f = uu_ir::Function::new(
        "k",
        vec![Param::new("x", Type::I64), Param::new("p", Type::Ptr)],
        Type::Void,
    );
    let e = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let t = b.create_block();
    let el = b.create_block();
    let fwd = b.create_block(); // empty forwarding block
    let m = b.create_block();
    b.switch_to(e);
    let c = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::imm(0i64));
    b.cond_br(c, t, el);
    b.switch_to(t);
    let v1 = b.add(Value::Arg(0), Value::imm(1i64));
    b.store(Value::Arg(1), v1);
    b.br(fwd);
    b.switch_to(fwd);
    b.br(m);
    b.switch_to(el);
    let v2 = b.add(Value::Arg(0), Value::imm(2i64));
    b.store(Value::Arg(1), v2);
    b.br(m);
    b.switch_to(m);
    let p = b.phi(Type::I64);
    b.add_phi_incoming(p, fwd, v1);
    b.add_phi_incoming(p, el, v2);
    // Re-evaluated condition: GVN unifies it with `c` from the entry.
    let c2 = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::imm(0i64));
    let s = b.select(c2, p, Value::imm(0i64));
    b.store(Value::Arg(1), s);
    b.ret(None);
    f
}

/// Drive one pass under the pipeline's rule, returning whether it changed.
fn drive(p: &mut dyn Pass, f: &mut uu_ir::Function, cache: &mut AnalysisCache) -> bool {
    let changed = p.run_with(f, cache);
    if changed && !p.preserves_cfg() {
        cache.invalidate();
    }
    changed
}

/// Every dominator fact the cache serves must match a from-scratch
/// recomputation on the current function.
fn assert_cache_fresh(f: &uu_ir::Function, cache: &mut AnalysisCache) {
    let cached = cache.dominators(f);
    let fresh = DomTree::compute(f);
    for &b in f.layout() {
        assert_eq!(
            cached.idom(b),
            fresh.idom(b),
            "stale idom for {b} (cached {:?}, fresh {:?})",
            cached.idom(b),
            fresh.idom(b)
        );
        assert_eq!(cached.is_reachable(b), fresh.is_reachable(b));
    }
    assert_eq!(cached.rpo(), fresh.rpo(), "stale RPO order");
}

#[test]
fn clobbering_pass_invalidates_and_recomputes() {
    let mut f = build();
    uu_ir::verify_function(&f).unwrap();
    let mut cache = AnalysisCache::new();
    // Prime the cache on the original CFG.
    let before = cache.dominators(&f);
    assert_eq!(cache.misses(), 1);
    // SimplifyCfg threads the empty forwarding block away: CFG changes.
    let changed = drive(&mut SimplifyCfg::default(), &mut f, &mut cache);
    assert!(changed, "simplifycfg should thread the forwarding block");
    uu_ir::verify_function(&f).unwrap();
    // The old tree knew the forwarding block; the cache must now serve a
    // tree for the *new* CFG, not the snapshot it had.
    assert_cache_fresh(&f, &mut cache);
    assert_eq!(cache.misses(), 2, "invalidation must force a recompute");
    // And the old handle still describes the old CFG (Rc snapshot), which
    // is exactly why handing out clones is safe across invalidation.
    assert!(before.rpo().len() > cache.dominators(&f).rpo().len());
}

#[test]
fn preserving_passes_reuse_without_staleness() {
    let mut f = build();
    let mut cache = AnalysisCache::new();
    cache.dominators(&f);
    assert_eq!(cache.misses(), 1);
    // GVN unifies the re-evaluated condition; condprop substitutes facts.
    // Both only rewrite instructions, so the cached tree stays valid and
    // must NOT be recomputed.
    drive(&mut Gvn, &mut f, &mut cache);
    drive(&mut CondProp, &mut f, &mut cache);
    uu_ir::verify_function(&f).unwrap();
    assert_eq!(cache.misses(), 1, "CFG-preserving passes must hit the cache");
    assert_cache_fresh(&f, &mut cache);
}

#[test]
fn unchanged_clobbering_pass_keeps_cache() {
    // A clobbering pass that reports no change leaves the CFG as the cache
    // saw it — by the rule, no invalidation, and the cache stays correct.
    let mut f = build();
    let mut cache = AnalysisCache::new();
    // First clobber for real, then re-run: the second run finds nothing.
    let _ = drive(&mut SimplifyCfg::default(), &mut f, &mut cache);
    cache.dominators(&f);
    let misses = cache.misses();
    let changed = drive(&mut SimplifyCfg::default(), &mut f, &mut cache);
    assert!(!changed, "second simplifycfg run should be a no-op");
    assert_eq!(cache.misses(), misses);
    assert_cache_fresh(&f, &mut cache);
}

#[test]
fn loop_forest_invalidates_with_the_tree() {
    let f = build();
    let mut cache = AnalysisCache::new();
    let lf = cache.loop_forest(&f);
    assert_eq!(lf.loops().len(), 0);
    let m_primed = cache.misses();
    // Repeat queries hit the cache.
    cache.loop_forest(&f);
    cache.dominators(&f);
    assert_eq!(cache.misses(), m_primed);
    // invalidate drops BOTH analyses: the next queries recompute.
    cache.invalidate();
    cache.dominators(&f);
    cache.loop_forest(&f);
    assert_eq!(cache.misses(), m_primed + 2, "both analyses must recompute");
}

/// A pass that splits the entry's first edge with a fresh forwarding block
/// — a CFG edit — and reports no change, the way `baseline-unroll` does
/// when its loop canonicalisation runs and the unroll then declines.
struct SilentSplit;

impl Pass for SilentSplit {
    fn name(&self) -> &'static str {
        "silent-split"
    }

    fn run(&mut self, f: &mut uu_ir::Function) -> bool {
        let entry = f.entry();
        let term = f.terminator(entry).unwrap();
        let uu_ir::InstKind::CondBr { if_true, .. } = f.inst(term).kind else {
            return false;
        };
        let mid = f.add_block();
        f.append_inst(mid, uu_ir::Inst::new(uu_ir::InstKind::Br { target: if_true }, Type::Void));
        if let uu_ir::InstKind::CondBr { if_true, .. } = &mut f.inst_mut(term).kind {
            *if_true = mid;
        }
        false
    }
}

#[test]
fn a_cfg_edit_reported_as_no_change_still_invalidates() {
    // The scope's rule reads the exact change bit, not the report: the
    // split must drop the cached tree even though the pass returned false.
    let mut f = build();
    let mut scope = PassScope::default();
    let before = scope.cache().dominators(&f);
    assert!(!scope.run(&mut f, &mut SilentSplit), "the pass reports no change");
    uu_ir::verify_function(&f).unwrap();
    assert_cache_fresh(&f, scope.cache());
    assert!(before.rpo().len() < scope.cache().dominators(&f).rpo().len());
    // Nor is a pass that changed the function settled: it runs again.
    assert_eq!(scope.settled("silent-split"), None);
}

#[test]
fn a_settled_pass_is_elided_until_the_function_changes() {
    /// Counts its runs and changes nothing.
    struct Idle(usize);
    impl Pass for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }
        fn run(&mut self, _: &mut uu_ir::Function) -> bool {
            self.0 += 1;
            false
        }
    }
    let mut f = build();
    let mut scope = PassScope::default();
    let mut idle = Idle(0);
    scope.run(&mut f, &mut idle);
    scope.run(&mut f, &mut idle);
    assert_eq!(idle.0, 1, "the second run is elided");
    assert_eq!(scope.settled("idle"), Some(uu_analysis::cost::function_size(&f)));
    // A real change anywhere unsettles every pass.
    assert!(scope.run(&mut f, &mut SimplifyCfg::default()));
    assert_eq!(scope.settled("idle"), None);
    scope.run(&mut f, &mut idle);
    assert_eq!(idle.0, 2);
}
