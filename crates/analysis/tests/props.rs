//! Property tests for the analyses: structural invariants of the dominator
//! tree and the loop forest must hold on every generated kernel, both
//! analyses must be deterministic functions of the IR, and the worklist
//! uniformity and divergence analyses must equal their round-robin
//! references.

mod reference;

use uu_check::{build_kernel, check, Config, KernelSpec};
use uu_analysis::{DomTree, LoopForest, Uniformity};
use uu_ir::{Function, FunctionBuilder, ICmpPred, Param, Type, Value};

#[test]
fn dominator_tree_invariants() {
    check(
        "dominator_tree_invariants",
        &Config::from_env(64),
        |spec: &KernelSpec| {
            let f = build_kernel(spec);
            let dom = DomTree::compute(&f);
            if dom.root() != f.entry() {
                return Err("dom tree root is not the entry block".into());
            }
            for &b in f.layout() {
                if !dom.is_reachable(b) {
                    continue;
                }
                if !dom.dominates(f.entry(), b) {
                    return Err(format!("entry does not dominate reachable {b:?}"));
                }
                if b != f.entry() {
                    let idom = dom
                        .idom(b)
                        .ok_or_else(|| format!("reachable non-entry {b:?} has no idom"))?;
                    if !dom.strictly_dominates(idom, b) {
                        return Err(format!("idom {idom:?} does not strictly dominate {b:?}"));
                    }
                }
                // Every predecessor-reachable block's idom dominates all its
                // predecessors' common dominators; cheap spot check: the idom
                // dominates the block but not vice versa.
                if b != f.entry() && dom.dominates(b, dom.idom(b).unwrap()) {
                    return Err(format!("{b:?} dominates its own idom"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn loop_forest_invariants() {
    check(
        "loop_forest_invariants",
        &Config::from_env(64),
        |spec: &KernelSpec| {
            let f = build_kernel(spec);
            let dom = DomTree::compute(&f);
            let forest = LoopForest::compute(&f, &dom);
            for l in forest.loops() {
                if !l.blocks.contains(&l.header) {
                    return Err(format!("loop {:?}: header not in blocks", l.header));
                }
                for &latch in &l.latches {
                    if !l.blocks.contains(&latch) {
                        return Err(format!("loop {:?}: latch {latch:?} not in blocks", l.header));
                    }
                    if !f.successors(latch).contains(&l.header) {
                        return Err(format!(
                            "loop {:?}: latch {latch:?} has no back edge to header",
                            l.header
                        ));
                    }
                }
                for &b in &l.blocks {
                    if !dom.dominates(l.header, b) {
                        return Err(format!(
                            "loop {:?}: header does not dominate member {b:?}",
                            l.header
                        ));
                    }
                }
                if l.depth == 0 {
                    return Err(format!("loop {:?}: zero depth", l.header));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn analyses_are_deterministic() {
    check(
        "analyses_are_deterministic",
        &Config::from_env(32),
        |spec: &KernelSpec| {
            let f = build_kernel(spec);
            let fmt = |f: &uu_ir::Function| {
                let dom = DomTree::compute(f);
                let forest = LoopForest::compute(f, &dom);
                let idoms: Vec<_> = f.layout().iter().map(|&b| (b, dom.idom(b))).collect();
                let loops: Vec<_> = forest
                    .loops()
                    .iter()
                    .map(|l| (l.header, l.blocks.clone(), l.latches.clone(), l.depth))
                    .collect();
                format!("{idoms:?}\n{loops:?}")
            };
            let a = fmt(&f);
            let b = fmt(&f);
            if a != b {
                return Err(format!("recompute differed:\n{a}\nvs\n{b}"));
            }
            Ok(())
        },
    );
}

#[test]
fn uniformity_matches_round_robin_reference() {
    check(
        "uniformity_matches_round_robin_reference",
        &Config::from_env(64),
        |spec: &KernelSpec| reference::first_mismatch(&build_kernel(spec)).map_or(Ok(()), Err),
    );
}

/// A thread-divergent `break` out of a two-loop nest: the exiting branch
/// sits in the inner loop but leaves both, so the temporal rule must taint
/// the outer counter, which is used after the nest and tainted by no other
/// rule, and the join rule the phi at the nest's exit. The inner counter
/// never escapes and stays uniform.
#[test]
fn uniformity_matches_reference_on_divergent_break_from_nest() {
    let mut f = Function::new(
        "brk",
        vec![Param::new("p", Type::Ptr), Param::new("n", Type::I64)],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let [oh, ih, body, latch, exit] = [(); 5].map(|_| b.create_block());
    b.switch_to(entry);
    let gid = b.global_thread_id();
    b.br(oh);
    b.switch_to(oh);
    let i = b.phi(Type::I64);
    b.add_phi_incoming(i, entry, Value::imm(0i64));
    let ci = b.icmp(ICmpPred::Slt, i, Value::Arg(1));
    b.cond_br(ci, ih, exit);
    b.switch_to(ih);
    let j = b.phi(Type::I64);
    b.add_phi_incoming(j, oh, Value::imm(0i64));
    let cj = b.icmp(ICmpPred::Slt, j, Value::Arg(1));
    b.cond_br(cj, body, latch);
    b.switch_to(body);
    let j1 = b.add(j, Value::imm(1i64));
    b.add_phi_incoming(j, body, j1);
    let hit = b.icmp(ICmpPred::Eq, j, gid);
    b.cond_br(hit, exit, ih);
    b.switch_to(latch);
    let i1 = b.add(i, Value::imm(1i64));
    b.add_phi_incoming(i, latch, i1);
    b.br(oh);
    b.switch_to(exit);
    let last = b.phi(Type::I64);
    b.add_phi_incoming(last, oh, Value::imm(0i64));
    b.add_phi_incoming(last, body, Value::imm(1i64));
    let addr = b.gep(Value::Arg(0), i, 8);
    b.store(addr, last);
    b.ret(None);
    uu_ir::verify_function(&f).unwrap();

    assert_eq!(reference::first_mismatch(&f), None);
    let uni = Uniformity::compute(&f);
    assert!(uni.is_divergent(i) && uni.is_divergent(last));
    assert!(uni.is_uniform(j) && uni.is_uniform(j1));
}
