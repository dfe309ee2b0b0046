//! CFG simplification: branch folding, jump threading, block merging.

use super::Pass;
use crate::clone::{remove_phi_incomings_from, resolve_trivial_phis_in};
use uu_ir::{BlockId, EntitySet, Function, InstKind, SecondaryMap};

/// Iteratively simplifies the CFG:
///
/// 1. `condbr` on a constant → `br` (dead edge removed from phis);
/// 2. `condbr` with identical targets → `br`;
/// 3. single-incoming phis replaced by their value;
/// 4. empty forwarding blocks (a lone `br`) threaded away;
/// 5. straight-line block pairs merged;
/// 6. unreachable blocks pruned.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimplifyCfg {
    _priv: (),
}

impl Pass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplifycfg"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        let mut changed = false;
        loop {
            let mut round = false;
            round |= fold_constant_branches(f);
            round |= resolve_all_trivial_phis(f);
            round |= thread_empty_blocks(f);
            round |= merge_straightline_pairs(f);
            round |= f.prune_unreachable() > 0;
            if !round {
                break;
            }
            changed = true;
        }
        changed
    }
}

fn fold_constant_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.layout().to_vec() {
        let Some(t) = f.terminator(b) else { continue };
        if let InstKind::CondBr {
            cond,
            if_true,
            if_false,
        } = f.inst(t).kind
        {
            if if_true == if_false {
                f.inst_mut(t).kind = InstKind::Br { target: if_true };
                changed = true;
            } else if let Some(c) = cond.as_const().and_then(|c| c.as_bool()) {
                let (taken, dead) = if c {
                    (if_true, if_false)
                } else {
                    (if_false, if_true)
                };
                f.inst_mut(t).kind = InstKind::Br { target: taken };
                remove_phi_incomings_from(f, dead, b);
                changed = true;
            }
        }
    }
    changed
}

fn resolve_all_trivial_phis(f: &mut Function) -> bool {
    let layout = f.layout().to_vec();
    resolve_trivial_phis_in(f, &layout) > 0
}

/// Thread `P → E → T` to `P → T` when `E` contains only a `br` (no phis).
fn thread_empty_blocks(f: &mut Function) -> bool {
    let mut changed = false;
    // One predecessor map per scan, kept current by hand: threading `E`
    // away moves `E`'s predecessors onto `T` and touches no other list.
    // Each list stays in layout order of the predecessors, as a recompute
    // would build it — the order `T`'s phis gain their incomings in.
    let mut preds = f.predecessors().into_lists();
    let layout = f.layout().to_vec();
    let mut position: SecondaryMap<BlockId, usize> = SecondaryMap::new();
    for (at, &b) in layout.iter().enumerate() {
        position.set(b, at);
    }
    for e in layout {
        if e == f.entry() {
            continue;
        }
        let insts = &f.block(e).insts;
        if insts.len() != 1 {
            continue;
        }
        let InstKind::Br { target } = f.inst(insts[0]).kind else {
            continue;
        };
        if target == e {
            continue; // self loop
        }
        let e_preds = preds[e.index()].clone();
        if e_preds.is_empty() {
            continue; // unreachable; prune will take it
        }
        // Guard: if T has phis and some pred of E is already a pred of T,
        // threading would create conflicting duplicate incomings.
        let t_has_phis = !f.phis(target).is_empty();
        if t_has_phis {
            let t_preds = &preds[target.index()];
            if e_preds.iter().any(|p| t_preds.contains(p)) {
                continue;
            }
        }
        // Retarget every pred of E.
        for &p in &e_preds {
            let pt = f.terminator(p).expect("pred terminator");
            f.inst_mut(pt).kind.replace_block(e, target);
        }
        // Phi incomings in T: the entry from E becomes one entry per pred.
        for phi in f.phis(target) {
            let mut from_e = None;
            if let InstKind::Phi { incomings } = &f.inst(phi).kind {
                for (b, v) in incomings {
                    if *b == e {
                        from_e = Some(*v);
                    }
                }
            }
            if let Some(v) = from_e {
                if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                    incomings.retain(|(b, _)| *b != e);
                    for &p in &e_preds {
                        incomings.push((p, v));
                    }
                }
            }
        }
        f.remove_block(e);
        changed = true;
        let t_preds = &mut preds[target.index()];
        t_preds.retain(|p| *p != e);
        t_preds.extend(e_preds);
        t_preds.sort_by_key(|p| *position.get(*p));
    }
    changed
}

/// Merge `B → S` when `S` is `B`'s only successor and `B` is `S`'s only
/// predecessor.
fn merge_straightline_pairs(f: &mut Function) -> bool {
    let mut changed = false;
    // One forward scan. Merging `S` into `B` changes no other block's
    // successor count and no block's predecessor count (`S`'s successors
    // trade `S` for `B`), so a block that could not merge before still
    // cannot: only `B` itself is worth another look, which is the block a
    // scan restarted from the top would stop at next.
    let mut preds = f.predecessors().into_lists();
    let mut gone: EntitySet<BlockId> = EntitySet::new();
    for b in f.layout().to_vec() {
        if gone.contains(b) {
            continue;
        }
        loop {
            let succs = f.successors(b);
            if succs.len() != 1 {
                break;
            }
            let s = succs[0];
            if s == b || s == f.entry() {
                break;
            }
            if preds[s.index()].len() != 1 {
                break;
            }
            // Double edge (condbr with both targets == s) is already
            // excluded: successors() would report len 2.
            // Resolve S's phis (single incoming) first.
            resolve_trivial_phis_in(f, &[s]);
            if !f.phis(s).is_empty() {
                break; // shouldn't happen; be safe
            }
            // Drop B's terminator, splice S's instructions.
            let bt = f.terminator(b).expect("terminator");
            f.unlink_inst(b, bt);
            let s_insts = std::mem::take(&mut f.block_mut(s).insts);
            f.block_mut(b).insts.extend(s_insts);
            // S's successors' phis now come from B.
            for succ in f.successors(b) {
                for phi in f.phis(succ) {
                    f.inst_mut(phi).kind.replace_block(s, b);
                }
                for p in &mut preds[succ.index()] {
                    if *p == s {
                        *p = b;
                    }
                }
            }
            f.remove_block(s);
            gone.insert(s);
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    #[test]
    fn folds_constant_branch_and_prunes() {
        let mut f = uu_ir::Function::new("t", vec![Param::new("p", Type::Ptr)], Type::I64);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let fl = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::imm(true), t, fl);
        b.switch_to(t);
        b.br(j);
        b.switch_to(fl);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, t, Value::imm(1i64));
        b.add_phi_incoming(p, fl, Value::imm(2i64));
        b.ret(Some(p));
        uu_ir::verify_function(&f).unwrap();
        assert!(SimplifyCfg::default().run(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        // Everything collapses into the entry returning 1.
        assert_eq!(f.num_blocks(), 1);
        let term = f.terminator(f.entry()).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { value } => {
                assert_eq!(value.unwrap().as_const().unwrap().as_i64(), Some(1))
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn merges_straightline_chain() {
        let mut f = uu_ir::Function::new("t", vec![Param::new("p", Type::Ptr)], Type::Void);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let m1 = b.create_block();
        let m2 = b.create_block();
        b.switch_to(e);
        let x = b.load(Type::I64, Value::Arg(0));
        b.br(m1);
        b.switch_to(m1);
        let y = b.add(x, Value::imm(1i64));
        b.br(m2);
        b.switch_to(m2);
        b.store(Value::Arg(0), y);
        b.ret(None);
        assert!(SimplifyCfg::default().run(&mut f));
        uu_ir::verify_function(&f).unwrap();
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.block(f.entry()).insts.len(), 4);
    }

    #[test]
    fn threads_empty_forwarding_block() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("c", Type::I1), Param::new("p", Type::Ptr)],
            Type::I64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let fwd = b.create_block();
        let other = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::Arg(0), fwd, other);
        b.switch_to(fwd);
        b.br(j); // empty forwarder
        b.switch_to(other);
        let x = b.load(Type::I64, Value::Arg(1));
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, fwd, Value::imm(7i64));
        b.add_phi_incoming(p, other, x);
        b.ret(Some(p));
        uu_ir::verify_function(&f).unwrap();
        assert!(SimplifyCfg::default().run(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        // fwd is gone; entry branches straight to j.
        assert!(!f.layout().contains(&fwd));
        let succs = f.successors(f.entry());
        assert!(succs.contains(&j));
    }

    /// The merge as it was before it stopped restarting: recompute the
    /// predecessors and rescan from the top of the layout after every merge.
    fn merge_restarting(f: &mut Function) {
        loop {
            let preds = f.predecessors();
            let candidate = f.layout().iter().copied().find(|&b| {
                let succs = f.successors(b);
                succs.len() == 1
                    && succs[0] != b
                    && succs[0] != f.entry()
                    && preds[succs[0].index()].len() == 1
            });
            let Some(b) = candidate else { return };
            let s = f.successors(b)[0];
            resolve_trivial_phis_in(f, &[s]);
            let bt = f.terminator(b).unwrap();
            f.unlink_inst(b, bt);
            let s_insts = std::mem::take(&mut f.block_mut(s).insts);
            f.block_mut(b).insts.extend(s_insts);
            for succ in f.successors(b) {
                for phi in f.phis(succ) {
                    f.inst_mut(phi).kind.replace_block(s, b);
                }
            }
            f.remove_block(s);
        }
    }

    /// entry → (x → y → z | side) → join: a three-block chain, a trivial
    /// phi in its middle and a real one after its tail, with the chain laid
    /// out after everything else in the order `layout` gives.
    fn three_chain(layout: [usize; 3]) -> Function {
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("c", Type::I1), Param::new("p", Type::Ptr)],
            Type::I64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let chain = [b.create_block(), b.create_block(), b.create_block()];
        let [x, y, z] = chain;
        let side = b.create_block();
        let join = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::Arg(0), x, side);
        b.switch_to(x);
        let v = b.load(Type::I64, Value::Arg(1));
        b.br(y);
        b.switch_to(y);
        let from_x = b.phi(Type::I64);
        b.add_phi_incoming(from_x, x, v);
        let w = b.add(from_x, Value::imm(1i64));
        b.br(z);
        b.switch_to(z);
        b.store(Value::Arg(1), w);
        b.br(join);
        b.switch_to(side);
        b.br(join);
        b.switch_to(join);
        let out = b.phi(Type::I64);
        b.add_phi_incoming(out, z, w);
        b.add_phi_incoming(out, side, Value::imm(0i64));
        b.ret(Some(out));
        for ix in layout {
            f.move_block_to_end(chain[ix]);
        }
        f
    }

    #[test]
    fn merging_without_restarts_performs_the_restarting_merge_sequence() {
        // Head first, head last (x merges blocks laid out before it), tail
        // last with the middle first.
        for layout in [[0, 1, 2], [1, 2, 0], [1, 0, 2], [2, 1, 0]] {
            let f = three_chain(layout);
            uu_ir::verify_function(&f).unwrap();
            let (mut scanned, mut restarted) = (f.clone(), f.clone());
            assert!(merge_straightline_pairs(&mut scanned));
            merge_restarting(&mut restarted);
            assert!(
                scanned == restarted,
                "layout {layout:?}:\n{scanned}\n---\n{restarted}"
            );
            uu_ir::verify_function(&scanned).unwrap_or_else(|er| panic!("{er}\n{scanned}"));
            // x swallowed y and z and now feeds the join's phi itself.
            let x = BlockId::from_index(1);
            assert_eq!(scanned.num_blocks(), 4);
            assert_eq!(scanned.block(x).insts.len(), 4);
            assert!(scanned.predecessors()[5].contains(&x));
        }
    }

    #[test]
    fn threading_two_forwarders_keeps_phi_incomings_in_predecessor_layout_order() {
        // a, b, c reach t through forwarders: b → e1 → e2 → t, a → e2,
        // c → e2; d reaches t directly. Threading e1 moves b onto e2
        // *between* a and c, and threading e2 then hands t's phi one
        // incoming per predecessor in that order.
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::new("c0", Type::I1),
                Param::new("c1", Type::I1),
                Param::new("c2", Type::I1),
            ],
            Type::I64,
        );
        let entry = f.entry();
        let mut bld = FunctionBuilder::new(&mut f);
        let n1 = bld.create_block();
        let n2 = bld.create_block();
        let [a, b, c, d] = [(); 4].map(|()| bld.create_block());
        let e1 = bld.create_block();
        let e2 = bld.create_block();
        let t = bld.create_block();
        bld.switch_to(entry);
        bld.cond_br(Value::Arg(0), a, n1);
        bld.switch_to(n1);
        bld.cond_br(Value::Arg(1), b, n2);
        bld.switch_to(n2);
        bld.cond_br(Value::Arg(2), c, d);
        // Non-empty, so that only e1 and e2 are forwarders.
        for (block, target) in [(a, e2), (b, e1), (c, e2), (d, t)] {
            bld.switch_to(block);
            bld.add(Value::Arg(0), Value::Arg(1));
            bld.br(target);
        }
        bld.switch_to(e1);
        bld.br(e2);
        bld.switch_to(e2);
        bld.br(t);
        bld.switch_to(t);
        let phi = bld.phi(Type::I64);
        bld.add_phi_incoming(phi, e2, Value::imm(7i64));
        bld.add_phi_incoming(phi, d, Value::imm(9i64));
        bld.ret(Some(phi));
        uu_ir::verify_function(&f).unwrap();
        assert!(thread_empty_blocks(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        let (seven, nine) = (Value::imm(7i64), Value::imm(9i64));
        let InstKind::Phi { incomings } = &f.inst(f.phis(t)[0]).kind else {
            unreachable!()
        };
        assert_eq!(*incomings, [(d, nine), (a, seven), (b, seven), (c, seven)]);
        assert_eq!(f.predecessors()[t.index()], [a, b, c, d]);
    }

    #[test]
    fn keeps_loops_intact() {
        // A loop must survive simplification (no infinite merging).
        let mut f = uu_ir::Function::new("t", vec![Param::new("n", Type::I64)], Type::I64);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(e);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, e, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        SimplifyCfg::default().run(&mut f);
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        // The loop still exists.
        let dom = uu_analysis::DomTree::compute(&f);
        let forest = uu_analysis::LoopForest::compute(&f, &dom);
        assert_eq!(forest.len(), 1);
    }

    #[test]
    fn condbr_same_target_becomes_br() {
        let mut f = uu_ir::Function::new("t", vec![Param::new("c", Type::I1)], Type::Void);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let j = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::Arg(0), j, j);
        b.switch_to(j);
        b.ret(None);
        assert!(SimplifyCfg::default().run(&mut f));
        uu_ir::verify_function(&f).unwrap();
        assert_eq!(f.num_blocks(), 1);
    }
}
