//! Branch-condition propagation.
//!
//! Below the true edge of `br i1 %c, t, f` (when `t`'s only predecessor is
//! that branch), `%c` *is* true — SSA guarantees the value cannot change. The
//! pass substitutes the constant in the dominated region, plus the equality
//! fact when the condition is `icmp eq x, C` (resp. `ne` on the false edge).
//!
//! This is the optimizer's consumer of the provenance that unmerging
//! recovers: in Figure 5 of the paper, the `FT`/`TF`/`FF` loop copies avoid
//! re-evaluating conditions exactly because the re-evaluation (unified with
//! the original condition by GVN) is dominated by a conditional edge.

use super::{Pass, Rows};
use uu_analysis::{AnalysisCache, DomTree};
use uu_ir::{BlockId, Function, ICmpPred, InstId, InstKind, Value};

/// The branch-condition propagation pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct CondProp;

impl Pass for CondProp {
    fn name(&self) -> &'static str {
        "condprop"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        self.run_with(f, &mut AnalysisCache::new())
    }

    // Only rewrites instruction operands (and `sdiv` → `lshr`).
    fn preserves_cfg(&self) -> bool {
        true
    }

    fn run_with(&mut self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
        let labelled = PhiIncomings::new(f);
        let mut subtree = Subtree::default();
        propagate(f, cache, |f, dom, from, to, region| {
            let region = subtree.of(dom, region);
            replace_dominated_uses(f, &labelled, from, to, region)
        })
    }
}

/// Derive the facts in layout order and substitute each in the region it
/// holds in through `replace(f, dom, from, to, region)`.
fn propagate(
    f: &mut Function,
    cache: &mut AnalysisCache,
    mut replace: impl FnMut(&mut Function, &DomTree, Value, Value, BlockId) -> bool,
) -> bool {
    let dom = cache.dominators(f);
    let preds = f.predecessors();
    let mut subtree = Subtree::default();
    let mut changed = false;
    for b in f.layout().to_vec() {
        let Some(t) = f.terminator(b) else { continue };
        let InstKind::CondBr {
            cond,
            if_true,
            if_false,
        } = f.inst(t).kind
        else {
            continue;
        };
        if if_true == if_false {
            continue;
        }
        let Value::Inst(cid) = cond else { continue };
        for (target, truth) in [(if_true, true), (if_false, false)] {
            // Edge-domination via single-predecessor check.
            if preds[target.index()].len() != 1 || preds[target.index()][0] != b {
                continue;
            }
            changed |= replace(f, &dom, cond, Value::imm(truth), target);
            // Equality facts: `x == C` true, or `x != C` false ⇒ x = C.
            if let InstKind::ICmp { pred, lhs, rhs } = f.inst(cid).kind {
                let fact = match (pred, truth) {
                    (ICmpPred::Eq, true) | (ICmpPred::Ne, false) => Some((lhs, rhs)),
                    _ => None,
                };
                if let Some((x, y)) = fact {
                    match (x, y) {
                        (Value::Inst(_), Value::Const(_)) => {
                            changed |= replace(f, &dom, x, y, target);
                        }
                        (Value::Const(_), Value::Inst(_)) => {
                            changed |= replace(f, &dom, y, x, target);
                        }
                        _ => {}
                    }
                }
                // Range fact: `x > C` (C ≥ 0) known true ⇒ x is positive
                // in the region, so `sdiv x, 2^k` is `lshr x, k` — the
                // strength reduction behind the `shr` in the paper's
                // XSBench PTX (Listings 4/5).
                let positive = match (pred, truth) {
                    (ICmpPred::Sgt, true) | (ICmpPred::Sge, true) => rhs
                        .as_const()
                        .and_then(|c| c.as_i64())
                        .is_some_and(|c| c >= 0)
                        .then_some(lhs),
                    (ICmpPred::Sle, false) | (ICmpPred::Slt, false) => rhs
                        .as_const()
                        .and_then(|c| c.as_i64())
                        .is_some_and(|c| c >= -1)
                        .then_some(lhs),
                    _ => None,
                };
                if let Some(x) = positive {
                    changed |= strength_reduce_sdiv(f, x, subtree.of(&dom, target));
                }
            }
        }
    }
    changed
}

/// Rewrite `sdiv x, 2^k` → `lshr x, k` for instructions in `region`, the
/// blocks a fact dominates, where `x` is known positive.
fn strength_reduce_sdiv(f: &mut Function, x: Value, region: &[BlockId]) -> bool {
    use uu_ir::BinOp;
    let mut changed = false;
    for &b in region {
        for ix in 0..f.block(b).insts.len() {
            let i = f.block(b).insts[ix];
            if let InstKind::Bin {
                op: BinOp::SDiv,
                lhs,
                rhs,
            } = f.inst(i).kind
            {
                if lhs != x {
                    continue;
                }
                let Some(c) = rhs.as_const().and_then(|c| c.as_i64()) else {
                    continue;
                };
                if c > 0 && (c & (c - 1)) == 0 {
                    let k = c.trailing_zeros() as i64;
                    f.inst_mut(i).kind = InstKind::Bin {
                        op: BinOp::LShr,
                        lhs,
                        rhs: Value::imm(k),
                    };
                    changed = true;
                }
            }
        }
    }
    changed
}

/// The blocks of dominator subtrees, walked into buffers that every fact
/// of an invocation reuses (the dominator tree's precomputed child
/// adjacency makes a walk linear in the subtree).
#[derive(Default)]
struct Subtree {
    blocks: Vec<BlockId>,
    stack: Vec<BlockId>,
}

impl Subtree {
    /// All blocks in the dominator subtree rooted at `region`, in preorder.
    fn of(&mut self, dom: &DomTree, region: BlockId) -> &[BlockId] {
        self.blocks.clear();
        self.stack.clear();
        self.stack.push(region);
        while let Some(b) = self.stack.pop() {
            self.blocks.push(b);
            self.stack.extend_from_slice(dom.children(b));
        }
        &self.blocks
    }
}

/// The phi incomings of the layout by the predecessor they are labelled
/// with: (phi, position), in compressed rows. The pass rewrites operand
/// values only, so the index stays valid through an invocation.
struct PhiIncomings(Rows<(InstId, u32)>);

impl PhiIncomings {
    fn new(f: &Function) -> PhiIncomings {
        let walk = |each: &mut dyn FnMut(BlockId, InstId, u32)| {
            for &b in f.layout() {
                for &phi in f.phis(b) {
                    if let InstKind::Phi { incomings } = &f.inst(phi).kind {
                        for (k, (p, _)) in incomings.iter().enumerate() {
                            each(*p, phi, k as u32);
                        }
                    }
                }
            }
        };
        let mut by_pred = Rows::counting(f.num_block_slots());
        walk(&mut |p, _, _| by_pred.count(p.index()));
        by_pred.start_filling((InstId::from_index(0), 0));
        walk(&mut |p, phi, k| by_pred.push(p.index(), (phi, k)));
        by_pred.finish();
        PhiIncomings(by_pred)
    }
}

/// Replace uses of `from` with `to` at every use site in `region`, the
/// blocks of a dominator subtree. For phi operands the use site is the
/// incoming predecessor block.
///
/// The non-phi instructions of the region's blocks are checked, and the
/// phi incomings those blocks label (found through `labelled`, wherever
/// the phi lives): a fact costs its region, not the incoming lists of the
/// merges below it, which unmerging makes one incoming per path long.
fn replace_dominated_uses(
    f: &mut Function,
    labelled: &PhiIncomings,
    from: Value,
    to: Value,
    region: &[BlockId],
) -> bool {
    let mut changed = false;
    for &b in region {
        for &(phi, k) in labelled.0.get(b.index()) {
            if let InstKind::Phi { incomings } = &f.inst(phi).kind {
                if incomings[k as usize].1 != from {
                    continue;
                }
            }
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                incomings[k as usize].1 = to;
                changed = true;
            }
        }
        for ix in 0..f.block(b).insts.len() {
            let u = f.block(b).insts[ix];
            let kind = &f.inst(u).kind;
            if kind.is_phi() {
                continue;
            }
            let mut uses = false;
            kind.for_each_operand(|v| uses |= *v == from);
            if uses {
                f.inst_mut(u).kind.for_each_operand_mut(|v| {
                    if *v == from {
                        *v = to;
                    }
                });
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, Param, Type};

    #[test]
    fn condition_known_in_taken_arm() {
        // if (c) { use c } — the use becomes `true`.
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("c", Type::I1), Param::new("p", Type::Ptr)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let x = b.load(Type::I1, Value::Arg(1));
        b.cond_br(x, t, j);
        b.switch_to(t);
        let ext = b.cast(uu_ir::CastOp::Zext, x, Type::I64);
        b.store(Value::Arg(1), ext);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        assert!(CondProp.run(&mut f));
        uu_ir::verify_function(&f).unwrap();
        // The zext in `t` now consumes the constant true.
        let zext = f
            .block(t)
            .insts
            .iter()
            .copied()
            .find(|i| matches!(f.inst(*i).kind, InstKind::Cast { .. }))
            .unwrap();
        match &f.inst(zext).kind {
            InstKind::Cast { value, .. } => assert_eq!(*value, Value::imm(true)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn condition_known_false_in_other_arm() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("p", Type::Ptr)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        b.switch_to(e);
        let x = b.load(Type::I1, Value::Arg(0));
        b.cond_br(x, t, el);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(el);
        let ext = b.cast(uu_ir::CastOp::Zext, x, Type::I64);
        b.store(Value::Arg(0), ext);
        b.ret(None);
        assert!(CondProp.run(&mut f));
        let zext = f
            .block(el)
            .insts
            .iter()
            .copied()
            .find(|i| matches!(f.inst(*i).kind, InstKind::Cast { .. }))
            .unwrap();
        match &f.inst(zext).kind {
            InstKind::Cast { value, .. } => assert_eq!(*value, Value::imm(false)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn equality_fact_propagates_constant() {
        // if (x == 4) { store x } → store 4.
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("p", Type::Ptr)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let x = b.load(Type::I64, Value::Arg(0));
        let c = b.icmp(ICmpPred::Eq, x, Value::imm(4i64));
        b.cond_br(c, t, j);
        b.switch_to(t);
        b.store(Value::Arg(0), x);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        assert!(CondProp.run(&mut f));
        let st = f
            .block(t)
            .insts
            .iter()
            .copied()
            .find(|i| f.inst(*i).kind.writes_memory())
            .unwrap();
        match &f.inst(st).kind {
            InstKind::Store { value, .. } => {
                assert_eq!(value.as_const().unwrap().as_i64(), Some(4))
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn phi_incomings_from_the_region_get_the_fact() {
        // if (x == 4) t else e; j: phi [t: x], [e: x], phi [t: c], [e: c]
        // → phi [t: 4], [e: x], phi [t: true], [e: false].
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("p", Type::Ptr)],
            Type::I64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let x = b.load(Type::I64, Value::Arg(0));
        let c = b.icmp(ICmpPred::Eq, x, Value::imm(4i64));
        b.cond_br(c, t, el);
        b.switch_to(t);
        b.br(j);
        b.switch_to(el);
        b.br(j);
        b.switch_to(j);
        let px = b.phi(Type::I64);
        b.add_phi_incoming(px, t, x);
        b.add_phi_incoming(px, el, x);
        let pc = b.phi(Type::I1);
        b.add_phi_incoming(pc, t, c);
        b.add_phi_incoming(pc, el, c);
        let z = b.cast(uu_ir::CastOp::Zext, pc, Type::I64);
        let r = b.add(px, z);
        b.ret(Some(r));
        let mut expected = f.clone();
        assert!(reference::run(&mut expected));
        assert!(CondProp.run(&mut f));
        assert!(f == expected);
        let incomings = |phi: Value| match &f.inst(phi.as_inst().unwrap()).kind {
            InstKind::Phi { incomings } => incomings.clone(),
            _ => unreachable!(),
        };
        assert_eq!(incomings(px), vec![(t, Value::imm(4i64)), (el, x)]);
        assert_eq!(incomings(pc), vec![(t, Value::imm(true)), (el, Value::imm(false))]);
    }

    #[test]
    fn shared_target_gets_nothing() {
        // Both edges reach j (merge): no fact is valid there.
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("c", Type::I1), Param::new("p", Type::Ptr)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let x = b.load(Type::I1, Value::Arg(1));
        b.cond_br(x, t, j);
        b.switch_to(t);
        b.br(j);
        b.switch_to(j);
        let ext = b.cast(uu_ir::CastOp::Zext, x, Type::I64);
        b.store(Value::Arg(1), ext);
        b.ret(None);
        // j has two preds → nothing provable in j; only `t` (empty) is
        // dominated. No changes expected.
        assert!(!CondProp.run(&mut f));
    }

    use uu_ir::ICmpPred;
}
