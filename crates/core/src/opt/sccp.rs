//! Sparse conditional constant propagation.
//!
//! Classic Wegman–Zadeck SCCP over the three-level lattice
//! `Top → Const(c) → Bottom`, with executable-edge tracking. Its optimism is
//! what lets the baseline pipeline *fully unroll* counted loops: unrolling
//! `trip_count + 1` copies leaves a back edge that SCCP proves dead (the
//! last copy's exit condition folds), after which every induction value is a
//! constant and the loop structure evaporates.

use super::{Pass, Rows};
use uu_ir::{fold, BlockId, Constant, EntitySet, Function, InstId, InstKind, SecondaryMap, Value};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Lattice {
    /// No information yet (optimistic).
    Top,
    /// Known constant.
    Const(Constant),
    /// Overdefined.
    Bottom,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Top, x) | (x, Lattice::Top) => x,
            (Lattice::Const(a), Lattice::Const(b)) if a == b => Lattice::Const(a),
            _ => Lattice::Bottom,
        }
    }
}

/// The executable successors of one block. A terminator names at most two
/// blocks, so two slots hold the set: a dense bitset per block would cost
/// O(blocks²) bits on the wide functions unmerging creates.
#[derive(Debug, Clone, Copy, Default)]
struct Succs([Option<BlockId>; 2]);

impl Succs {
    fn contains(&self, b: BlockId) -> bool {
        self.0.contains(&Some(b))
    }

    /// Insert `b`; returns whether it was newly inserted.
    fn insert(&mut self, b: BlockId) -> bool {
        if self.contains(b) {
            return false;
        }
        let free = self.0.iter_mut().find(|s| s.is_none());
        *free.expect("a terminator has at most two successors") = Some(b);
        true
    }
}

/// The SCCP pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sccp;

impl Pass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        let solution = solve(f);
        apply(f, &solution)
    }
}

struct Solution {
    values: SecondaryMap<InstId, Lattice>,
    exec_blocks: EntitySet<BlockId>,
    block_of: SecondaryMap<InstId, BlockId>,
}

fn value_lattice(values: &SecondaryMap<InstId, Lattice>, v: Value) -> Lattice {
    match v {
        Value::Const(c) => Lattice::Const(c),
        Value::Arg(_) => Lattice::Bottom,
        Value::Inst(i) => *values.get(i),
    }
}

/// The Wegman–Zadeck fixpoint. A phi is evaluated whole once, when its
/// block first becomes executable; after that it is met with one incoming
/// per event — the incoming a newly executable edge labels, or the one
/// carrying an operand that lowered — so the work a phi costs is linear in
/// its incomings, however many paths unmerging made merge into it. The
/// meet is monotone, commutative and idempotent, so this reaches the
/// fixpoint that re-evaluating the whole phi on every event reaches.
fn solve(f: &Function) -> Solution {
    let (insts, blocks) = (f.num_inst_slots(), f.num_block_slots());
    let mut values: SecondaryMap<InstId, Lattice> =
        SecondaryMap::with_default_and_capacity(Lattice::Top, insts);
    // Executable edges as the executable successors of each source block.
    let mut exec_edges: SecondaryMap<BlockId, Succs> = SecondaryMap::with_capacity(blocks);
    let mut exec_blocks: EntitySet<BlockId> = EntitySet::new();
    let mut flow: Vec<(BlockId, BlockId)> = Vec::new();
    let mut ssa: Vec<InstId> = Vec::new();
    // Phi meets to make: the phi and the incoming value to meet it with.
    let mut meets: Vec<(InstId, Value)> = Vec::new();

    // Use lists: non-phi users of each value, the phi incomings carrying
    // it (phi, predecessor), and the phi incomings each predecessor labels
    // (phi, value), each in compressed rows filled in layout order.
    let mut block_of: SecondaryMap<InstId, BlockId> =
        SecondaryMap::with_default_and_capacity(f.entry(), insts);
    let mut users: Rows<InstId> = Rows::counting(insts);
    let mut phi_users: Rows<(InstId, BlockId)> = Rows::counting(insts);
    let mut labelled: Rows<(InstId, Value)> = Rows::counting(blocks);
    for_each_use(f, |u| match u {
        Use::Operand { def, .. } => users.count(def.index()),
        Use::Incoming { pred, value, .. } => {
            labelled.count(pred.index());
            if let Value::Inst(d) = value {
                phi_users.count(d.index());
            }
        }
    });
    users.start_filling(InstId::from_index(0));
    phi_users.start_filling((InstId::from_index(0), f.entry()));
    labelled.start_filling((InstId::from_index(0), Value::Arg(0)));
    for_each_use(f, |u| match u {
        Use::Operand { def, user } => users.push(def.index(), user),
        Use::Incoming { phi, pred, value } => {
            labelled.push(pred.index(), (phi, value));
            if let Value::Inst(d) = value {
                phi_users.push(d.index(), (phi, pred));
            }
        }
    });
    users.finish();
    phi_users.finish();
    labelled.finish();
    for &b in f.layout() {
        for &i in &f.block(b).insts {
            block_of.set(i, b);
        }
    }

    let eval = |values: &SecondaryMap<InstId, Lattice>,
                exec_edges: &SecondaryMap<BlockId, Succs>,
                i: InstId,
                b: BlockId|
     -> Lattice {
        let inst = f.inst(i);
        match &inst.kind {
            InstKind::Phi { incomings } => {
                let mut acc = Lattice::Top;
                for (p, v) in incomings {
                    if exec_edges.get(*p).contains(b) {
                        acc = acc.meet(value_lattice(values, *v));
                    }
                }
                acc
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => match value_lattice(values, *cond) {
                Lattice::Const(c) => {
                    let arm = if c.as_bool() == Some(true) {
                        *on_true
                    } else {
                        *on_false
                    };
                    value_lattice(values, arm)
                }
                Lattice::Top => Lattice::Top,
                Lattice::Bottom => value_lattice(values, *on_true)
                    .meet(value_lattice(values, *on_false)),
            },
            InstKind::Load { .. } | InstKind::Store { .. } => Lattice::Bottom,
            InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. } => {
                Lattice::Bottom
            }
            kind => {
                // Pure instruction: fold when all operands are constants.
                let mut any_top = false;
                let mut any_bottom = false;
                kind.for_each_operand(|v| match value_lattice(values, *v) {
                    Lattice::Top => any_top = true,
                    Lattice::Bottom => any_bottom = true,
                    Lattice::Const(_) => {}
                });
                if any_bottom {
                    return Lattice::Bottom;
                }
                if any_top {
                    return Lattice::Top;
                }
                // Substitute constants and fold.
                let mut k = kind.clone();
                k.for_each_operand_mut(|v| {
                    if let Lattice::Const(c) = value_lattice(values, *v) {
                        *v = Value::Const(c);
                    }
                });
                let tmp = uu_ir::Inst::new(k, inst.ty);
                match fold_pure(&tmp) {
                    Some(c) => Lattice::Const(c),
                    None => Lattice::Bottom,
                }
            }
        }
    };

    // Seed with the entry.
    let entry = f.entry();
    exec_blocks.insert(entry);
    let mut newly_exec: Vec<BlockId> = vec![entry];

    loop {
        // Evaluate instructions of newly executable blocks.
        while let Some(b) = newly_exec.pop() {
            for &i in &f.block(b).insts {
                ssa.push(i);
            }
        }
        let (i, new) = if let Some((phi, v)) = meets.pop() {
            (phi, value_lattice(&values, v))
        } else if let Some(i) = ssa.pop() {
            let b = *block_of.get(i);
            if !exec_blocks.contains(b) {
                continue;
            }
            let inst = f.inst(i);
            // Terminators contribute flow edges.
            match &inst.kind {
                InstKind::Br { target } => {
                    flow.push((b, *target));
                    continue;
                }
                InstKind::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    match value_lattice(&values, *cond) {
                        Lattice::Const(c) => {
                            let t = if c.as_bool() == Some(true) {
                                *if_true
                            } else {
                                *if_false
                            };
                            flow.push((b, t));
                        }
                        Lattice::Bottom => {
                            flow.push((b, *if_true));
                            flow.push((b, *if_false));
                        }
                        Lattice::Top => {}
                    }
                    continue;
                }
                _ => {}
            }
            if inst.ty == uu_ir::Type::Void {
                continue;
            }
            (i, eval(&values, &exec_edges, i, b))
        } else {
            if flow.is_empty() {
                break;
            }
            // Process the pending flow edges.
            while let Some((from, to)) = flow.pop() {
                if exec_edges.get_mut(from).insert(to) {
                    if exec_blocks.insert(to) {
                        newly_exec.push(to);
                    } else {
                        // Meet the phis of `to` with their incoming from
                        // the new edge.
                        for &(phi, v) in labelled.get(from.index()) {
                            if *block_of.get(phi) == to {
                                meets.push((phi, v));
                            }
                        }
                    }
                }
            }
            continue;
        };
        let old = *values.get(i);
        let merged = old.meet(new);
        if merged != old {
            values.set(i, merged);
            for &u in users.get(i.index()) {
                ssa.push(u);
            }
            for &(phi, p) in phi_users.get(i.index()) {
                if exec_edges.get(p).contains(*block_of.get(phi)) {
                    meets.push((phi, Value::Inst(i)));
                }
            }
            // The value may gate a branch in the same block.
            if let Some(t) = f.terminator(*block_of.get(i)) {
                ssa.push(t);
            }
        }
    }
    Solution {
        values,
        exec_blocks,
        block_of,
    }
}

/// One use the solver indexes: an operand of a non-phi instruction, or a
/// phi incoming.
enum Use {
    Operand { def: InstId, user: InstId },
    Incoming { phi: InstId, pred: BlockId, value: Value },
}

/// Every use in the layout, in layout and program order.
fn for_each_use(f: &Function, mut each: impl FnMut(Use)) {
    for &b in f.layout() {
        for &i in &f.block(b).insts {
            match &f.inst(i).kind {
                InstKind::Phi { incomings } => {
                    for &(pred, value) in incomings {
                        each(Use::Incoming {
                            phi: i,
                            pred,
                            value,
                        });
                    }
                }
                kind => kind.for_each_operand(|v| {
                    if let Value::Inst(def) = v {
                        each(Use::Operand { def: *def, user: i });
                    }
                }),
            }
        }
    }
}

/// Fold a pure instruction with constant operands (no memory, no control).
fn fold_pure(inst: &uu_ir::Inst) -> Option<Constant> {
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            fold::fold_bin(*op, lhs.as_const()?, rhs.as_const()?)
        }
        InstKind::ICmp { pred, lhs, rhs } => {
            fold::fold_icmp(*pred, lhs.as_const()?, rhs.as_const()?)
        }
        InstKind::FCmp { pred, lhs, rhs } => {
            fold::fold_fcmp(*pred, lhs.as_const()?, rhs.as_const()?)
        }
        InstKind::Cast { op, value } => fold::fold_cast(*op, value.as_const()?, inst.ty),
        InstKind::Gep { base, index, scale } => {
            let b = base.as_const()?.as_i64()?;
            let i = index.as_const()?.as_i64()?;
            Some(Constant::I64(b.wrapping_add(i.wrapping_mul(*scale as i64))))
        }
        InstKind::Intr { which, args } => {
            let consts: Option<Vec<Constant>> = args.iter().map(|a| a.as_const()).collect();
            fold::fold_intrinsic(*which, &consts?, inst.ty)
        }
        _ => None,
    }
}

fn apply(f: &mut Function, sol: &Solution) -> bool {
    let mut changed = false;
    // Replace constant values: the whole solution in one use-rewrite, then
    // unlink the now-unused pure instructions.
    let constant = |i: InstId| match *sol.values.get(i) {
        Lattice::Const(c) => Some(Value::Const(c)),
        _ => None,
    };
    let folded: Vec<InstId> = sol
        .values
        .iter()
        .filter_map(|(i, lat)| matches!(lat, Lattice::Const(_)).then_some(i))
        .collect();
    if !folded.is_empty() {
        changed = true;
        f.replace_uses_with(|v| match v {
            Value::Inst(i) => constant(i),
            _ => None,
        });
    }
    for i in folded {
        // Unlink the pure instruction from the one block holding it.
        if !f.inst(i).kind.has_side_effects() {
            f.unlink_inst(*sol.block_of.get(i), i);
        }
    }
    // Rewrite branches whose conditions are now constant.
    for b in f.layout().to_vec() {
        let Some(t) = f.terminator(b) else { continue };
        if let InstKind::CondBr {
            cond,
            if_true,
            if_false,
        } = f.inst(t).kind
        {
            if let Some(c) = cond.as_const().and_then(|c| c.as_bool()) {
                let (taken, dead) = if c {
                    (if_true, if_false)
                } else {
                    (if_false, if_true)
                };
                f.inst_mut(t).kind = InstKind::Br { target: taken };
                if dead != taken {
                    crate::clone::remove_phi_incomings_from(f, dead, b);
                }
                changed = true;
            }
        }
    }
    // Unlink blocks SCCP proved unreachable, then prune.
    let mut dead: EntitySet<BlockId> = EntitySet::new();
    for &b in f.layout() {
        if !sol.exec_blocks.contains(b) {
            dead.insert(b);
        }
    }
    for b in dead.iter() {
        // Remove phi references first.
        for s in f.successors(b) {
            crate::clone::remove_phi_incomings_from(f, s, b);
        }
    }
    if !dead.is_empty() {
        changed = true;
        f.remove_blocks(&dead);
    }
    f.prune_unreachable();
    changed
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type};

    #[test]
    fn propagates_through_phi_and_kills_dead_arm() {
        // if (true) x = 1 else x = 2; return x + 1  →  ret 2
        let mut f = uu_ir::Function::new("t", vec![], Type::I64);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::imm(true), t, el);
        b.switch_to(t);
        b.br(j);
        b.switch_to(el);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, t, Value::imm(1i64));
        b.add_phi_incoming(p, el, Value::imm(2i64));
        let r = b.add(p, Value::imm(1i64));
        b.ret(Some(r));
        assert!(Sccp.run(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        let term = f.terminator(j).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { value } => {
                assert_eq!(value.unwrap().as_const().unwrap().as_i64(), Some(2))
            }
            _ => unreachable!(),
        }
        assert!(!f.is_linked(el));
    }

    #[test]
    fn optimistic_loop_constant() {
        // i starts at 0 and the "increment" keeps it at 0: SCCP proves i==0.
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
        let i1 = b.mul(i, Value::imm(2i64)); // 0 * 2 == 0
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        assert!(Sccp.run(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        let term = f.terminator(exit).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { value } => {
                assert_eq!(value.unwrap().as_const().unwrap().as_i64(), Some(0))
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn kills_never_taken_backedge() {
        // while (i < 1) i += 1  starting at 0: one iteration; SCCP alone
        // cannot fully fold (phi meets 0 and 1 → bottom), but a *peeled*
        // copy folds. Here we verify the solver is sound: no change beyond
        // executable facts, IR stays valid.
        let mut f = uu_ir::Function::new("t", vec![], Type::I64);
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
        let c = b.icmp(ICmpPred::Slt, i, Value::imm(1i64));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        Sccp.run(&mut f);
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
    }

    #[test]
    fn select_with_known_condition() {
        let mut f = uu_ir::Function::new("t", vec![Param::new("x", Type::I64)], Type::I64);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let c = b.icmp(ICmpPred::Slt, Value::imm(1i64), Value::imm(2i64)); // true
        let s = b.select(c, Value::imm(7i64), Value::Arg(0));
        b.ret(Some(s));
        assert!(Sccp.run(&mut f));
        let term = f.terminator(e).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { value } => {
                assert_eq!(value.unwrap().as_const().unwrap().as_i64(), Some(7))
            }
            _ => unreachable!(),
        }
    }
}
