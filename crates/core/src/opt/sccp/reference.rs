//! SCCP as it was before its incremental phi meets and its one-pass
//! removal of dead blocks, kept as the reference the pass must match bit
//! for bit (arena included); see `opt::rewrite_equivalence`.

use super::{fold_pure, value_lattice, Lattice, Solution};
use uu_ir::{BlockId, EntitySet, Function, InstId, InstKind, SecondaryMap, Value};

/// Solve, then apply, the way the pass did: every newly executable edge
/// into an executable block and every lowered operand re-evaluates whole
/// phis.
pub(crate) fn run(f: &mut Function) -> bool {
    let solution = solve(f);
    apply(f, &solution)
}

fn solve(f: &Function) -> Solution {
    let mut values: SecondaryMap<InstId, Lattice> = SecondaryMap::with_default(Lattice::Top);
    // Executable edges as one bitset of successors per source block.
    let mut exec_edges: SecondaryMap<BlockId, EntitySet<BlockId>> = SecondaryMap::new();
    let mut exec_blocks: EntitySet<BlockId> = EntitySet::new();
    let mut flow: Vec<(BlockId, BlockId)> = Vec::new();
    let mut ssa: Vec<InstId> = Vec::new();

    // Use lists.
    let mut users: SecondaryMap<InstId, Vec<InstId>> = SecondaryMap::new();
    let mut block_of: SecondaryMap<InstId, BlockId> = SecondaryMap::with_default(f.entry());
    for &b in f.layout() {
        for &i in &f.block(b).insts {
            block_of.set(i, b);
            f.inst(i).kind.for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    users.get_mut(*d).push(i);
                }
            });
        }
    }

    let eval = |values: &SecondaryMap<InstId, Lattice>,
                exec_edges: &SecondaryMap<BlockId, EntitySet<BlockId>>,
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
                Lattice::Bottom => {
                    value_lattice(values, *on_true).meet(value_lattice(values, *on_false))
                }
            },
            InstKind::Load { .. } | InstKind::Store { .. } => Lattice::Bottom,
            InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. } => Lattice::Bottom,
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
        let Some(i) = ssa.pop() else {
            if flow.is_empty() {
                break;
            }
            // Process one flow edge.
            while let Some((from, to)) = flow.pop() {
                if exec_edges.get_mut(from).insert(to) {
                    if exec_blocks.insert(to) {
                        newly_exec.push(to);
                    } else {
                        // Re-evaluate phis of `to` (new incoming edge).
                        for &phi in f.phis(to) {
                            ssa.push(phi);
                        }
                    }
                }
            }
            continue;
        };
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
        let new = eval(&values, &exec_edges, i, b);
        let old = *values.get(i);
        let merged = old.meet(new);
        if merged != old {
            values.set(i, merged);
            for &u in users.get(i) {
                ssa.push(u);
            }
            // The value may gate a branch in the same block.
            if let Some(t) = f.terminator(b) {
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
    let dead: Vec<_> = f
        .layout()
        .to_vec()
        .into_iter()
        .filter(|b| !sol.exec_blocks.contains(*b))
        .collect();
    if !dead.is_empty() {
        changed = true;
    }
    for b in dead {
        // Remove phi references first.
        let succs = f.successors(b);
        for s in succs {
            crate::clone::remove_phi_incomings_from(f, s, b);
        }
        f.remove_block(b);
    }
    f.prune_unreachable();
    changed
}
