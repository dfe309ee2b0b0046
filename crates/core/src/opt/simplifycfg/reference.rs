//! simplifycfg's scans as they were before they stopped building a `Vec`
//! per block: predecessor lists as owned per-block lists, renamed by hand
//! through the merge scan, and a pruning sweep that touches every phi.
//! Kept as the reference the pass must match bit for bit (arena and
//! exact change bit included); see `opt::rewrite_equivalence`.

use super::{fold_constant_branches, resolve_all_trivial_phis};
use crate::clone::resolve_trivial_phis_in;
use uu_ir::{BlockId, EntitySet, Function, InstKind, SecondaryMap};

/// The pass with the reference scans.
pub(crate) fn run(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut round = false;
        round |= fold_constant_branches(f);
        round |= resolve_all_trivial_phis(f);
        round |= thread_empty_blocks(f);
        round |= merge_straightline_pairs(f);
        round |= prune_unreachable(f) > 0;
        if !round {
            break;
        }
        changed = true;
    }
    changed
}

/// `Function::prune_unreachable` as it was: every phi of the layout is
/// touched, whether or not it loses an incoming.
fn prune_unreachable(f: &mut Function) -> usize {
    let mut keep = vec![false; f.num_block_slots()];
    for b in f.reachable_blocks() {
        keep[b.index()] = true;
    }
    let dead: EntitySet<BlockId> = f
        .layout()
        .iter()
        .copied()
        .filter(|b| !keep[b.index()])
        .collect();
    let before = f.num_blocks();
    f.remove_blocks(&dead);
    for b in f.layout().to_vec() {
        for phi in f.phis(b).to_vec() {
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                incomings.retain(|(p, _)| keep[p.index()]);
            }
        }
    }
    before - f.num_blocks()
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
        for phi in f.phis(target).to_vec() {
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
                for phi in f.phis(succ).to_vec() {
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
