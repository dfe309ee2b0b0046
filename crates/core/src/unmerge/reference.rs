//! The unmerge transform as it was before its per-node indexes, kept as
//! the reference that `unmerge_loop` must match bit for bit (arena
//! included) on every bundled hot loop; see `opt::rewrite_equivalence`.

use super::{supernodes, topo_supernodes, UnmergeMode, UnmergeOptions, UnmergeStats};
use crate::clone::{add_phi_incomings_for_clone, clone_region, resolve_trivial_phis_in};
use uu_analysis::LoopForest;
use uu_ir::{BlockId, EntitySet, Function, InstKind, Preds, SecondaryMap};

/// [`super::unmerge_loop`] as it was before its per-node indexes: every
/// clone copies and filters all of the entry's phi incomings, scans the
/// successor phis and the rest of the layout, and recomputes the
/// predecessor map.
///
/// `forest` is a loop analysis of `f` as it stands and `blocks` the loop's
/// block set from it (after unrolling, the unrolled loop's full set). The
/// header itself is never duplicated. Returns statistics; a loop whose body
/// has no merges is left untouched (`nodes_duplicated == 0`), matching the
/// paper's early return.
pub(crate) fn unmerge_loop(
    f: &mut Function,
    forest: &LoopForest,
    header: BlockId,
    blocks: &[BlockId],
    options: UnmergeOptions,
) -> UnmergeStats {
    let mut stats = UnmergeStats::default();
    let loop_set: EntitySet<BlockId> = blocks.iter().copied().collect();

    let (group_of, mut groups) = supernodes(forest, header, blocks);

    // Topological order of super-nodes along the body DAG (back edges to the
    // loop header ignored; internal edges of a group ignored).
    let topo = topo_supernodes(f, header, &loop_set, &group_of);

    // Original merge set for DirectSuccessor mode.
    let preds_now = f.predecessors();
    let original_merges: EntitySet<BlockId> = topo
        .iter()
        .copied()
        .filter(|&n| n != header && in_loop_preds(&preds_now, n, &group_of).len() >= 2)
        .collect();
    let mut original_pred_sets: SecondaryMap<BlockId, Option<Vec<BlockId>>> = SecondaryMap::new();
    for n in original_merges.iter() {
        original_pred_sets.set(n, Some(in_loop_preds(&preds_now, n, &group_of)));
    }

    // Blocks that cannot hold a use of a value a later node defines: the
    // groups the walk has reached and every clone made so far (see
    // `repair_ssa_after_clone`).
    let mut upstream: EntitySet<BlockId> = EntitySet::new();
    for &node in &topo {
        if node == header {
            continue;
        }
        // Blocks of this super-node. Its own repair scan leaves them out as
        // one of the two copies, so they can join `upstream` right away.
        let group = std::mem::take(groups.get_mut(node));
        for &g in &group {
            upstream.insert(g);
        }
        if options.mode == UnmergeMode::DirectSuccessor && !original_merges.contains(node) {
            continue;
        }
        let preds = f.predecessors();
        let mut incoming: Vec<BlockId> = in_loop_preds(&preds, node, &group_of);
        if options.mode == UnmergeMode::DirectSuccessor {
            // Duplicate only into the *original* predecessors: merges grown
            // by upstream duplication are left as merges (DBDS semantics).
            let orig = original_pred_sets
                .get(node)
                .as_ref()
                .expect("node is an original merge");
            incoming.retain(|p| orig.contains(p));
        }
        if incoming.len() < 2 {
            continue;
        }
        stats.nodes_duplicated += 1;
        // Keep the first predecessor on the original; clone for the rest.
        let mut entries: Vec<BlockId> = vec![node];
        for &p in &incoming[1..] {
            if f.num_blocks() + group.len() > options.max_blocks {
                stats.hit_limit = true;
                return stats;
            }
            let map = clone_region(f, &group);
            stats.blocks_cloned += group.len();
            // Retarget p's edge(s) into the clone of the entry block.
            let t = f.terminator(p).expect("pred has a terminator");
            f.inst_mut(t).kind.replace_block(node, map.map_block(node));
            // Clone entry phis: keep the incoming from p plus any incomings
            // from inside the clone itself (an inner-loop header keeps the
            // incomings from its own cloned latches). Resolution of the
            // now-trivial phis is deferred until the whole node is done:
            // successor-phi patching and SSA repair read the clone values.
            let centry = map.map_block(node);
            entries.push(centry);
            let clone_blocks: EntitySet<BlockId> = map.cloned_blocks().collect();
            for phi in f.phis(centry) {
                if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                    incomings.retain(|(b, _)| *b == p || clone_blocks.contains(*b));
                }
            }
            // Original entry loses the incoming from p.
            crate::clone::remove_phi_incomings_from(f, node, p);
            // Successor phis outside the group gain incomings from the
            // clone (loop header via back edges, exits, downstream blocks).
            for &g in &group {
                for s in f.successors(g) {
                    if group.contains(&s) {
                        continue;
                    }
                    add_phi_incomings_for_clone(f, s, g, &map);
                }
            }
            for c in map.cloned_blocks() {
                upstream.insert(c);
            }
            // Values defined in the group and used downstream (outside the
            // group and the clone, other than through successor phis) now
            // have two definitions; rewire those uses through fresh phis.
            repair_ssa_after_clone(f, &group, &map, &upstream);
        }
        // Blocks left with a single predecessor: their phis become trivial.
        // One use-rewrite for the node and all its clones.
        resolve_trivial_phis_in(f, &entries);
    }
    stats
}

/// Predecessors of `node` that lie inside the loop but outside `node`'s own
/// super-node group.
///
/// For any non-header loop block, *every* predecessor is inside the loop (a
/// natural loop has a single entry through its header), so the only
/// exclusions are same-group blocks: an inner-loop header's own latches are
/// not "merging" predecessors. Blocks created by earlier duplications are
/// not in `group_of` and count as ordinary in-loop predecessors.
fn in_loop_preds(
    preds: &Preds,
    node: BlockId,
    group_of: &SecondaryMap<BlockId, Option<BlockId>>,
) -> Vec<BlockId> {
    let mut out = Vec::new();
    for &p in &preds[node.index()] {
        if *group_of.get(p) == Some(node) {
            continue;
        }
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// After duplicating `group` into the clone described by `map`, every value
/// defined inside the group that is used outside both copies has two
/// definitions. Rewire those uses through phis placed at the merge points,
/// using a classic SSA-updater walk (memoized, cycle-safe).
///
/// Uses that are phi incomings *from inside* either copy were already fixed
/// by [`add_phi_incomings_for_clone`]; only uses whose site lies strictly
/// outside both copies are repaired here.
///
/// The outside uses of all the group's values are found in one scan, which
/// leaves out the `upstream` blocks: the two copies themselves, the groups
/// earlier in the topological walk and the clones made before this one. A
/// use site is dominated by its definition, hence reached from the header
/// only through this group; an earlier group is reached without it, and so
/// is an earlier clone, which hangs off a predecessor of an earlier group or
/// of this one. Phi incomings labelled with such a block are no use sites
/// either, for the same reason. The header, the later groups and everything
/// outside the loop are scanned.
fn repair_ssa_after_clone(
    f: &mut Function,
    group: &[BlockId],
    map: &crate::clone::CloneMap,
    upstream: &EntitySet<BlockId>,
) {
    use uu_ir::{Inst, InstId, Value};
    let clone_set: EntitySet<BlockId> = map.cloned_blocks().collect();
    let group_set: EntitySet<BlockId> = group.iter().copied().collect();
    let outside = |b: BlockId| !group_set.contains(b) && !clone_set.contains(b);
    let mut group_values: EntitySet<InstId> = EntitySet::new();
    for &g in group {
        for &v in &f.block(g).insts {
            if f.inst(v).ty != uu_ir::Type::Void {
                group_values.insert(v);
            }
        }
    }

    // Outside uses as (value, user, site, Some(pred) for phi uses), in
    // layout and program order; the stable sort keeps that order per value.
    let mut uses: Vec<(InstId, InstId, BlockId, Option<BlockId>)> = Vec::new();
    for &ub in f.layout() {
        if upstream.contains(ub) {
            continue;
        }
        for &u in &f.block(ub).insts {
            match &f.inst(u).kind {
                InstKind::Phi { incomings } => {
                    for (p, val) in incomings {
                        if let Value::Inst(v) = *val {
                            if group_values.contains(v) && outside(*p) {
                                uses.push((v, u, *p, Some(*p)));
                            }
                        }
                    }
                }
                k => {
                    let first = uses.len();
                    k.for_each_operand(|x| {
                        if let Value::Inst(v) = *x {
                            if group_values.contains(v)
                                && !uses[first..].iter().any(|seen| seen.0 == v)
                            {
                                uses.push((v, u, ub, None));
                            }
                        }
                    });
                }
            }
        }
    }
    if uses.is_empty() {
        return;
    }
    uses.sort_by_key(|u| u.0);
    let preds = f.predecessors();

    // Value available at the end of `b` (SSA-updater walk).
    fn value_at_end(
        f: &mut Function,
        preds: &Preds,
        defs: &SecondaryMap<BlockId, Option<Value>>,
        memo: &mut SecondaryMap<BlockId, Option<Value>>,
        ty: uu_ir::Type,
        b: BlockId,
    ) -> Value {
        if let Some(v) = *defs.get(b) {
            return v;
        }
        if let Some(v) = *memo.get(b) {
            return v;
        }
        let ps = &preds[b.index()];
        if ps.is_empty() {
            // Entry reached: only possible for IR that was already
            // invalid (use not dominated by def). Keep the original.
            debug_assert!(false, "SSA repair walked past the entry");
            return defs.iter().find_map(|(_, v)| *v).expect("at least one def");
        }
        if ps.len() == 1 {
            let v = value_at_end(f, preds, defs, memo, ty, ps[0]);
            memo.set(b, Some(v));
            return v;
        }
        // Merge point (or entry, which valid IR never reaches):
        // insert a phi, memoize it first to break cycles.
        let phi = f.prepend_inst(b, Inst::new(InstKind::Phi { incomings: vec![] }, ty));
        memo.set(b, Some(Value::Inst(phi)));
        let mut incomings = Vec::new();
        let mut seen = Vec::new();
        for &p in ps {
            if seen.contains(&p) {
                continue;
            }
            seen.push(p);
            let pv = value_at_end(f, preds, defs, memo, ty, p);
            incomings.push((p, pv));
        }
        if let InstKind::Phi { incomings: inc } = &mut f.inst_mut(phi).kind {
            *inc = incomings;
        }
        Value::Inst(phi)
    }

    // Values in group and program order, so the phis are created in the
    // order (and with the ids) a scan per value would create them in.
    for &g in group {
        for v in f.block(g).insts.clone() {
            let from = uses.partition_point(|u| u.0 < v);
            let to = uses.partition_point(|u| u.0 <= v);
            if from == to {
                continue;
            }
            let ty = f.inst(v).ty;
            let mut defs: SecondaryMap<BlockId, Option<Value>> = SecondaryMap::new();
            defs.set(g, Some(Value::Inst(v)));
            defs.set(map.map_block(g), Some(map.map_value(Value::Inst(v))));
            let mut memo: SecondaryMap<BlockId, Option<Value>> = SecondaryMap::new();
            for &(_, user, site, phi_pred) in &uses[from..to] {
                let repl = value_at_end(f, &preds, &defs, &mut memo, ty, site);
                if repl == Value::Inst(v) {
                    continue;
                }
                match phi_pred {
                    Some(pp) => {
                        if let InstKind::Phi { incomings } = &mut f.inst_mut(user).kind {
                            for (p, val) in incomings {
                                if *p == pp && *val == Value::Inst(v) {
                                    *val = repl;
                                }
                            }
                        }
                    }
                    None => {
                        let mut kind = f.inst(user).kind.clone();
                        kind.for_each_operand_mut(|x| {
                            if *x == Value::Inst(v) {
                                *x = repl;
                            }
                        });
                        f.inst_mut(user).kind = kind;
                    }
                }
            }
        }
    }
}
