//! Control-flow unmerging (paper §III-A1, §III-A3).
//!
//! Unmerging eliminates merge blocks inside a loop body by tail-duplicating
//! them per predecessor, so that each duplicated block "knows" which path
//! reached it. The paper's design decision is *aggressive whole-path*
//! duplication: once a merge block is duplicated, its successors become
//! merges with more predecessors and are duplicated in turn, all the way to
//! the latch — revealing as many obscured (partial) redundancies as possible.
//! The DBDS-style alternative (duplicate only the direct merge successor,
//! paper ref \[8\]) is provided as [`UnmergeMode::DirectSuccessor`] for the
//! ablation study.
//!
//! Inner loops are treated as *super-nodes*: they are never torn apart, but
//! are duplicated wholesale when they sit on a duplicated path.

use crate::clone::{add_phi_incomings_for_clone, clone_region, resolve_trivial_phis_in};
use uu_analysis::LoopForest;
use uu_ir::{BlockId, EntitySet, Function, InstKind, SecondaryMap};

/// How far unmerging cascades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnmergeMode {
    /// The paper's aggressive mode: duplicate every merge down to the latch.
    #[default]
    WholePath,
    /// DBDS-style: duplicate each originally-merging block once; merges
    /// created downstream by the duplication itself are left alone.
    DirectSuccessor,
    /// *Partial unmerging* (the paper's §VI future work): duplicate only
    /// merges that carry phis — the provenance-bearing ones whose
    /// duplication can enable downstream optimization — and cascade from
    /// there; phi-free forwarding merges are left alone, containing code
    /// growth.
    Selective,
}

/// Tuning knobs for [`unmerge_loop`].
#[derive(Debug, Clone, Copy)]
pub struct UnmergeOptions {
    /// Cascade mode.
    pub mode: UnmergeMode,
    /// Hard cap on the function's block count; when the next duplication
    /// would exceed it, unmerging stops early (the IR stays valid, merely
    /// partially unmerged). Models the paper's compile-time timeouts: ccs
    /// at factor 4+ ran past the authors' 5-minute limit for the same
    /// exponential reason (paper §IV-C, RQ2).
    pub max_blocks: usize,
}

impl Default for UnmergeOptions {
    fn default() -> Self {
        UnmergeOptions {
            mode: UnmergeMode::WholePath,
            max_blocks: 2048,
        }
    }
}

/// Statistics from one unmerge run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnmergeStats {
    /// Number of merge (super-)nodes duplicated.
    pub nodes_duplicated: usize,
    /// Number of block clones created.
    pub blocks_cloned: usize,
    /// Whether the `max_blocks` cap stopped the cascade early.
    pub hit_limit: bool,
}

/// Unmerge the control flow inside the loop headed at `header`.
///
/// `forest` is a loop analysis of `f` as it stands and `blocks` the loop's
/// block set from it (after unrolling, the unrolled loop's full set). The
/// header itself is never duplicated. Returns statistics; a loop whose body
/// has no merges is left untouched (`nodes_duplicated == 0`), matching the
/// paper's early return.
pub fn unmerge_loop(
    f: &mut Function,
    forest: &LoopForest,
    header: BlockId,
    blocks: &[BlockId],
    options: UnmergeOptions,
) -> UnmergeStats {
    let mut stats = UnmergeStats::default();
    let loop_set: EntitySet<BlockId> = blocks.iter().copied().collect();

    // Super-node assignment: blocks of inner loops collapse onto the header
    // of the outermost inner loop (within this loop).
    let this_loop = forest
        .loops()
        .iter()
        .position(|l| l.header == header)
        .map(uu_analysis::LoopId);
    let mut group_of: SecondaryMap<BlockId, Option<BlockId>> = SecondaryMap::new();
    // The blocks of each super-node, keyed on its representative, in
    // `blocks` order.
    let mut groups: SecondaryMap<BlockId, Vec<BlockId>> = SecondaryMap::new();
    for &b in blocks {
        let mut rep = b;
        if let Some(this) = this_loop {
            // Walk up the loop-nest from the innermost loop containing b to
            // the direct child of `this_loop`.
            let mut cur = forest.innermost_containing(b);
            while let Some(lid) = cur {
                if lid == this {
                    break;
                }
                let l = forest.get(lid);
                if l.parent == Some(this) {
                    rep = l.header;
                    break;
                }
                cur = l.parent;
            }
        }
        group_of.set(b, Some(rep));
        groups.get_mut(rep).push(b);
    }

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
        if options.mode == UnmergeMode::Selective
            && original_merges.contains(node)
            && f.phis(node).is_empty()
        {
            // A merge with no phis carries no value provenance to recover.
            continue;
        }
        let preds = f.predecessors();
        let mut incoming: Vec<BlockId> = in_loop_preds(&preds, node, &group_of);
        if options.mode == UnmergeMode::DirectSuccessor {
            // Duplicate only into the *original* predecessors: merges grown
            // by upstream duplication are left as merges (DBDS semantics).
            let orig = original_pred_sets.get(node).as_ref().expect("node is an original merge");
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
    preds: &[Vec<BlockId>],
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
        preds: &[Vec<BlockId>],
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
            return defs
                .iter()
                .find_map(|(_, v)| *v)
                .expect("at least one def");
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

/// Topological order of super-node representatives over the body DAG.
fn topo_supernodes(
    f: &Function,
    header: BlockId,
    loop_set: &EntitySet<BlockId>,
    group_of: &SecondaryMap<BlockId, Option<BlockId>>,
) -> Vec<BlockId> {
    // DFS from the header's group over group-level edges, post-order
    // reversed. Back edges to the header are ignored (DAG). The dense set
    // iterates in block-index order, so the resulting topological order (and
    // hence duplication order) is deterministic.
    let mut visited: EntitySet<BlockId> = EntitySet::new();
    let mut post: Vec<BlockId> = Vec::new();
    fn dfs(
        f: &Function,
        node: BlockId,
        header: BlockId,
        loop_set: &EntitySet<BlockId>,
        group_of: &SecondaryMap<BlockId, Option<BlockId>>,
        visited: &mut EntitySet<BlockId>,
        post: &mut Vec<BlockId>,
    ) {
        if !visited.insert(node) {
            return;
        }
        // Successor groups: successors of any block in this group.
        let group: Vec<BlockId> = loop_set
            .iter()
            .filter(|&b| *group_of.get(b) == Some(node))
            .collect();
        for &g in &group {
            for s in f.successors(g) {
                if !loop_set.contains(s) || s == header {
                    continue;
                }
                let sg = group_of.get(s).expect("loop block has a group");
                if sg != node {
                    dfs(f, sg, header, loop_set, group_of, visited, post);
                }
            }
        }
        post.push(node);
    }
    dfs(f, header, header, loop_set, group_of, &mut visited, &mut post);
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_analysis::{DomTree as DT, LoopForest as LF, LoopId};
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    /// Loop with a straight-line body: nothing to unmerge.
    fn straight_loop() -> uu_ir::Function {
        let mut f = uu_ir::Function::new("sl", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let more = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(more, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        f
    }

    /// Loop body: header -> chooser -(c)-> {C | D} -> E(latch) -> header.
    fn diamond_loop() -> uu_ir::Function {
        let mut f = uu_ir::Function::new(
            "dl",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block(); // 1 header
        let cblk = b.create_block(); // 2
        let dblk = b.create_block(); // 3
        let eblk = b.create_block(); // 4 merge+latch
        let exit = b.create_block(); // 5
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let more = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        let chooser = b.create_block(); // 6
        b.cond_br(more, chooser, exit);
        b.switch_to(chooser);
        b.cond_br(Value::Arg(1), cblk, dblk);
        b.switch_to(cblk);
        let x1 = b.add(i, Value::imm(10i64));
        b.br(eblk);
        b.switch_to(dblk);
        let x2 = b.add(i, Value::imm(20i64));
        b.br(eblk);
        b.switch_to(eblk);
        let xm = b.phi(Type::I64);
        b.add_phi_incoming(xm, cblk, x1);
        b.add_phi_incoming(xm, dblk, x2);
        let i1 = b.add(i, xm);
        b.add_phi_incoming(i, eblk, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        f
    }

    #[test]
    fn unmerges_diamond_merge_block() {
        let mut f = diamond_loop();
        uu_ir::verify_function(&f).unwrap();
        let dom = DT::compute(&f);
        let forest = LF::compute(&f, &dom);
        let l = forest.get(LoopId(0)).clone();
        let before = f.num_blocks();
        let stats = unmerge_loop(
            &mut f,
            &forest,
            l.header,
            &l.blocks,
            UnmergeOptions::default(),
        );
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert_eq!(stats.nodes_duplicated, 1);
        assert_eq!(stats.blocks_cloned, 1);
        assert_eq!(f.num_blocks(), before + 1);
        // The merge block E now exists twice; both have a single pred, so no
        // phis remain in either (values resolved), and the header gained a
        // third predecessor (two latches + preheader... header has
        // preheader + 2 latch copies).
        let preds = f.predecessors();
        let h = l.header;
        assert_eq!(preds[h.index()].len(), 3);
        // Header phi must have 3 matching incomings.
        let phi = f.phis(h)[0];
        match &f.inst(phi).kind {
            InstKind::Phi { incomings } => assert_eq!(incomings.len(), 3),
            _ => unreachable!(),
        }
    }

    #[test]
    fn no_merges_means_no_change() {
        let mut f = straight_loop();
        let dom = DT::compute(&f);
        let forest = LF::compute(&f, &dom);
        let l = forest.get(LoopId(0)).clone();
        let before = f.num_blocks();
        let stats = unmerge_loop(
            &mut f,
            &forest,
            l.header,
            &l.blocks,
            UnmergeOptions::default(),
        );
        assert_eq!(stats.nodes_duplicated, 0);
        assert_eq!(f.num_blocks(), before);
    }

    /// Two sequential diamonds: WholePath must duplicate the second merge
    /// more times than DirectSuccessor.
    fn two_diamond_loop() -> uu_ir::Function {
        let mut f = uu_ir::Function::new(
            "dd",
            vec![
                Param::new("n", Type::I64),
                Param::new("c1", Type::I1),
                Param::new("c2", Type::I1),
            ],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block(); // 1
        let a1 = b.create_block(); // 2
        let b1 = b.create_block(); // 3
        let m1 = b.create_block(); // 4 first merge
        let a2 = b.create_block(); // 5
        let b2 = b.create_block(); // 6
        let m2 = b.create_block(); // 7 second merge + latch
        let exit = b.create_block(); // 8
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let more = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        let body = b.create_block(); // 9
        b.cond_br(more, body, exit);
        b.switch_to(body);
        b.cond_br(Value::Arg(1), a1, b1);
        b.switch_to(a1);
        let v1 = b.add(i, Value::imm(1i64));
        b.br(m1);
        b.switch_to(b1);
        let v2 = b.add(i, Value::imm(2i64));
        b.br(m1);
        b.switch_to(m1);
        let p1 = b.phi(Type::I64);
        b.add_phi_incoming(p1, a1, v1);
        b.add_phi_incoming(p1, b1, v2);
        b.cond_br(Value::Arg(2), a2, b2);
        b.switch_to(a2);
        let w1 = b.add(p1, Value::imm(3i64));
        b.br(m2);
        b.switch_to(b2);
        let w2 = b.add(p1, Value::imm(4i64));
        b.br(m2);
        b.switch_to(m2);
        let p2 = b.phi(Type::I64);
        b.add_phi_incoming(p2, a2, w1);
        b.add_phi_incoming(p2, b2, w2);
        b.add_phi_incoming(i, m2, p2);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        f
    }

    #[test]
    fn whole_path_cascades_further_than_direct_successor() {
        let mut f1 = two_diamond_loop();
        let mut f2 = two_diamond_loop();
        let run = |f: &mut uu_ir::Function, mode| {
            let dom = DT::compute(f);
            let forest = LF::compute(f, &dom);
            let l = forest.get(LoopId(0)).clone();
            unmerge_loop(
                f,
                &forest,
                l.header,
                &l.blocks,
                UnmergeOptions {
                    mode,
                    ..Default::default()
                },
            )
        };
        let s_whole = run(&mut f1, UnmergeMode::WholePath);
        uu_ir::verify_function(&f1).unwrap_or_else(|e| panic!("{e}\n{f1}"));
        let s_direct = run(&mut f2, UnmergeMode::DirectSuccessor);
        uu_ir::verify_function(&f2).unwrap_or_else(|e| panic!("{e}\n{f2}"));
        assert!(
            s_whole.blocks_cloned > s_direct.blocks_cloned,
            "whole {s_whole:?} vs direct {s_direct:?}"
        );
        // WholePath: m1 duplicated once (2 preds), a2/b2 duplicated (2 preds
        // each), m2 duplicated into 4 copies total (4 preds): no merges left
        // except the header.
        let dom = DT::compute(&f1);
        let forest = LF::compute(&f1, &dom);
        let l = &forest.loops()[0];
        let preds = f1.predecessors();
        for &b in &l.blocks {
            if b == l.header {
                continue;
            }
            assert!(
                preds[b.index()].len() <= 1,
                "block {b} still a merge after WholePath unmerge"
            );
        }
    }

    #[test]
    fn block_cap_stops_early_but_stays_valid() {
        let mut f = two_diamond_loop();
        let dom = DT::compute(&f);
        let forest = LF::compute(&f, &dom);
        let l = forest.get(LoopId(0)).clone();
        let cap = f.num_blocks() + 2;
        let stats = unmerge_loop(
            &mut f,
            &forest,
            l.header,
            &l.blocks,
            UnmergeOptions {
                mode: UnmergeMode::WholePath,
                max_blocks: cap,
            },
        );
        assert!(stats.hit_limit);
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
    }
}
