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
//!
//! Whole-path unmerging turns the loop header and exits into merges with
//! one predecessor per path, hundreds at factor 8, so one clone must cost
//! its own size, not its merge's predecessor count or the function's size.
//! The walk keeps the predecessor map and a def→use index current through
//! every edit it makes, and each merge node indexes its entry phis by
//! incoming label and its successors' phis by the value they receive.

#[cfg(test)]
pub(crate) mod reference;

use crate::clone::{clone_region_with, resolve_trivial_phis_in, CloneMap};
use uu_analysis::LoopForest;
use uu_ir::{BlockId, EntitySet, Function, Inst, InstId, InstKind, SecondaryMap, Type, Value};

/// How far unmerging cascades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnmergeMode {
    /// The paper's aggressive mode: duplicate every merge down to the latch.
    #[default]
    WholePath,
    /// DBDS-style: duplicate each originally-merging block once; merges
    /// created downstream by the duplication itself are left alone.
    DirectSuccessor,
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
    let (group_of, mut groups) = supernodes(forest, header, blocks);

    // Topological order of super-nodes along the body DAG (back edges to the
    // loop header ignored; internal edges of a group ignored).
    let topo = topo_supernodes(f, header, &loop_set, &group_of);
    let mut walk = Walk::new(f, &loop_set);
    let mut map = CloneMap::default();
    // The entries of every node duplicated so far: the node and its
    // clones, each left with a single predecessor, so that their phis are
    // trivial. One use-rewrite resolves them when the walk ends (or stops
    // early, leaving out the node it stops in), which leaves what one per
    // node would: nothing the walk does after a node reads those phis (the
    // blocks are upstream of every later node and are no successor of
    // one), and a later clone that copies a use of one is rewritten too.
    let mut entries: Vec<BlockId> = Vec::new();

    // Original merge set for DirectSuccessor mode.
    let original_merges: EntitySet<BlockId> = topo
        .iter()
        .copied()
        .filter(|&n| n != header && in_loop_preds(&walk.preds, n, &group_of).len() >= 2)
        .collect();
    let mut original_pred_sets: SecondaryMap<BlockId, Option<Vec<BlockId>>> = SecondaryMap::new();
    for n in original_merges.iter() {
        original_pred_sets.set(n, Some(in_loop_preds(&walk.preds, n, &group_of)));
    }

    for &node in &topo {
        if node == header {
            continue;
        }
        // Blocks of this super-node. Its own repair scan leaves them out as
        // one of the two copies, so they can join `upstream` right away.
        let group = std::mem::take(groups.get_mut(node));
        for &g in &group {
            walk.upstream.insert(g);
        }
        if options.mode == UnmergeMode::DirectSuccessor && !original_merges.contains(node) {
            continue;
        }
        let mut incoming: Vec<BlockId> = in_loop_preds(&walk.preds, node, &group_of);
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
        let group_set: EntitySet<BlockId> = group.iter().copied().collect();
        let entry = EntryPhis::new(f, node, &group_set);
        let mut succ = SuccPhis::new(f, &group, &group_set);
        // Keep the first predecessor on the original; clone for the rest.
        // The incomings of the predecessors that move to a clone leave the
        // original entry's phis when the node is done, or stops early.
        let mut moved: EntitySet<BlockId> = EntitySet::new();
        let done = entries.len();
        entries.push(node);
        for &p in &incoming[1..] {
            if f.num_blocks() + group.len() > options.max_blocks {
                stats.hit_limit = true;
                entry.remove_incomings(f, &moved);
                resolve_trivial_phis_in(f, &entries[..done]);
                return stats;
            }
            // The clone's entry phis keep the incoming from p plus any
            // incomings from inside the clone itself (an inner-loop header
            // keeps the incomings from its own cloned latches).
            entry.clone_for(f, &group, p, &mut map);
            stats.blocks_cloned += group.len();
            // Retarget p's edge(s) into the clone of the entry block.
            let centry = map.map_block(node);
            let t = f.terminator(p).expect("pred has a terminator");
            f.inst_mut(t).kind.replace_block(node, centry);
            walk.add_clone(f, node, p, &map);
            moved.insert(p);
            entries.push(centry);
            // Successor phis outside the group gain incomings from the
            // clone (loop header via back edges, exits, downstream blocks).
            succ.add_clone(f, &map);
            // Values defined in the group and used downstream (outside the
            // group and the clone, other than through successor phis) now
            // have two definitions; rewire those uses through fresh phis.
            walk.repair(f, &group, &group_set, &map, &mut succ);
        }
        entry.remove_incomings(f, &moved);
    }
    resolve_trivial_phis_in(f, &entries);
    stats
}

/// Super-node assignment: blocks of inner loops collapse onto the header of
/// the outermost inner loop (within this loop). Returns each block's
/// representative and the blocks of each super-node, keyed on its
/// representative, in `blocks` order.
fn supernodes(
    forest: &LoopForest,
    header: BlockId,
    blocks: &[BlockId],
) -> (
    SecondaryMap<BlockId, Option<BlockId>>,
    SecondaryMap<BlockId, Vec<BlockId>>,
) {
    let this_loop = forest
        .loops()
        .iter()
        .position(|l| l.header == header)
        .map(uu_analysis::LoopId);
    let mut group_of: SecondaryMap<BlockId, Option<BlockId>> = SecondaryMap::new();
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
    (group_of, groups)
}

/// Predecessors of `node` that lie inside the loop but outside `node`'s own
/// super-node group, first occurrences in `preds` order.
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
    let mut seen: EntitySet<BlockId> = EntitySet::new();
    preds[node.index()]
        .iter()
        .copied()
        .filter(|&p| *group_of.get(p) != Some(node) && seen.insert(p))
        .collect()
}

/// A use of a value: operand of `user`, or, when `user` is a phi, its
/// incoming number `incoming`.
#[derive(Debug, Clone, Copy)]
struct Use {
    user: InstId,
    incoming: u32,
}

/// What the walk over one loop keeps current through every edit it makes.
struct Walk {
    /// `Function::predecessors`: the preds of a block in layout order.
    preds: Vec<Vec<BlockId>>,
    /// Def → use index over the layout, for the values a repair can be
    /// asked about: those defined in the loop and the phis repairs create.
    /// It may hold uses that have since been rewritten (each is checked
    /// when read); it holds every use that a later node's repair can be
    /// asked about, because the only uses the walk creates of a value it
    /// has not cloned yet are those its repairs write, and those are
    /// recorded.
    uses: SecondaryMap<InstId, Vec<Use>>,
    /// The block an indexed user sits in.
    block_of: SecondaryMap<InstId, Option<BlockId>>,
    /// Program-order rank of an indexed user within its block. Repair
    /// phis are prepended, so they rank below everything before them.
    rank: SecondaryMap<InstId, i64>,
    next_phi_rank: i64,
    /// Layout position of every block the walk started with; the blocks it
    /// adds are all upstream.
    layout_pos: SecondaryMap<BlockId, u32>,
    /// Blocks that cannot hold a use of a value a later node defines: the
    /// groups the walk has reached and every clone made so far (see
    /// [`Walk::repair`]).
    upstream: EntitySet<BlockId>,
    /// `value_at_end`'s memo for the value being repaired, and the blocks
    /// it has set.
    memo: SecondaryMap<BlockId, Option<Value>>,
    memo_set: Vec<BlockId>,
}

/// The two definitions of a value being repaired: in block `g` of the
/// group and in its clone.
struct Defs {
    g: BlockId,
    v: Value,
    clone_g: BlockId,
    clone_v: Value,
}

impl Walk {
    fn new(f: &Function, loop_set: &EntitySet<BlockId>) -> Walk {
        let mut walk = Walk {
            preds: f.predecessors().into_lists(),
            uses: SecondaryMap::new(),
            block_of: SecondaryMap::new(),
            rank: SecondaryMap::new(),
            next_phi_rank: -1,
            layout_pos: SecondaryMap::new(),
            upstream: EntitySet::new(),
            memo: SecondaryMap::new(),
            memo_set: Vec::new(),
        };
        let mut in_loop: EntitySet<InstId> = EntitySet::new();
        for b in loop_set.iter() {
            for &i in &f.block(b).insts {
                in_loop.insert(i);
            }
        }
        let indexed = |v: &Value| matches!(v, Value::Inst(d) if in_loop.contains(*d));
        for (pos, &b) in f.layout().iter().enumerate() {
            walk.layout_pos.set(b, pos as u32);
            for (ix, &i) in f.block(b).insts.iter().enumerate() {
                let mut user = false;
                match &f.inst(i).kind {
                    InstKind::Phi { incomings } => {
                        for (k, (_, v)) in incomings.iter().enumerate() {
                            if indexed(v) {
                                walk.record(*v, i, k);
                                user = true;
                            }
                        }
                    }
                    kind => kind.for_each_operand(|v| {
                        if indexed(v) {
                            walk.record(*v, i, 0);
                            user = true;
                        }
                    }),
                }
                if user {
                    walk.block_of.set(i, Some(b));
                    walk.rank.set(i, ix as i64);
                }
            }
        }
        walk
    }

    /// Index a use of `v` by `user` (incoming `k` if it is a phi).
    fn record(&mut self, v: Value, user: InstId, k: usize) {
        if let Value::Inst(d) = v {
            self.uses.get_mut(d).push(Use {
                user,
                incoming: k as u32,
            });
        }
    }

    /// Account for the clone `map` of the group entered at `node`, now
    /// entered from `p` (whose edges to `node` were retargeted). The
    /// clone's blocks follow every other block in the layout, `p`
    /// included, so `p` heads the clone entry's list and the clone's edges
    /// go at the end of their successors' lists.
    fn add_clone(&mut self, f: &Function, node: BlockId, p: BlockId, map: &CloneMap) {
        let centry = map.map_block(node);
        let last = map.cloned_blocks().map(|c| c.index()).max().unwrap_or(0);
        if self.preds.len() <= last {
            self.preds.resize(last + 1, Vec::new());
        }
        self.preds[node.index()].retain(|&b| b != p);
        for s in f.successors(p) {
            if s == centry {
                self.preds[centry.index()].push(p);
            }
        }
        for c in map.cloned_blocks() {
            self.upstream.insert(c);
            for s in f.successors(c) {
                self.preds[s.index()].push(c);
            }
        }
    }

    /// After duplicating `group` into the clone described by `map`, every
    /// value defined inside the group that is used outside both copies has
    /// two definitions. Rewire those uses through phis placed at the merge
    /// points, using a classic SSA-updater walk (memoized, cycle-safe).
    ///
    /// Uses that are phi incomings *from inside* either copy were already
    /// fixed by [`SuccPhis::add_clone`]; only uses whose site lies strictly
    /// outside both copies are repaired here.
    ///
    /// The outside uses are read from the def→use index, leaving out users
    /// in `upstream` blocks: the two copies themselves, the groups earlier
    /// in the topological walk and the clones made before this one. A use
    /// site is dominated by its definition, hence reached from the header
    /// only through this group; an earlier group is reached without it, and
    /// so is an earlier clone, which hangs off a predecessor of an earlier
    /// group or of this one. Phi incomings labelled with such a block are
    /// no use sites either, for the same reason. Each value's uses are
    /// visited in layout and program order, as a scan would meet them, so
    /// the repair phis are created in the same order and with the same ids.
    fn repair(
        &mut self,
        f: &mut Function,
        group: &[BlockId],
        group_set: &EntitySet<BlockId>,
        map: &CloneMap,
        succ: &mut SuccPhis,
    ) {
        let clone_set: EntitySet<BlockId> = map.cloned_blocks().collect();
        let outside = |b: BlockId| !group_set.contains(b) && !clone_set.contains(b);

        // Outside uses as (order key, user, site, incoming for phi uses),
        // gathered for every value before any is repaired; `values` holds
        // each value's block and range of `uses`.
        let mut uses: Vec<((u32, i64, u32), InstId, BlockId, Option<u32>)> = Vec::new();
        let mut values: Vec<(BlockId, InstId, usize, usize)> = Vec::new();
        for &g in group {
            for &v in &f.block(g).insts {
                if f.inst(v).ty == Type::Void {
                    continue;
                }
                let from = uses.len();
                for u in self.uses.get(v) {
                    let Some(ub) = *self.block_of.get(u.user) else {
                        continue;
                    };
                    if self.upstream.contains(ub) {
                        continue;
                    }
                    let key = (*self.layout_pos.get(ub), *self.rank.get(u.user), u.incoming);
                    match &f.inst(u.user).kind {
                        InstKind::Phi { incomings } => {
                            if let Some(&(p, val)) = incomings.get(u.incoming as usize) {
                                if val == Value::Inst(v) && outside(p) {
                                    uses.push((key, u.user, p, Some(u.incoming)));
                                }
                            }
                        }
                        kind => {
                            let mut used = false;
                            kind.for_each_operand(|x| used |= *x == Value::Inst(v));
                            if used {
                                uses.push(((key.0, key.1, 0), u.user, ub, None));
                            }
                        }
                    }
                }
                if uses.len() > from {
                    uses[from..].sort_unstable_by_key(|u| u.0);
                    let mut kept = from + 1;
                    for ix in from + 1..uses.len() {
                        if uses[ix].0 != uses[kept - 1].0 {
                            uses[kept] = uses[ix];
                            kept += 1;
                        }
                    }
                    uses.truncate(kept);
                    values.push((g, v, from, kept));
                }
            }
        }

        for (g, v, from, to) in values {
            let defs = Defs {
                g,
                v: Value::Inst(v),
                clone_g: map.map_block(g),
                clone_v: map.map_value(Value::Inst(v)),
            };
            let ty = f.inst(v).ty;
            for b in self.memo_set.drain(..) {
                self.memo.set(b, None);
            }
            for &(_, user, site, incoming) in &uses[from..to] {
                let repl = self.value_at_end(f, &defs, ty, site, succ);
                if repl == defs.v {
                    continue;
                }
                match incoming {
                    Some(k) => {
                        if let InstKind::Phi { incomings } = &mut f.inst_mut(user).kind {
                            let (p, val) = &mut incomings[k as usize];
                            if *p == site && *val == defs.v {
                                *val = repl;
                                self.record(repl, user, k as usize);
                            }
                        }
                    }
                    None => {
                        f.inst_mut(user).kind.for_each_operand_mut(|x| {
                            if *x == defs.v {
                                *x = repl;
                            }
                        });
                        self.record(repl, user, 0);
                    }
                }
            }
        }
    }

    /// The value of `defs` available at the end of `b` (SSA-updater walk).
    fn value_at_end(
        &mut self,
        f: &mut Function,
        defs: &Defs,
        ty: Type,
        b: BlockId,
        succ: &mut SuccPhis,
    ) -> Value {
        if b == defs.g {
            return defs.v;
        }
        if b == defs.clone_g {
            return defs.clone_v;
        }
        if let Some(v) = *self.memo.get(b) {
            return v;
        }
        let n = self.preds[b.index()].len();
        if n == 0 {
            // Entry reached: only possible for IR that was already
            // invalid (use not dominated by def). Keep the original.
            debug_assert!(false, "SSA repair walked past the entry");
            return defs.v;
        }
        if n == 1 {
            let v = self.value_at_end(f, defs, ty, self.preds[b.index()][0], succ);
            self.memo.set(b, Some(v));
            self.memo_set.push(b);
            return v;
        }
        // Merge point: insert a phi, memoize it first to break cycles.
        let phi = f.prepend_inst(b, Inst::new(InstKind::Phi { incomings: vec![] }, ty));
        self.block_of.set(phi, Some(b));
        self.rank.set(phi, self.next_phi_rank);
        self.next_phi_rank -= 1;
        self.memo.set(b, Some(Value::Inst(phi)));
        self.memo_set.push(b);
        let mut incomings = Vec::new();
        for ix in 0..n {
            let p = self.preds[b.index()][ix];
            // A block's edges to one successor are adjacent in its list.
            if ix > 0 && self.preds[b.index()][ix - 1] == p {
                continue;
            }
            let pv = self.value_at_end(f, defs, ty, p, succ);
            self.record(pv, phi, incomings.len());
            incomings.push((p, pv));
        }
        if let InstKind::Phi { incomings: inc } = &mut f.inst_mut(phi).kind {
            *inc = incomings;
        }
        succ.note(f, phi, b);
        Value::Inst(phi)
    }
}

/// The phis of a merge node, indexed so that each path's clone copies only
/// the incomings it keeps: the ones from its predecessor and the ones from
/// inside the group. The node's phis do not change while it is cloned (the
/// moved incomings leave at the end), so the positions stay valid.
struct EntryPhis {
    node: BlockId,
    phis: Vec<InstId>,
    /// Per phi, the positions of its incomings labelled inside the group.
    in_group: Vec<Vec<u32>>,
    /// (label, phi number, position) of every other incoming, sorted.
    by_label: Vec<(BlockId, u32, u32)>,
}

impl EntryPhis {
    fn new(f: &Function, node: BlockId, group_set: &EntitySet<BlockId>) -> EntryPhis {
        let phis = f.phis(node).to_vec();
        let mut in_group = vec![Vec::new(); phis.len()];
        let mut by_label = Vec::new();
        for (j, &phi) in phis.iter().enumerate() {
            if let InstKind::Phi { incomings } = &f.inst(phi).kind {
                for (k, (b, _)) in incomings.iter().enumerate() {
                    if group_set.contains(*b) {
                        in_group[j].push(k as u32);
                    } else {
                        by_label.push((*b, j as u32, k as u32));
                    }
                }
            }
        }
        by_label.sort_unstable();
        EntryPhis {
            node,
            phis,
            in_group,
            by_label,
        }
    }

    /// Clone `group` for the path through `p` into `map`.
    fn clone_for(&self, f: &mut Function, group: &[BlockId], p: BlockId, map: &mut CloneMap) {
        let mut keep = self.in_group.clone();
        let from = self.by_label.partition_point(|e| e.0 < p);
        for &(_, j, k) in self.by_label[from..].iter().take_while(|e| e.0 == p) {
            keep[j as usize].push(k);
        }
        for k in &mut keep {
            k.sort_unstable();
        }
        let copy = |f: &Function, b: BlockId, i: InstId| {
            let inst = f.inst(i);
            let InstKind::Phi { incomings } = &inst.kind else {
                return inst.clone();
            };
            if b != self.node {
                return inst.clone();
            }
            // A repair places no phi in the node: it walks up from uses the
            // group's definitions dominate and stops at them.
            let j = self
                .phis
                .iter()
                .position(|&x| x == i)
                .expect("an indexed entry phi");
            let kept = keep[j].iter().map(|&k| incomings[k as usize]).collect();
            Inst::new(InstKind::Phi { incomings: kept }, inst.ty)
        };
        clone_region_with(f, group, copy, map);
    }

    /// Remove the incomings labelled by `moved` from the node's phis.
    fn remove_incomings(&self, f: &mut Function, moved: &EntitySet<BlockId>) {
        if moved.is_empty() {
            return;
        }
        for k in 0..f.phis(self.node).len() {
            let phi = f.block(self.node).insts[k];
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                incomings.retain(|(b, _)| !moved.contains(*b));
            }
        }
    }
}

/// The phis of the group's successors outside it, each with the value it
/// receives from its group predecessor, so that a clone extends them
/// without scanning their incomings (the loop header's carry one per path).
struct SuccPhis {
    /// The group's edges out of it as (source, index into `received`), in
    /// group and successor order, a repeated edge repeated.
    edges: Vec<(BlockId, usize)>,
    /// Per distinct edge `g → s`: the phis of `s` with an incoming from
    /// `g`, and the value of the last one.
    received: Vec<(BlockId, BlockId, Vec<(InstId, Value)>)>,
}

impl SuccPhis {
    fn new(f: &Function, group: &[BlockId], group_set: &EntitySet<BlockId>) -> SuccPhis {
        let mut succ = SuccPhis {
            edges: Vec::new(),
            received: Vec::new(),
        };
        for &g in group {
            for s in f.successors(g) {
                if group_set.contains(s) {
                    continue;
                }
                let ix = match succ.received.iter().position(|e| e.0 == g && e.1 == s) {
                    Some(ix) => ix,
                    None => {
                        let phis = f
                            .phis(s)
                            .iter()
                            .filter_map(|&phi| Some((phi, from_pred(f, phi, g)?)))
                            .collect();
                        succ.received.push((g, s, phis));
                        succ.received.len() - 1
                    }
                };
                succ.edges.push((g, ix));
            }
        }
        succ
    }

    /// Give each successor phi an incoming from the clone of its group
    /// predecessor, carrying the clone of what it receives from the
    /// original.
    fn add_clone(&self, f: &mut Function, map: &CloneMap) {
        for &(g, ix) in &self.edges {
            let from = map.map_block(g);
            for &(phi, v) in &self.received[ix].2 {
                if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                    incomings.push((from, map.map_value(v)));
                }
            }
        }
    }

    /// Index `phi`, just placed in block `b` by a repair: the next clones
    /// must extend it too.
    fn note(&mut self, f: &Function, phi: InstId, b: BlockId) {
        for (g, s, phis) in &mut self.received {
            if *s == b {
                if let Some(v) = from_pred(f, phi, *g) {
                    phis.push((phi, v));
                }
            }
        }
    }
}

/// The value the phi `phi` receives from `pred` (its last such incoming).
fn from_pred(f: &Function, phi: InstId, pred: BlockId) -> Option<Value> {
    let InstKind::Phi { incomings } = &f.inst(phi).kind else {
        return None;
    };
    incomings
        .iter()
        .rev()
        .find(|(b, _)| *b == pred)
        .map(|(_, v)| *v)
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

    /// Two sequential diamonds with a value of the first merge used after
    /// the second: repairing it puts phis into the second diamond's arms,
    /// successors of the first merge, which each later path's clone of it
    /// must extend.
    fn value_across_second_merge() -> uu_ir::Function {
        let mut f = uu_ir::Function::new(
            "vx",
            vec![
                Param::new("n", Type::I64),
                Param::new("c1", Type::I1),
                Param::new("c2", Type::I1),
            ],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let a1 = b.create_block();
        let b1 = b.create_block();
        let m1 = b.create_block();
        let a2 = b.create_block();
        let b2 = b.create_block();
        let m2 = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let more = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
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
        let x = b.mul(p1, Value::imm(5i64));
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
        let i1 = b.add(p2, x);
        b.add_phi_incoming(i, m2, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        f
    }

    #[test]
    fn repair_phis_in_successors_are_extended_by_later_clones() {
        let f = value_across_second_merge();
        uu_ir::verify_function(&f).unwrap();
        let header = LF::compute(&f, &DT::compute(&f)).loops()[0].header;
        for factor in [1, 2] {
            let opts = UnmergeOptions::default();
            let mut expected = f.clone();
            let want = crate::uu::uu_loop_with(
                &mut expected,
                header,
                factor,
                opts,
                reference::unmerge_loop,
            );
            let mut g = f.clone();
            let got = crate::uu::uu_loop_with(&mut g, header, factor, opts, unmerge_loop);
            uu_ir::verify_function(&g).unwrap_or_else(|e| panic!("uu{factor}: {e}\n{g}"));
            assert!(
                g == expected,
                "uu{factor}: differs from the reference\n{g}\n{expected}"
            );
            assert_eq!(got.unmerge, want.unmerge);
            assert!(got.unmerge.blocks_cloned > 0);
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
