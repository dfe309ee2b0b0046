//! Cloning of CFG regions with value remapping.
//!
//! Both loop unrolling and control-flow unmerging are, at heart, "clone this
//! set of blocks and rewire" operations. This module provides the shared
//! machinery: a deep copy of a block set whose internal edges and value uses
//! point into the copy, while references to anything defined outside the set
//! are left untouched.

use uu_ir::{BlockId, Function, Inst, InstId, InstKind, SecondaryMap, Value};

/// The result of cloning a region: mappings from original blocks and
/// instructions to their copies. Lookups go through dense tables keyed on
/// the arena ids; iteration goes over the copies in the order they were
/// made, so walking a clone costs its size, not the arena's.
#[derive(Debug, Clone, Default)]
pub struct CloneMap {
    /// Original block → cloned block.
    blocks: SecondaryMap<BlockId, Option<BlockId>>,
    /// Original instruction → cloned instruction.
    insts: SecondaryMap<InstId, Option<InstId>>,
    /// (original, clone) per cloned block, in cloning order.
    block_copies: Vec<(BlockId, BlockId)>,
    /// (original, clone) per cloned instruction, in cloning order.
    inst_copies: Vec<(InstId, InstId)>,
}

impl CloneMap {
    /// Map a value through the clone: instruction results defined inside the
    /// cloned region map to their copies, everything else is unchanged.
    pub fn map_value(&self, v: Value) -> Value {
        match v {
            Value::Inst(id) => match *self.insts.get(id) {
                Some(n) => Value::Inst(n),
                None => v,
            },
            other => other,
        }
    }

    /// Map a block through the clone (identity for blocks outside the
    /// region).
    pub fn map_block(&self, b: BlockId) -> BlockId {
        self.blocks.get(b).unwrap_or(b)
    }

    /// The clone of instruction `i`, if `i` was inside the cloned region.
    pub fn inst(&self, i: InstId) -> Option<InstId> {
        *self.insts.get(i)
    }

    /// The cloned blocks, in cloning order (the order of the `blocks`
    /// argument of [`clone_region`]).
    pub fn cloned_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.block_copies.iter().map(|&(_, c)| c)
    }

    /// Forget every mapping, keeping the tables: a caller cloning many
    /// times reuses one map instead of growing a fresh one to the arena's
    /// size per clone.
    fn clear(&mut self) {
        for &(b, _) in &self.block_copies {
            self.blocks.set(b, None);
        }
        for &(i, _) in &self.inst_copies {
            self.insts.set(i, None);
        }
        self.block_copies.clear();
        self.inst_copies.clear();
    }
}

/// Clone the given blocks (and all their instructions) into fresh blocks.
///
/// * Edges between cloned blocks are redirected into the copy.
/// * Edges leaving the region keep their original targets.
/// * Operand uses of instructions inside the region are remapped; uses of
///   values defined outside are kept.
/// * Phi incoming *labels* from blocks inside the region are remapped;
///   labels from outside blocks are kept (callers typically rewrite these).
///
/// Callers are responsible for making the clone reachable and for updating
/// phis in region successors (see [`add_phi_incomings_for_clone`]).
pub fn clone_region(f: &mut Function, blocks: &[BlockId]) -> CloneMap {
    // Sized for the arenas as they are: every key the clone maps is a slot
    // that exists before it.
    let mut map = CloneMap {
        blocks: SecondaryMap::with_capacity(f.num_block_slots()),
        insts: SecondaryMap::with_capacity(f.num_inst_slots()),
        ..CloneMap::default()
    };
    clone_region_with(f, blocks, |f, _, i| f.inst(i).clone(), &mut map);
    map
}

/// [`clone_region`] into `map` (cleared first), with each instruction `i`
/// of block `b` copied as `copy(f, b, i)` returns it, before the
/// remapping: unmerging builds the phis of a path's entry from the
/// incomings that path keeps rather than copying all of them and
/// filtering.
pub(crate) fn clone_region_with(
    f: &mut Function,
    blocks: &[BlockId],
    mut copy: impl FnMut(&Function, BlockId, InstId) -> Inst,
    map: &mut CloneMap,
) {
    map.clear();
    // Pass 1: create empty clone blocks.
    for &b in blocks {
        let nb = f.add_block();
        let len = f.block(b).insts.len();
        f.block_mut(nb).insts.reserve_exact(len);
        map.blocks.set(b, Some(nb));
        map.block_copies.push((b, nb));
    }
    // Pass 2: clone instructions (operands still original).
    for &b in blocks {
        let nb = map.map_block(b);
        for ix in 0..f.block(b).insts.len() {
            let i = f.block(b).insts[ix];
            let inst = copy(f, b, i);
            let ni = f.append_inst(nb, inst);
            map.insts.set(i, Some(ni));
            map.inst_copies.push((i, ni));
        }
    }
    // Pass 3: remap operands, branch targets and phi labels inside clones.
    for &(_, ni) in &map.inst_copies {
        let kind = &mut f.inst_mut(ni).kind;
        kind.for_each_operand_mut(|v| *v = map.map_value(*v));
        match kind {
            InstKind::Br { target } => *target = map.map_block(*target),
            InstKind::CondBr {
                if_true, if_false, ..
            } => {
                *if_true = map.map_block(*if_true);
                *if_false = map.map_block(*if_false);
            }
            InstKind::Phi { incomings } => {
                for (b, _) in incomings {
                    *b = map.map_block(*b);
                }
            }
            _ => {}
        }
    }
}

/// For every phi in `succ` with an incoming from `orig_pred` (a block that
/// was cloned), add a parallel incoming from the clone of `orig_pred`
/// carrying the remapped value.
///
/// Call this for each edge from the cloned region to an *unduplicated*
/// successor (loop headers on back edges, exit blocks, downstream merge
/// blocks).
pub fn add_phi_incomings_for_clone(
    f: &mut Function,
    succ: BlockId,
    orig_pred: BlockId,
    map: &CloneMap,
) {
    let new_pred = map.map_block(orig_pred);
    if new_pred == orig_pred {
        return;
    }
    for k in 0..f.phis(succ).len() {
        let phi = f.block(succ).insts[k];
        let mut addition = None;
        if let InstKind::Phi { incomings } = &f.inst(phi).kind {
            for (b, v) in incomings {
                if *b == orig_pred {
                    addition = Some((new_pred, map.map_value(*v)));
                }
            }
        }
        if let Some(pair) = addition {
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                incomings.push(pair);
            }
        }
    }
}

/// Remove the phi incomings in `succ` coming from `pred`.
pub fn remove_phi_incomings_from(f: &mut Function, succ: BlockId, pred: BlockId) {
    for k in 0..f.phis(succ).len() {
        let phi = f.block(succ).insts[k];
        if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            incomings.retain(|(b, _)| *b != pred);
        }
    }
}

/// Replace the single-incoming phis of `blocks` (distinct) by their values
/// and unlink them; returns the number of phis resolved. The function is
/// what resolving them one at a time, in `blocks` order and program order
/// within a block, would leave — every arena slot included — but all uses
/// are rewritten in a single [`Function::replace_uses_with`] sweep instead
/// of one per phi.
///
/// One at a time, a phi's replacement is read after the earlier
/// replacements were applied to it, and later replacements are applied to
/// everything it was substituted into. So chains resolve to their end in
/// both directions (an earlier phi fed by a later one, a later phi fed by an
/// earlier one), and a cycle of phis — possible in unreachable code only —
/// collapses onto the member met last, which resolves to itself and is
/// merely unlinked.
pub fn resolve_trivial_phis_in(f: &mut Function, blocks: &[BlockId]) -> usize {
    // image[p]: what the resolved phi `p` stands for once every replacement
    // made so far has been applied.
    let mut image: SecondaryMap<InstId, Option<Value>> = SecondaryMap::new();
    let mut found: Vec<(BlockId, InstId)> = Vec::new();
    for &b in blocks {
        for &phi in &f.block(b).insts {
            let InstKind::Phi { incomings } = &f.inst(phi).kind else {
                break;
            };
            if let [(_, v)] = incomings[..] {
                let v = chase(&mut image, v);
                image.set(phi, Some(v));
                found.push((b, phi));
            }
        }
    }
    if found.is_empty() {
        return 0;
    }
    for &(_, phi) in &found {
        chase(&mut image, Value::Inst(phi));
    }
    f.replace_uses_with(|v| match v {
        Value::Inst(i) => image.get(i).filter(|to| *to != v),
        _ => None,
    });
    let mut last = None;
    for &(b, _) in &found {
        if last != Some(b) {
            f.block_mut(b).insts.retain(|i| image.get(*i).is_none());
            last = Some(b);
        }
    }
    found.len()
}

/// Follow `image` from `v` to the value it ends at — one that is not a
/// resolved phi, or a phi that stands for itself — and point every phi on
/// the way straight at it.
fn chase(image: &mut SecondaryMap<InstId, Option<Value>>, v: Value) -> Value {
    let step = |image: &SecondaryMap<InstId, Option<Value>>, v: Value| match v {
        Value::Inst(p) => image.get(p).filter(|next| *next != v),
        _ => None,
    };
    let mut end = v;
    while let Some(next) = step(image, end) {
        end = next;
    }
    let mut at = v;
    while let Some(next) = step(image, at) {
        if let Value::Inst(p) = at {
            image.set(p, Some(end));
        }
        at = next;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type};

    /// entry -> h -> body -> h (loop), h -> exit
    fn simple_loop() -> (uu_ir::Function, BlockId, BlockId, BlockId) {
        let mut f = uu_ir::Function::new("k", vec![Param::new("n", Type::I64)], Type::I64);
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
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        (f, h, body, exit)
    }

    #[test]
    fn clones_blocks_and_remaps_internal_edges() {
        let (mut f, h, body, _exit) = simple_loop();
        let n_before = f.num_blocks();
        let map = clone_region(&mut f, &[h, body]);
        assert_eq!(f.num_blocks(), n_before + 2);
        let nh = map.map_block(h);
        let nbody = map.map_block(body);
        // Cloned header branches to cloned body (internal edge remapped)
        // and to the original exit (external edge kept).
        let succs = f.successors(nh);
        assert!(succs.contains(&nbody));
        assert!(succs.contains(&BlockId::from_index(3)));
        // Cloned body's backedge points at the cloned header.
        assert_eq!(*f.successors(nbody), [nh]);
    }

    #[test]
    fn clones_remap_values() {
        let (mut f, h, body, _) = simple_loop();
        let phi = f.phis(h)[0];
        let map = clone_region(&mut f, &[h, body]);
        let nphi = map.inst(phi).unwrap();
        let nbody = map.map_block(body);
        // The cloned add uses the cloned phi.
        let nadd = f.block(nbody).insts[0];
        match &f.inst(nadd).kind {
            InstKind::Bin { lhs, .. } => assert_eq!(*lhs, Value::Inst(nphi)),
            _ => unreachable!(),
        }
        // map_value is identity on constants and unknown insts.
        assert_eq!(map.map_value(Value::imm(1i32)), Value::imm(1i32));
        assert_eq!(map.map_value(Value::Arg(0)), Value::Arg(0));
    }

    #[test]
    fn phi_incomings_for_clone() {
        let (mut f, h, body, exit) = simple_loop();
        // Clone body only; header should then accept an incoming from the
        // cloned body too (as if it were an extra latch).
        let map = clone_region(&mut f, &[body]);
        add_phi_incomings_for_clone(&mut f, h, body, &map);
        let phi = f.phis(h)[0];
        match &f.inst(phi).kind {
            InstKind::Phi { incomings } => {
                assert_eq!(incomings.len(), 3);
                assert!(incomings.iter().any(|(b, _)| *b == map.map_block(body)));
            }
            _ => unreachable!(),
        }
        // And exit is untouched (body doesn't branch to exit).
        assert_eq!(f.phis(exit).len(), 0);
    }

    #[test]
    fn remove_and_resolve_phis() {
        let (mut f, h, body, _) = simple_loop();
        remove_phi_incomings_from(&mut f, h, body);
        let phi = f.phis(h)[0];
        match &f.inst(phi).kind {
            InstKind::Phi { incomings } => assert_eq!(incomings.len(), 1),
            _ => unreachable!(),
        }
        let n = resolve_trivial_phis_in(&mut f, &[h]);
        assert_eq!(n, 1);
        assert!(f.phis(h).is_empty());
        // The add in body now uses the constant 0 directly.
        let add = f.block(body).insts[0];
        match &f.inst(add).kind {
            InstKind::Bin { lhs, .. } => assert_eq!(*lhs, Value::imm(0i64)),
            _ => unreachable!(),
        }
    }

    use uu_ir::Value;
}
