//! Functions (kernels): instruction and block arenas plus block layout.

use crate::entities::{BlockId, InstId, Value};
use crate::inst::{Inst, InstKind, Succs};
use crate::table::EntitySet;
use crate::types::Type;
use std::cell::Cell;
use std::collections::BTreeMap;

thread_local! {
    /// Arena-wide use sweeps ([`Function::replace_uses_with`]) on this thread.
    static USE_SWEEPS: Cell<u64> = const { Cell::new(0) };
}

/// How many arena-wide use sweeps ([`Function::replace_uses_with`], and
/// so [`Function::replace_all_uses`]) this thread has run. Each costs time
/// linear in the whole instruction arena, so a pass should run at most one
/// per invocation. Diagnostics only: nothing observable depends on it.
pub fn use_sweep_count() -> u64 {
    USE_SWEEPS.with(Cell::get)
}

/// The predecessor map [`Function::predecessors`] returns, in compressed
/// rows: one list of every slot's predecessors, back to back, plus where
/// each slot's run starts. `preds[b.index()]` is `b`'s slice in layout
/// order; a `condbr` with both edges to `b` lists its block twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Preds {
    /// `offsets[b]..offsets[b + 1]` is block slot `b`'s run in `list`.
    offsets: Vec<u32>,
    list: Vec<BlockId>,
}

impl Preds {
    /// The number of block slots (linked or not) the map covers.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the function has no block slots at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One owned list per block slot, for a pass that edits the map as it
    /// rewrites the CFG.
    pub fn into_lists(self) -> Vec<Vec<BlockId>> {
        (0..self.len()).map(|b| self[b].to_vec()).collect()
    }
}

impl std::ops::Index<usize> for Preds {
    type Output = [BlockId];

    fn index(&self, block: usize) -> &[BlockId] {
        &self.list[self.offsets[block] as usize..self.offsets[block + 1] as usize]
    }
}

/// A formal parameter of a function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// Human-readable name, used by the printer.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// `__restrict__`: for pointer parameters, a promise that memory reached
    /// through this pointer is not reached through any other parameter.
    /// The optimizer's alias analysis exploits this, exactly as the paper's
    /// rainflow analysis does (its arrays are `__restrict__`-qualified).
    pub restrict: bool,
}

impl Param {
    /// Construct a parameter (without `__restrict__`).
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        Param {
            name: name.into(),
            ty,
            restrict: false,
        }
    }

    /// Construct a `__restrict__`-qualified pointer parameter.
    pub fn restrict(name: impl Into<String>, ty: Type) -> Self {
        Param {
            name: name.into(),
            ty,
            restrict: true,
        }
    }
}

/// A basic block: an ordered list of instruction IDs. The last instruction of
/// a complete block is its terminator; phi nodes, if any, come first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Instructions in program order.
    pub insts: Vec<InstId>,
}

/// User pragma attached to a loop (identified by its header block),
/// mirroring `#pragma unroll`. The u&u heuristic refrains from transforming
/// pragma-annotated loops (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopPragma {
    /// `#pragma unroll N` — the user requested explicit unrolling.
    Unroll(u32),
    /// `#pragma nounroll` — the user forbade unrolling.
    NoUnroll,
}

/// A function: arenas of instructions and blocks, a block layout (the order
/// blocks are emitted/printed in, with the entry first), parameters, and a
/// return type.
///
/// Instruction and block IDs are stable: removing a block from the layout
/// does not invalidate IDs, it only unlinks the block from the function body.
///
/// # Examples
///
/// ```
/// use uu_ir::{Function, Param, Type, FunctionBuilder, Value};
/// let mut f = Function::new("id", vec![Param::new("x", Type::I64)], Type::I64);
/// let entry = f.entry();
/// let mut b = FunctionBuilder::new(&mut f);
/// b.switch_to(entry);
/// b.ret(Some(Value::Arg(0)));
/// assert_eq!(f.num_blocks(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Function {
    name: String,
    params: Vec<Param>,
    ret_ty: Type,
    insts: Vec<Inst>,
    blocks: Vec<Block>,
    layout: Vec<BlockId>,
    loop_pragmas: BTreeMap<BlockId, LoopPragma>,
    journal: Journal,
}

/// First-write undo journal backing the delta snapshots of
/// [`Function::snapshot_begin`].
///
/// While armed, every mutation of a pre-snapshot arena slot records the
/// slot's pre-image once (a bit per slot marks "already saved"); arena
/// *growth* needs no recording because rollback truncates to the high-water
/// marks captured at arm time. The layout and pragma map are tiny and
/// change shape freely, so they are saved eagerly. All buffers are retained
/// across arm/commit cycles: a pass pipeline arming per invocation reuses
/// one allocation set per function.
#[derive(Debug, Clone, Default)]
struct Journal {
    active: bool,
    insts_len: usize,
    blocks_len: usize,
    layout: Vec<BlockId>,
    pragmas: BTreeMap<BlockId, LoopPragma>,
    saved_insts: Vec<(u32, Inst)>,
    saved_blocks: Vec<(u32, Block)>,
    inst_bits: Vec<u64>,
    block_bits: Vec<u64>,
}

impl Journal {
    /// Mark slot `ix` as saved; returns whether it was unmarked before.
    fn mark(bits: &mut [u64], ix: usize) -> bool {
        let (w, b) = (ix / 64, ix % 64);
        let fresh = bits[w] & (1 << b) == 0;
        bits[w] |= 1 << b;
        fresh
    }

    /// Record the pre-image of instruction slot `ix` if it predates the
    /// snapshot and has not been saved yet.
    fn save_inst(&mut self, ix: usize, insts: &[Inst]) {
        if ix < self.insts_len && Self::mark(&mut self.inst_bits, ix) {
            self.saved_insts.push((ix as u32, insts[ix].clone()));
        }
    }

    /// Record the pre-image of block slot `ix` if it predates the snapshot
    /// and has not been saved yet.
    fn save_block(&mut self, ix: usize, blocks: &[Block]) {
        if ix < self.blocks_len && Self::mark(&mut self.block_bits, ix) {
            self.saved_blocks.push((ix as u32, blocks[ix].clone()));
        }
    }
}

/// Structural equality over everything a pass or the simulator can read:
/// name, signature, both arenas (unlinked slots included), layout and
/// pragmas. The undo journal is bookkeeping and is ignored. This is what
/// makes a content-addressed cache keyed on a whole function complete by
/// construction; [`crate::hash::function_fingerprint`] is the matching
/// bucket hash.
impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.params == other.params
            && self.ret_ty == other.ret_ty
            && self.layout == other.layout
            && self.loop_pragmas == other.loop_pragmas
            && self.blocks == other.blocks
            && self.insts == other.insts
    }
}

impl Function {
    /// Create a function with a fresh (empty) entry block.
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Self {
        let mut f = Function {
            name: name.into(),
            params,
            ret_ty,
            insts: Vec::new(),
            blocks: Vec::new(),
            layout: Vec::new(),
            loop_pragmas: BTreeMap::new(),
            journal: Journal::default(),
        };
        f.add_block();
        f
    }

    /// Function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Formal parameters.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Return type.
    pub fn ret_ty(&self) -> Type {
        self.ret_ty
    }

    /// The entry block (always the first block in layout).
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks (cannot happen for functions
    /// created through [`Function::new`]).
    pub fn entry(&self) -> BlockId {
        self.layout[0]
    }

    /// Append a new empty block to the arena and layout.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        self.layout.push(id);
        id
    }

    /// Number of blocks currently in the layout.
    pub fn num_blocks(&self) -> usize {
        self.layout.len()
    }

    /// Total number of block arena slots (including unlinked ones).
    pub fn num_block_slots(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of instruction arena slots (including unlinked ones).
    pub fn num_inst_slots(&self) -> usize {
        self.insts.len()
    }

    /// Number of instructions currently linked into blocks in the layout.
    pub fn num_insts(&self) -> usize {
        self.layout
            .iter()
            .map(|b| self.block(*b).insts.len())
            .sum()
    }

    /// Blocks in layout order.
    pub fn layout(&self) -> &[BlockId] {
        &self.layout
    }

    /// Assemble a function from finished arenas and a layout — the
    /// parser's way of reproducing printed numbering and block order.
    /// Blocks and instructions the layout does not reach stay in the
    /// arenas, unlinked.
    pub(crate) fn from_parts(
        name: &str,
        params: Vec<Param>,
        ret_ty: Type,
        insts: Vec<Inst>,
        blocks: Vec<Block>,
        layout: Vec<BlockId>,
    ) -> Self {
        debug_assert!(!layout.is_empty() && layout.iter().all(|b| b.index() < blocks.len()));
        Function {
            name: name.into(),
            params,
            ret_ty,
            insts,
            blocks,
            layout,
            loop_pragmas: BTreeMap::new(),
            journal: Journal::default(),
        }
    }

    /// Move `block` to the end of the layout (no-op if absent).
    pub fn move_block_to_end(&mut self, block: BlockId) {
        self.layout.retain(|b| *b != block);
        self.layout.push(block);
    }

    /// Unlink a block from the layout. Its arena slot (and instructions)
    /// remain but are no longer part of the function body.
    pub fn remove_block(&mut self, block: BlockId) {
        self.layout.retain(|b| *b != block);
    }

    /// Unlink every block of `blocks` from the layout in one pass; the
    /// layout order of the others is kept.
    pub fn remove_blocks(&mut self, blocks: &EntitySet<BlockId>) {
        self.layout.retain(|b| !blocks.contains(*b));
    }

    /// Whether `block` is currently in the layout.
    pub fn is_linked(&self, block: BlockId) -> bool {
        self.layout.contains(&block)
    }

    /// Immutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid block of this function.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid block of this function.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        if self.journal.active {
            self.journal.save_block(id.index(), &self.blocks);
        }
        &mut self.blocks[id.index()]
    }

    /// Immutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid instruction of this function.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid instruction of this function.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        if self.journal.active {
            self.journal.save_inst(id.index(), &self.insts);
        }
        &mut self.insts[id.index()]
    }

    /// Create an instruction in the arena without linking it into any block.
    pub fn create_inst(&mut self, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        id
    }

    /// Create an instruction and append it to `block`.
    pub fn append_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = self.create_inst(inst);
        self.block_mut(block).insts.push(id);
        id
    }

    /// Create an instruction and insert it at the front of `block` (after any
    /// existing phi nodes if `inst` is not a phi, at position 0 otherwise).
    pub fn prepend_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let is_phi = inst.kind.is_phi();
        let id = self.create_inst(inst);
        let pos = if is_phi {
            0
        } else {
            self.block(block)
                .insts
                .iter()
                .take_while(|i| self.inst(**i).kind.is_phi())
                .count()
        };
        self.block_mut(block).insts.insert(pos, id);
        id
    }

    /// Remove an instruction from `block` (the arena slot survives).
    pub fn unlink_inst(&mut self, block: BlockId, inst: InstId) {
        self.block_mut(block).insts.retain(|i| *i != inst);
    }

    /// The terminator of `block`, if the block is non-empty and ends in one.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = *self.block(block).insts.last()?;
        if self.inst(last).kind.is_terminator() {
            Some(last)
        } else {
            None
        }
    }

    /// Successor blocks of `block` (empty if it lacks a terminator).
    pub fn successors(&self, block: BlockId) -> Succs {
        match self.terminator(block) {
            Some(t) => self.inst(t).kind.successors(),
            None => Succs::NONE,
        }
    }

    /// Predecessor map over the current layout: `preds[b.index()]` lists the
    /// layout blocks whose terminator targets `b`, in layout order, once per
    /// edge. Recomputed on demand, in two passes over the layout.
    pub fn predecessors(&self) -> Preds {
        // Count each slot's edges one slot up, so the prefix sums leave
        // `offsets[b]` at the start of `b`'s list; filling then advances
        // `offsets[b]` to its end, and one shift restores the starts.
        let mut offsets = vec![0u32; self.blocks.len() + 1];
        for &b in &self.layout {
            for s in self.successors(b) {
                offsets[s.index() + 1] += 1;
            }
        }
        for ix in 1..offsets.len() {
            offsets[ix] += offsets[ix - 1];
        }
        let mut list = vec![BlockId(0); *offsets.last().expect("one more than the slots") as usize];
        for &b in &self.layout {
            for s in self.successors(b) {
                let at = &mut offsets[s.index()];
                list[*at as usize] = b;
                *at += 1;
            }
        }
        offsets.copy_within(..self.blocks.len(), 1);
        offsets[0] = 0;
        Preds { offsets, list }
    }

    /// IDs of the phi instructions at the head of `block`.
    pub fn phis(&self, block: BlockId) -> Vec<InstId> {
        self.block(block)
            .insts
            .iter()
            .copied()
            .take_while(|i| self.inst(*i).kind.is_phi())
            .collect()
    }

    /// The type of any [`Value`] in the context of this function.
    ///
    /// # Panics
    ///
    /// Panics if an `Arg` index is out of range.
    pub fn value_type(&self, v: Value) -> Type {
        match v {
            Value::Inst(id) => self.inst(id).ty,
            Value::Arg(i) => self.params[i as usize].ty,
            Value::Const(c) => c.ty(),
        }
    }

    /// Replace every use of `from` with `to` in every arena slot, linked or
    /// not (see [`Function::replace_uses_with`]).
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        self.replace_uses_with(|v| (v == from).then_some(to));
    }

    /// Apply a whole substitution in one sweep of the instruction arena:
    /// every operand `v` with `subst(v) == Some(to)` becomes `to`.
    ///
    /// The sweep covers *every* arena slot, unlinked ones included —
    /// `Function: PartialEq` and [`crate::hash::function_fingerprint`] read
    /// the whole arena, so what an unlinked slot holds is observable. The
    /// substitution is applied once, not to a fixpoint: callers with chains
    /// (`a → b`, `b → c`) resolve them before calling. While a snapshot is
    /// armed, each slot the sweep rewrites has its pre-image journaled
    /// first, exactly as a mutation through [`Function::inst_mut`] would.
    pub fn replace_uses_with(&mut self, subst: impl Fn(Value) -> Option<Value>) {
        USE_SWEEPS.with(|c| c.set(c.get() + 1));
        for ix in 0..self.insts.len() {
            // Journal the pre-image before the first in-place rewrite.
            if self.journal.active {
                let mut uses = false;
                self.insts[ix]
                    .kind
                    .for_each_operand(|v| uses |= subst(*v).is_some());
                if !uses {
                    continue;
                }
                self.journal.save_inst(ix, &self.insts);
            }
            self.insts[ix].kind.for_each_operand_mut(|v| {
                if let Some(to) = subst(*v) {
                    *v = to;
                }
            });
        }
    }

    /// Attach a loop pragma to the loop whose header is `header`.
    pub fn set_loop_pragma(&mut self, header: BlockId, pragma: LoopPragma) {
        self.loop_pragmas.insert(header, pragma);
    }

    /// The pragma attached to the loop with header `header`, if any.
    pub fn loop_pragma(&self, header: BlockId) -> Option<LoopPragma> {
        self.loop_pragmas.get(&header).copied()
    }

    /// Iterate over `(InstId, &Inst)` for every instruction linked into the
    /// layout, in layout/program order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (InstId, &Inst)> + '_ {
        self.layout
            .iter()
            .flat_map(move |b| self.block(*b).insts.iter())
            .map(move |i| (*i, self.inst(*i)))
    }

    /// Blocks reachable from the entry via terminator edges.
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry()];
        let mut out = Vec::new();
        seen[self.entry().index()] = true;
        while let Some(b) = stack.pop() {
            out.push(b);
            for s in self.successors(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        out
    }

    /// Drop unreachable blocks from the layout and remove phi incomings that
    /// refer to unlinked predecessors. Returns the number of removed blocks.
    pub fn prune_unreachable(&mut self) -> usize {
        let reach = self.reachable_blocks();
        let mut keep = vec![false; self.blocks.len()];
        for b in &reach {
            keep[b.index()] = true;
        }
        let before = self.layout.len();
        self.layout.retain(|b| keep[b.index()]);
        // Remove phi incomings from now-dead predecessors.
        let layout = self.layout.clone();
        for b in layout {
            for phi in self.phis(b) {
                if let InstKind::Phi { incomings } = &mut self.inst_mut(phi).kind {
                    incomings.retain(|(p, _)| keep[p.index()]);
                }
            }
        }
        before - self.layout.len()
    }

    /// Arm a delta snapshot: until [`Function::snapshot_commit`] or
    /// [`Function::snapshot_rollback`], mutations record just enough undo
    /// information (arena high-water marks plus first-write pre-images of
    /// overwritten slots) for rollback to restore the function exactly —
    /// the cheap replacement for cloning the whole function before a
    /// guarded pass invocation.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot is already armed; nesting is not supported.
    pub fn snapshot_begin(&mut self) {
        assert!(
            !self.journal.active,
            "nested Function snapshots are not supported"
        );
        let j = &mut self.journal;
        j.active = true;
        j.insts_len = self.insts.len();
        j.blocks_len = self.blocks.len();
        j.layout.clear();
        j.layout.extend_from_slice(&self.layout);
        j.pragmas.clone_from(&self.loop_pragmas);
        j.saved_insts.clear();
        j.saved_blocks.clear();
        j.inst_bits.clear();
        j.inst_bits.resize(self.insts.len().div_ceil(64), 0);
        j.block_bits.clear();
        j.block_bits.resize(self.blocks.len().div_ceil(64), 0);
    }

    /// Release spare capacity: the arenas' and the buffers the snapshot
    /// journal keeps from one [`Function::snapshot_begin`] to the next. For
    /// a function whose pass invocations are over but which lives on.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot is armed.
    pub fn shrink_to_fit(&mut self) {
        assert!(!self.journal.active, "cannot shrink under an armed Function snapshot");
        self.journal = Journal::default();
        self.insts.shrink_to_fit();
        self.blocks.shrink_to_fit();
        self.layout.shrink_to_fit();
    }

    /// Whether the function now differs from its state at
    /// [`Function::snapshot_begin`] — exactly `*self != clone_at_arm`, in
    /// time proportional to the slots touched since. The journal records
    /// *touches*, so a slot rewritten to its own value, or a layout
    /// permuted and restored, is not a change; a slot appended (even one
    /// unlinked again) is, because unlinked slots are observable.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot is armed.
    pub fn snapshot_changed(&self) -> bool {
        let j = &self.journal;
        assert!(j.active, "no Function snapshot armed");
        self.insts.len() != j.insts_len
            || self.blocks.len() != j.blocks_len
            || self.layout != j.layout
            || self.loop_pragmas != j.pragmas
            || j.saved_insts.iter().any(|(ix, pre)| self.insts[*ix as usize] != *pre)
            || j.saved_blocks.iter().any(|(ix, pre)| self.blocks[*ix as usize] != *pre)
    }

    /// Accept all mutations since [`Function::snapshot_begin`] and disarm
    /// the snapshot, dropping the recorded undo information.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot is armed.
    pub fn snapshot_commit(&mut self) {
        assert!(self.journal.active, "no Function snapshot armed");
        let j = &mut self.journal;
        j.active = false;
        j.saved_insts.clear();
        j.saved_blocks.clear();
        j.pragmas.clear();
    }

    /// Undo every mutation since [`Function::snapshot_begin`] and disarm
    /// the snapshot. The function is restored exactly: overwritten arena
    /// slots get their pre-images back, slots created after arming are
    /// truncated away, and layout/pragmas return to their saved copies.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot is armed.
    pub fn snapshot_rollback(&mut self) {
        assert!(self.journal.active, "no Function snapshot armed");
        for (ix, inst) in self.journal.saved_insts.drain(..) {
            self.insts[ix as usize] = inst;
        }
        self.insts.truncate(self.journal.insts_len);
        for (ix, block) in self.journal.saved_blocks.drain(..) {
            self.blocks[ix as usize] = block;
        }
        self.blocks.truncate(self.journal.blocks_len);
        self.layout.clear();
        self.layout.extend_from_slice(&self.journal.layout);
        self.loop_pragmas = std::mem::take(&mut self.journal.pragmas);
        self.journal.active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, InstKind};

    fn branchy() -> Function {
        // entry -> (a | b) -> join -> ret
        let mut f = Function::new("t", vec![Param::new("c", Type::I1)], Type::I64);
        let entry = f.entry();
        let a = f.add_block();
        let b = f.add_block();
        let join = f.add_block();
        f.append_inst(
            entry,
            Inst::new(
                InstKind::CondBr {
                    cond: Value::Arg(0),
                    if_true: a,
                    if_false: b,
                },
                Type::Void,
            ),
        );
        f.append_inst(a, Inst::new(InstKind::Br { target: join }, Type::Void));
        f.append_inst(b, Inst::new(InstKind::Br { target: join }, Type::Void));
        let phi = f.append_inst(
            join,
            Inst::new(
                InstKind::Phi {
                    incomings: vec![(a, Value::imm(1i64)), (b, Value::imm(2i64))],
                },
                Type::I64,
            ),
        );
        f.append_inst(
            join,
            Inst::new(
                InstKind::Ret {
                    value: Some(Value::Inst(phi)),
                },
                Type::Void,
            ),
        );
        f
    }

    #[test]
    fn construction_and_layout() {
        let f = branchy();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.entry().index(), 0);
        assert_eq!(f.num_insts(), 5);
        assert_eq!(f.params().len(), 1);
        assert_eq!(f.ret_ty(), Type::I64);
    }

    #[test]
    fn successors_and_predecessors() {
        let f = branchy();
        let entry = f.entry();
        assert_eq!(f.successors(entry).len(), 2);
        let preds = f.predecessors();
        let join = BlockId::from_index(3);
        assert_eq!(preds[join.index()].len(), 2);
        assert!(preds[entry.index()].is_empty());
    }

    #[test]
    fn phis_and_value_types() {
        let f = branchy();
        let join = BlockId::from_index(3);
        let phis = f.phis(join);
        assert_eq!(phis.len(), 1);
        assert_eq!(f.value_type(Value::Inst(phis[0])), Type::I64);
        assert_eq!(f.value_type(Value::Arg(0)), Type::I1);
        assert_eq!(f.value_type(Value::imm(1i32)), Type::I32);
    }

    #[test]
    fn replace_all_uses() {
        let mut f = branchy();
        let join = BlockId::from_index(3);
        let phi = f.phis(join)[0];
        f.replace_all_uses(Value::Inst(phi), Value::imm(9i64));
        let ret = f.terminator(join).unwrap();
        match &f.inst(ret).kind {
            InstKind::Ret { value } => {
                assert_eq!(value.unwrap().as_const().unwrap().as_i64(), Some(9))
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn replace_uses_with_sweeps_unlinked_slots_and_rolls_back() {
        let mut f = branchy();
        let join = BlockId::from_index(3);
        let phi = f.phis(join)[0];
        let ret = f.terminator(join).unwrap();
        // An unlinked slot is still part of the function's identity.
        f.unlink_inst(join, ret);
        let before = f.clone();
        f.snapshot_begin();
        f.replace_uses_with(|v| match v {
            Value::Inst(i) if i == phi => Some(Value::Arg(0)),
            Value::Const(_) => Some(Value::imm(5i64)),
            _ => None,
        });
        let InstKind::Ret { value } = f.inst(ret).kind else {
            unreachable!()
        };
        assert_eq!(value, Some(Value::Arg(0)), "the unlinked ret was swept");
        let InstKind::Phi { incomings } = &f.inst(phi).kind else {
            unreachable!()
        };
        assert!(incomings.iter().all(|(_, v)| *v == Value::imm(5i64)));
        f.snapshot_rollback();
        assert!(f == before);
    }

    #[test]
    fn prune_unreachable_removes_dead_phi_inputs() {
        let mut f = branchy();
        let entry = f.entry();
        let a = BlockId::from_index(1);
        let b = BlockId::from_index(2);
        // Rewrite the entry terminator to always go to `a`.
        let term = f.terminator(entry).unwrap();
        f.inst_mut(term).kind = InstKind::Br { target: a };
        let removed = f.prune_unreachable();
        assert_eq!(removed, 1);
        assert!(!f.is_linked(b));
        let join = BlockId::from_index(3);
        let phi = f.phis(join)[0];
        match &f.inst(phi).kind {
            InstKind::Phi { incomings } => assert_eq!(incomings.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn unlink_and_prepend() {
        let mut f = branchy();
        let join = BlockId::from_index(3);
        let phi = f.phis(join)[0];
        // Prepending a non-phi lands after phis.
        let add = f.prepend_inst(
            join,
            Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Inst(phi),
                    rhs: Value::imm(1i64),
                },
                Type::I64,
            ),
        );
        assert_eq!(f.block(join).insts[1], add);
        f.unlink_inst(join, add);
        assert_eq!(f.block(join).insts.len(), 2);
    }

    #[test]
    fn loop_pragmas() {
        let mut f = branchy();
        let h = f.entry();
        assert_eq!(f.loop_pragma(h), None);
        f.set_loop_pragma(h, LoopPragma::Unroll(4));
        assert_eq!(f.loop_pragma(h), Some(LoopPragma::Unroll(4)));
    }
}
