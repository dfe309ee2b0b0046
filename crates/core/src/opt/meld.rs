//! Control-flow melding: the DARM-style dual of unmerging.
//!
//! Where the paper's u&u pass *splits* merged control flow so each path can
//! specialize, DARM (Saumya, Pattnaik, Kulkarni — "DARM: Control-Flow
//! Melding for SIMT Thread Divergence Reduction", CGO 2022) does the dual:
//! it *melds* the two arms of a divergent if-then-else into one predicated
//! path so a warp no longer serializes both sides. This pass reproduces the
//! core of that transform on our IR so the two philosophies can be run
//! head-to-head (see the harness `study` subcommand):
//!
//! 1. **Detection** — diamonds `b → {T, F} → J` whose branch condition is
//!    divergence-tainted per [`uu_analysis::Divergence`]. Uniform branches
//!    are left alone: melding them buys nothing (no warp ever splits) and
//!    costs straight-line work.
//! 2. **Alignment** — a longest-common-subsequence alignment of the two
//!    arms' instruction sequences over *instruction classes* (opcode +
//!    result type, DARM's §IV-B region alignment collapsed to the
//!    straight-line case our diamonds produce).
//! 3. **Legality** — arms must be phi-free, convergent-free, and small;
//!    every memory instruction must align with a partner of the same class
//!    (an unmatched store would execute unconditionally after melding, and
//!    an unmatched load would speculate an address the program never
//!    dereferences). Unaligned *pure* instructions are safe to speculate:
//!    the simulator's arithmetic is total (division by zero yields zero).
//! 4. **Melding** — aligned pairs merge into a single instruction; operand
//!    pairs that disagree after renaming are reconciled with
//!    `select cond, tOperand, fOperand` (DARM's blend at the value level).
//!    Unaligned instructions are hoisted as-is. Join phis collapse to
//!    selects, the branch becomes unconditional, and the arms die.
//!
//! The pass runs under the guarded pass manager as configurations `meld`
//! and `uu+meld` (see [`crate::pipeline::Transform`]).

use super::Pass;
use std::collections::HashMap;
use uu_analysis::{Divergence, DomTree, LoopForest};
use uu_ir::{BlockId, EntitySet, Function, Inst, InstId, InstKind, Preds, Value};

/// Maximum number of non-terminator instructions per arm. DARM bounds
/// region size for compile time; we bound it because the LCS table is
/// quadratic and melding huge arms trades too much straight-line work.
const MAX_ARM_INSTS: usize = 32;

/// The control-flow melding pass (whole function).
#[derive(Debug, Default, Clone, Copy)]
pub struct Meld;

impl Pass for Meld {
    fn name(&self) -> &'static str {
        "meld"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        meld_function(f)
    }
}

/// Meld every legal divergent diamond in the function. Returns whether
/// anything changed.
pub fn meld_function(f: &mut Function) -> bool {
    meld_driver(f, &|f| f.layout().to_vec())
}

/// Meld legal divergent diamonds whose branch block lies inside the loop
/// with the given `header` (the unit the per-loop sweep machinery selects).
/// Returns whether anything changed.
pub fn meld_loop(f: &mut Function, header: BlockId) -> bool {
    meld_driver(f, &|f| {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        forest
            .loops()
            .iter()
            .find(|l| l.header == header)
            .map(|l| l.blocks.clone())
            .unwrap_or_default()
    })
}

/// Fixpoint driver: each round recomputes divergence (melding rewrites the
/// CFG, which can change taint), asks `candidates` for the blocks to scan,
/// and melds the first legal diamond. Rescans until no diamond melds.
fn meld_driver(f: &mut Function, candidates: &dyn Fn(&Function) -> Vec<BlockId>) -> bool {
    let mut changed = false;
    loop {
        let div = Divergence::compute(f);
        // One predecessor map and layout set per round: `try_meld` reads
        // them only before it mutates, and the round ends on the first meld.
        let preds = f.predecessors();
        let linked: EntitySet<BlockId> = f.layout().iter().copied().collect();
        let mut round = false;
        for b in candidates(f) {
            if !linked.contains(b) {
                continue;
            }
            if try_meld(f, b, &div, &preds) {
                round = true;
                changed = true;
                break; // CFG changed; recompute analyses and rescan
            }
        }
        if !round {
            break;
        }
    }
    changed
}

/// The non-terminator body of an arm, provided the arm is meldable in
/// isolation: terminated by an unconditional branch, phi-free,
/// convergent-free, and within the size bound.
fn arm_body(f: &Function, b: BlockId) -> Option<Vec<InstId>> {
    let insts = &f.block(b).insts;
    if insts.len() > MAX_ARM_INSTS + 1 {
        return None;
    }
    let mut body = Vec::new();
    for (i, &id) in insts.iter().enumerate() {
        let kind = &f.inst(id).kind;
        if i + 1 == insts.len() {
            if !matches!(kind, InstKind::Br { .. }) {
                return None;
            }
            continue;
        }
        if kind.is_phi() || kind.is_convergent() || kind.is_terminator() {
            return None;
        }
        body.push(id);
    }
    Some(body)
}

/// Whether two instructions belong to the same meldable class: same opcode
/// (including predicate / intrinsic / GEP scale immediates) and same result
/// type. Class equality is what the alignment maximizes; operand
/// disagreements are reconciled later with selects.
fn same_class(f: &Function, a: InstId, b: InstId) -> bool {
    let (ia, ib) = (f.inst(a), f.inst(b));
    if ia.ty != ib.ty {
        return false;
    }
    match (&ia.kind, &ib.kind) {
        (InstKind::Bin { op: oa, .. }, InstKind::Bin { op: ob, .. }) => oa == ob,
        (InstKind::ICmp { pred: pa, .. }, InstKind::ICmp { pred: pb, .. }) => pa == pb,
        (InstKind::FCmp { pred: pa, .. }, InstKind::FCmp { pred: pb, .. }) => pa == pb,
        (InstKind::Select { .. }, InstKind::Select { .. }) => true,
        (InstKind::Cast { op: oa, .. }, InstKind::Cast { op: ob, .. }) => oa == ob,
        (InstKind::Load { .. }, InstKind::Load { .. }) => true,
        (InstKind::Store { ptr: _, value: va }, InstKind::Store { ptr: _, value: vb }) => {
            // Access width is the stored value's type.
            f.value_type(*va) == f.value_type(*vb)
        }
        (InstKind::Gep { scale: sa, .. }, InstKind::Gep { scale: sb, .. }) => sa == sb,
        (InstKind::Intr { which: wa, .. }, InstKind::Intr { which: wb, .. }) => wa == wb,
        _ => false,
    }
}

/// One step of the melded instruction schedule.
enum AlignOp {
    /// Aligned pair `(t, f)` melds into one instruction.
    Pair(InstId, InstId),
    /// Unaligned true-arm instruction, speculated as-is.
    GapT(InstId),
    /// Unaligned false-arm instruction, speculated as-is.
    GapF(InstId),
}

/// Longest-common-subsequence alignment of the two arms over instruction
/// classes, returned as a forward schedule. Classic quadratic DP; arms are
/// bounded by [`MAX_ARM_INSTS`].
fn align(f: &Function, at: &[InstId], af: &[InstId]) -> Vec<AlignOp> {
    let (n, m) = (at.len(), af.len());
    // dp[i][j] = LCS length of at[i..] vs af[j..].
    let mut dp = vec![0u16; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[idx(i, j)] = if same_class(f, at[i], af[j]) {
                dp[idx(i + 1, j + 1)] + 1
            } else {
                dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
            };
        }
    }
    let mut ops = Vec::with_capacity(n + m);
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if same_class(f, at[i], af[j]) && dp[idx(i, j)] == dp[idx(i + 1, j + 1)] + 1 {
            ops.push(AlignOp::Pair(at[i], af[j]));
            i += 1;
            j += 1;
        } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
            ops.push(AlignOp::GapT(at[i]));
            i += 1;
        } else {
            ops.push(AlignOp::GapF(af[j]));
            j += 1;
        }
    }
    ops.extend(at[i..].iter().map(|&t| AlignOp::GapT(t)));
    ops.extend(af[j..].iter().map(|&t| AlignOp::GapF(t)));
    ops
}

/// Legality over the schedule: every memory instruction must sit in an
/// aligned pair. A gap store would execute unconditionally after melding; a
/// gap load would dereference an address the original program only touches
/// on one path.
fn memory_ops_all_aligned(f: &Function, ops: &[AlignOp]) -> bool {
    ops.iter().all(|op| match op {
        AlignOp::Pair(..) => true,
        AlignOp::GapT(id) | AlignOp::GapF(id) => {
            let k = &f.inst(*id).kind;
            !k.reads_memory() && !k.writes_memory()
        }
    })
}

fn resolve(map: &HashMap<InstId, Value>, v: Value) -> Value {
    match v {
        Value::Inst(id) => map.get(&id).copied().unwrap_or(v),
        _ => v,
    }
}

/// Move `id` (already unlinked) to just before `b`'s terminator.
fn place_before_terminator(f: &mut Function, b: BlockId, id: InstId) {
    let pos = f.block(b).insts.len() - 1;
    f.block_mut(b).insts.insert(pos, id);
}

/// Try to meld the diamond branching at `b`, given `f`'s predecessor map.
/// Returns whether it melded.
fn try_meld(f: &mut Function, b: BlockId, div: &Divergence, preds: &Preds) -> bool {
    let Some(t) = f.terminator(b) else {
        return false;
    };
    let InstKind::CondBr {
        cond,
        if_true,
        if_false,
    } = f.inst(t).kind
    else {
        return false;
    };
    if if_true == if_false || !div.is_divergent(cond) {
        return false;
    }
    // Diamond shape, as in if-conversion: b → {T, F} → J, J having exactly
    // those two predecessors and each arm belonging to this diamond alone.
    let ts = f.successors(if_true);
    let fs = f.successors(if_false);
    let diamond = ts.len() == 1
        && fs.len() == 1
        && ts[0] == fs[0]
        && ts[0] != b
        && preds[if_true.index()] == [b]
        && preds[if_false.index()] == [b]
        && preds[ts[0].index()].len() == 2;
    if !diamond {
        return false;
    }
    let join = ts[0];
    let (Some(body_t), Some(body_f)) = (arm_body(f, if_true), arm_body(f, if_false)) else {
        return false;
    };
    let ops = align(f, &body_t, &body_f);
    if !memory_ops_all_aligned(f, &ops) {
        return false;
    }

    // Meld the schedule into b. True-arm instructions keep their identity
    // (they become the merged instruction of a pair), so only false-arm
    // results need renaming: map_f sends a matched F instruction to its
    // merged partner's value.
    let mut map_f: HashMap<InstId, Value> = HashMap::new();
    for op in &ops {
        match op {
            AlignOp::GapT(id) => {
                f.unlink_inst(if_true, *id);
                place_before_terminator(f, b, *id);
            }
            AlignOp::GapF(id) => {
                f.unlink_inst(if_false, *id);
                let mf = &map_f;
                f.inst_mut(*id).kind.for_each_operand_mut(|v| *v = resolve(mf, *v));
                place_before_terminator(f, b, *id);
            }
            AlignOp::Pair(ti, fi) => {
                // Operand-wise blend: where the two sides disagree after
                // renaming, insert `select cond, tOp, fOp` before the pair.
                let ops_t = f.inst(*ti).kind.operands();
                let ops_f: Vec<Value> = f
                    .inst(*fi)
                    .kind
                    .operands()
                    .into_iter()
                    .map(|v| resolve(&map_f, v))
                    .collect();
                let mut blended = Vec::with_capacity(ops_t.len());
                for (&vt, &vf) in ops_t.iter().zip(&ops_f) {
                    if vt == vf {
                        blended.push(vt);
                    } else {
                        let ty = f.value_type(vt);
                        let sel = f.create_inst(Inst::new(
                            InstKind::Select {
                                cond,
                                on_true: vt,
                                on_false: vf,
                            },
                            ty,
                        ));
                        place_before_terminator(f, b, sel);
                        blended.push(Value::Inst(sel));
                    }
                }
                f.unlink_inst(if_true, *ti);
                let mut k = 0;
                f.inst_mut(*ti).kind.for_each_operand_mut(|v| {
                    *v = blended[k];
                    k += 1;
                });
                place_before_terminator(f, b, *ti);
                map_f.insert(*fi, Value::Inst(*ti));
            }
        }
    }

    // Join phis collapse to selects (or to the shared value when both arms
    // agree after renaming).
    for phi in f.phis(join).to_vec() {
        let (mut tv, mut fv) = (None, None);
        if let InstKind::Phi { incomings } = &f.inst(phi).kind {
            for (p, v) in incomings {
                if *p == if_true {
                    tv = Some(*v);
                }
                if *p == if_false {
                    fv = Some(*v);
                }
            }
        }
        let (Some(tv), Some(fv)) = (tv, fv) else {
            continue;
        };
        let fv = resolve(&map_f, fv);
        let merged = if tv == fv {
            tv
        } else {
            let ty = f.inst(phi).ty;
            let sel = f.create_inst(Inst::new(
                InstKind::Select {
                    cond,
                    on_true: tv,
                    on_false: fv,
                },
                ty,
            ));
            place_before_terminator(f, b, sel);
            Value::Inst(sel)
        };
        if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            incomings.retain(|(p, _)| *p != if_true && *p != if_false);
            incomings.push((b, merged));
        }
    }

    let t = f.terminator(b).unwrap();
    f.inst_mut(t).kind = InstKind::Br { target: join };
    f.remove_block(if_true);
    f.remove_block(if_false);
    crate::clone::resolve_trivial_phis_in(f, &[join]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Intrinsic, Param, Type};

    /// A diamond whose condition derives from `threadIdx.x`, with one
    /// aligned memory op per arm and a mismatched multiplier:
    /// `if (tid & 1) A[i] = x*2 else A[i] = x*3`.
    fn divergent_store_diamond() -> Function {
        let mut f = Function::new(
            "k",
            vec![Param::new("a", Type::Ptr), Param::new("x", Type::I64)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let tid = b.intr(Intrinsic::ThreadIdxX, vec![], Type::I32);
        let tid64 = b.cast(uu_ir::CastOp::Sext, tid, Type::I64);
        let bit = b.and(tid64, Value::imm(1i64));
        let odd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.cond_br(odd, t, el);
        b.switch_to(t);
        let x2 = b.mul(Value::Arg(1), Value::imm(2i64));
        let p1 = b.gep(Value::Arg(0), tid64, 8);
        b.store(p1, x2);
        b.br(j);
        b.switch_to(el);
        let x3 = b.mul(Value::Arg(1), Value::imm(3i64));
        let p2 = b.gep(Value::Arg(0), tid64, 8);
        b.store(p2, x3);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();
        f
    }

    fn count(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        f.iter_insts().filter(|(_, i)| pred(&i.kind)).count()
    }

    #[test]
    fn divergent_diamond_with_aligned_stores_melds() {
        let mut f = divergent_store_diamond();
        assert!(meld_function(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        // One store survives, unconditional, fed by a select on the value.
        assert_eq!(count(&f, |k| matches!(k, InstKind::Store { .. })), 1, "{f}");
        assert_eq!(count(&f, |k| matches!(k, InstKind::CondBr { .. })), 0, "{f}");
        assert!(count(&f, |k| matches!(k, InstKind::Select { .. })) >= 1, "{f}");
        // The divergent branch is gone per the analysis too.
        let div = Divergence::compute(&f);
        assert_eq!(div_branches(&f, &div), 0, "{f}");
    }

    fn div_branches(f: &Function, div: &Divergence) -> usize {
        f.iter_insts()
            .filter(|(_, i)| match i.kind {
                InstKind::CondBr { cond, .. } => div.is_divergent(cond),
                _ => false,
            })
            .count()
    }

    #[test]
    fn uniform_diamond_is_left_alone() {
        // Same shape, but the condition derives from an argument: no warp
        // ever splits on it, so melding would only cost straight-line work.
        let mut f = Function::new(
            "k",
            vec![
                Param::new("a", Type::Ptr),
                Param::new("x", Type::I64),
                Param::new("n", Type::I64),
            ],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let odd = b.icmp(ICmpPred::Ne, Value::Arg(2), Value::imm(0i64));
        b.cond_br(odd, t, el);
        b.switch_to(t);
        let x2 = b.mul(Value::Arg(1), Value::imm(2i64));
        b.store(Value::Arg(0), x2);
        b.br(j);
        b.switch_to(el);
        let x3 = b.mul(Value::Arg(1), Value::imm(3i64));
        b.store(Value::Arg(0), x3);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();
        assert!(!meld_function(&mut f));
    }

    #[test]
    fn unmatched_store_rejects_the_diamond() {
        // True arm stores, false arm is pure: melding would make the store
        // unconditional.
        let mut f = Function::new(
            "k",
            vec![Param::new("a", Type::Ptr), Param::new("x", Type::I64)],
            Type::I64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let tid = b.intr(Intrinsic::ThreadIdxX, vec![], Type::I32);
        let tid64 = b.cast(uu_ir::CastOp::Sext, tid, Type::I64);
        let bit = b.and(tid64, Value::imm(1i64));
        let odd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.cond_br(odd, t, el);
        b.switch_to(t);
        b.store(Value::Arg(0), Value::Arg(1));
        b.br(j);
        b.switch_to(el);
        let y = b.add(Value::Arg(1), Value::imm(1i64));
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, t, Value::Arg(1));
        b.add_phi_incoming(p, el, y);
        b.ret(Some(p));
        uu_ir::verify_function(&f).unwrap();
        assert!(!meld_function(&mut f));
        assert_eq!(count(&f, |k| matches!(k, InstKind::CondBr { .. })), 1);
    }

    #[test]
    fn convergent_arm_rejects_the_diamond() {
        let mut f = Function::new("k", vec![Param::new("x", Type::I64)], Type::Void);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let tid = b.intr(Intrinsic::ThreadIdxX, vec![], Type::I32);
        let tid64 = b.cast(uu_ir::CastOp::Sext, tid, Type::I64);
        let odd = b.icmp(ICmpPred::Ne, tid64, Value::imm(0i64));
        b.cond_br(odd, t, el);
        b.switch_to(t);
        b.syncthreads();
        b.br(j);
        b.switch_to(el);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();
        assert!(!meld_function(&mut f));
    }

    #[test]
    fn gap_instructions_are_speculated_and_semantics_kept() {
        // Arms of different length: `x*2` vs `x*3+1`. The add is a gap
        // instruction; the muls align and blend their immediates.
        let mut f = Function::new("k", vec![Param::new("x", Type::I64)], Type::I64);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let tid = b.intr(Intrinsic::ThreadIdxX, vec![], Type::I32);
        let tid64 = b.cast(uu_ir::CastOp::Sext, tid, Type::I64);
        let bit = b.and(tid64, Value::imm(1i64));
        let odd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.cond_br(odd, t, el);
        b.switch_to(t);
        let x2 = b.mul(Value::Arg(0), Value::imm(2i64));
        b.br(j);
        b.switch_to(el);
        let x3 = b.mul(Value::Arg(0), Value::imm(3i64));
        let x31 = b.add(x3, Value::imm(1i64));
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, t, x2);
        b.add_phi_incoming(p, el, x31);
        b.ret(Some(p));
        uu_ir::verify_function(&f).unwrap();
        assert!(meld_function(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        // One melded mul (immediates blended by a select), the speculated
        // add, and a select resolving the join phi.
        assert_eq!(count(&f, |k| matches!(k, InstKind::Bin { op: uu_ir::BinOp::Mul, .. })), 1, "{f}");
        assert_eq!(count(&f, |k| matches!(k, InstKind::Bin { op: uu_ir::BinOp::Add, .. })), 1, "{f}");
        assert_eq!(count(&f, |k| matches!(k, InstKind::CondBr { .. })), 0, "{f}");
    }

    #[test]
    fn melding_is_idempotent() {
        let mut f = divergent_store_diamond();
        assert!(meld_function(&mut f));
        let after = format!("{f}");
        assert!(!meld_function(&mut f));
        assert_eq!(after, format!("{f}"));
    }
}
