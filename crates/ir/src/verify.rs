//! IR well-formedness verifier.
//!
//! The verifier enforces the structural invariants that analyses and
//! transforms rely on:
//!
//! 1. every linked block ends in exactly one terminator, with no terminator
//!    in the middle;
//! 2. phi nodes appear only at block heads, and their incoming labels are
//!    exactly the block's predecessors (no duplicates, none missing);
//! 3. operands are type correct (branch conditions are `i1`, binary operands
//!    match, returns match the function type, intrinsic arities line up);
//! 4. SSA dominance: every use is dominated by its definition (a phi's use
//!    point is the end of the corresponding predecessor);
//! 5. the entry block has no predecessors;
//! 6. argument indices are in range.

use crate::entities::{BlockId, InstId, Value};
use crate::function::{Function, Preds};
use crate::inst::{InstKind, Intrinsic, Succs};
use crate::module::Module;
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// A failed verification: one message per violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Name of the offending function.
    pub function: String,
    /// All violations found (verification does not stop at the first).
    pub messages: Vec<String>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "verification of @{} failed:", self.function)?;
        for m in &self.messages {
            writeln!(f, "  - {m}")?;
        }
        Ok(())
    }
}

impl Error for VerifyError {}

/// Verify a whole module.
///
/// # Errors
///
/// Returns the error for the first function that fails to verify.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for (_, f) in m.iter() {
        verify_function(f)?;
    }
    Ok(())
}

/// Verify a single function.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing every violated invariant.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    verify(f, None)
}

/// [`verify_function`] with block dominance answered by `block_dominates(def,
/// user)` — asked only for a linked `def` and `user != def` — instead of
/// the verifier's dominator tree: the seam through which tests replay a
/// reference dominance relation and compare verdicts and messages.
#[doc(hidden)]
pub fn verify_function_with(
    f: &Function,
    block_dominates: &dyn Fn(BlockId, BlockId) -> bool,
) -> Result<(), VerifyError> {
    verify(f, Some(block_dominates))
}

fn verify(
    f: &Function,
    block_dominates: Option<&dyn Fn(BlockId, BlockId) -> bool>,
) -> Result<(), VerifyError> {
    let mut errs = Vec::new();
    let layout: Vec<BlockId> = f.layout().to_vec();
    let mut in_layout = vec![false; layout.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
    for &b in &layout {
        in_layout[b.index()] = true;
    }
    let linked = |b: BlockId| in_layout.get(b.index()).copied().unwrap_or(false);

    // --- block structure ---
    for &b in &layout {
        let insts = &f.block(b).insts;
        match insts.last() {
            None => errs.push(format!("{b} is empty (no terminator)")),
            Some(last) => {
                if !f.inst(*last).kind.is_terminator() {
                    errs.push(format!("{b} does not end in a terminator"));
                }
            }
        }
        let mut seen_non_phi = false;
        for (pos, &i) in insts.iter().enumerate() {
            let kind = &f.inst(i).kind;
            if kind.is_terminator() && pos + 1 != insts.len() {
                errs.push(format!("terminator %{} in the middle of {b}", i.index()));
            }
            if kind.is_phi() {
                if seen_non_phi {
                    errs.push(format!("phi %{} after non-phi in {b}", i.index()));
                }
            } else {
                seen_non_phi = true;
            }
        }
        for s in f.successors(b) {
            if !linked(s) {
                errs.push(format!("{b} branches to unlinked block {s}"));
            }
        }
    }

    // --- entry has no predecessors ---
    let preds = f.predecessors();
    if !layout.is_empty() {
        let entry = f.entry();
        if !preds[entry.index()].is_empty() {
            errs.push(format!("entry block {entry} has predecessors"));
        }
    }

    // --- phi incomings match predecessors ---
    for &b in &layout {
        let mut pred_set: Vec<BlockId> = preds[b.index()].to_vec();
        pred_set.sort();
        for phi in f.phis(b) {
            if let InstKind::Phi { incomings } = &f.inst(phi).kind {
                let mut inc: Vec<BlockId> = incomings.iter().map(|(p, _)| *p).collect();
                inc.sort();
                let mut dedup = inc.clone();
                dedup.dedup();
                if dedup.len() != inc.len() {
                    errs.push(format!("phi %{} in {b} has duplicate incomings", phi.index()));
                }
                if inc != pred_set {
                    errs.push(format!(
                        "phi %{} in {b} incomings {inc:?} do not match predecessors {pred_set:?}",
                        phi.index()
                    ));
                }
            }
        }
    }

    // --- types ---
    for &b in &layout {
        for &i in &f.block(b).insts {
            check_inst_types(f, i, &mut errs);
        }
    }

    // --- SSA dominance ---
    match block_dominates {
        Some(dominates) => check_dominance(f, &layout, dominates, &mut errs),
        None => {
            // A use point in an unlinked block is dominated by nothing.
            let dom = Dominance::new(f, &layout, &preds, &linked);
            let dominates = |def, user| linked(user) && dom.dominates(def, user);
            check_dominance(f, &layout, &dominates, &mut errs);
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(VerifyError {
            function: f.name().to_string(),
            messages: errs,
        })
    }
}

fn check_value(f: &Function, v: Value, errs: &mut Vec<String>, ctx: InstId) {
    if let Value::Arg(i) = v {
        if i as usize >= f.params().len() {
            errs.push(format!("%{}: argument index {i} out of range", ctx.index()));
        }
    }
}

fn check_inst_types(f: &Function, id: InstId, errs: &mut Vec<String>) {
    let inst = f.inst(id);
    inst.kind.for_each_operand(|v| check_value(f, *v, errs, id));
    // Bail out early if any argument index was bad; value_type would panic.
    let mut bad_arg = false;
    inst.kind.for_each_operand(|v| {
        if let Value::Arg(i) = v {
            if *i as usize >= f.params().len() {
                bad_arg = true;
            }
        }
    });
    if bad_arg {
        return;
    }
    let vt = |v: Value| f.value_type(v);
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            if vt(*lhs) != vt(*rhs) {
                errs.push(format!(
                    "%{}: binop operand types differ ({} vs {})",
                    id.index(),
                    vt(*lhs),
                    vt(*rhs)
                ));
            }
            if op.is_float() != inst.ty.is_float() {
                errs.push(format!("%{}: {op} on wrong type class", id.index()));
            }
            if vt(*lhs) != inst.ty {
                errs.push(format!("%{}: binop result type mismatch", id.index()));
            }
        }
        InstKind::ICmp { lhs, rhs, .. } => {
            if !(vt(*lhs).is_int() || vt(*lhs) == Type::Ptr) || vt(*lhs) != vt(*rhs) {
                errs.push(format!("%{}: icmp on non-matching ints", id.index()));
            }
            if inst.ty != Type::I1 {
                errs.push(format!("%{}: icmp must produce i1", id.index()));
            }
        }
        InstKind::FCmp { lhs, rhs, .. } => {
            if !vt(*lhs).is_float() || vt(*lhs) != vt(*rhs) {
                errs.push(format!("%{}: fcmp on non-matching floats", id.index()));
            }
            if inst.ty != Type::I1 {
                errs.push(format!("%{}: fcmp must produce i1", id.index()));
            }
        }
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => {
            if vt(*cond) != Type::I1 {
                errs.push(format!("%{}: select condition not i1", id.index()));
            }
            if vt(*on_true) != vt(*on_false) || vt(*on_true) != inst.ty {
                errs.push(format!("%{}: select arm types mismatch", id.index()));
            }
        }
        InstKind::Load { ptr } => {
            if vt(*ptr) != Type::Ptr && vt(*ptr) != Type::I64 {
                errs.push(format!("%{}: load from non-pointer", id.index()));
            }
            if !inst.ty.is_memory() {
                errs.push(format!("%{}: load of void", id.index()));
            }
        }
        InstKind::Store { ptr, value } => {
            if vt(*ptr) != Type::Ptr && vt(*ptr) != Type::I64 {
                errs.push(format!("%{}: store to non-pointer", id.index()));
            }
            if !vt(*value).is_memory() {
                errs.push(format!("%{}: store of void", id.index()));
            }
        }
        InstKind::Gep { base, index, .. } => {
            if vt(*base) != Type::Ptr && vt(*base) != Type::I64 {
                errs.push(format!("%{}: gep base not a pointer", id.index()));
            }
            if !vt(*index).is_int() {
                errs.push(format!("%{}: gep index not an integer", id.index()));
            }
        }
        InstKind::Phi { incomings } => {
            for (_, v) in incomings {
                if vt(*v) != inst.ty {
                    errs.push(format!("%{}: phi incoming type mismatch", id.index()));
                }
            }
        }
        InstKind::Intr { which, args } => {
            if args.len() != which.arity() {
                errs.push(format!(
                    "%{}: intrinsic {which} expects {} args, got {}",
                    id.index(),
                    which.arity(),
                    args.len()
                ));
            }
            if *which == Intrinsic::Syncthreads && inst.ty != Type::Void {
                errs.push(format!("%{}: syncthreads must be void", id.index()));
            }
        }
        InstKind::CondBr { cond, .. } => {
            if vt(*cond) != Type::I1 {
                errs.push(format!("%{}: branch condition not i1", id.index()));
            }
        }
        InstKind::Ret { value } => match (value, f.ret_ty()) {
            (None, Type::Void) => {}
            (Some(v), t) if vt(*v) == t => {}
            _ => errs.push(format!("%{}: return type mismatch", id.index())),
        },
        InstKind::Br { .. } => {}
        InstKind::Cast { .. } => {}
    }
}

/// Block dominance for the SSA check: an immediate-dominator tree
/// (Cooper–Harvey–Kennedy) over the layout blocks, numbered in preorder
/// with subtree sizes so that each query is O(1). The full analysis lives
/// in `uu-analysis`; the verifier must stay dependency-free.
///
/// The roots are the entry, whose incoming edges are ignored, and every
/// other layout block without predecessors; a virtual node above them
/// makes the forest one tree. A block no root reaches is dominated by
/// every block.
struct Dominance {
    /// Per block index: preorder number in the dominator tree, `u32::MAX`
    /// for a block no root reaches.
    pre: Vec<u32>,
    /// Per block index: size of the block's dominator subtree.
    size: Vec<u32>,
}

/// The successors a DFS frame has yet to visit, taken from the back.
type SuccsIter = <Succs as IntoIterator>::IntoIter;

impl Dominance {
    const UNREACHED: u32 = u32::MAX;

    fn new(
        f: &Function,
        layout: &[BlockId],
        preds: &Preds,
        linked: impl Fn(BlockId) -> bool,
    ) -> Self {
        let n = preds.len();
        let entry = f.entry();
        let is_root = |b: BlockId| b == entry || preds[b.index()].is_empty();
        // Reverse post-order from the virtual root (number 0) over linked
        // edges, none into the entry.
        let mut seen = vec![false; n];
        let mut post: Vec<BlockId> = Vec::with_capacity(layout.len());
        let mut stack: Vec<(BlockId, SuccsIter)> = Vec::new();
        for &r in layout.iter().filter(|&&b| is_root(b)) {
            if seen[r.index()] {
                continue;
            }
            seen[r.index()] = true;
            stack.push((r, f.successors(r).into_iter()));
            while let Some((b, succs)) = stack.last_mut() {
                match succs.next_back() {
                    Some(s) => {
                        if linked(s) && s != entry && !seen[s.index()] {
                            seen[s.index()] = true;
                            let next = f.successors(s).into_iter();
                            stack.push((s, next));
                        }
                    }
                    None => {
                        post.push(*b);
                        stack.pop();
                    }
                }
            }
        }
        let mut num = vec![Self::UNREACHED; n];
        for (i, &b) in post.iter().rev().enumerate() {
            num[b.index()] = i as u32 + 1;
        }
        // idom over RPO numbers; the virtual root is its own.
        let order: Vec<BlockId> = post.iter().rev().copied().collect();
        let mut idom = vec![Self::UNREACHED; order.len() + 1];
        idom[0] = 0;
        let intersect = |idom: &[u32], mut a: u32, mut b: u32| {
            while a != b {
                while a > b {
                    a = idom[a as usize];
                }
                while b > a {
                    b = idom[b as usize];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for (i, &b) in order.iter().enumerate() {
                let new = if is_root(b) {
                    0
                } else {
                    let mut new = Self::UNREACHED;
                    for p in &preds[b.index()] {
                        let pn = num[p.index()];
                        if pn == Self::UNREACHED || idom[pn as usize] == Self::UNREACHED {
                            continue;
                        }
                        new = if new == Self::UNREACHED {
                            pn
                        } else {
                            intersect(&idom, new, pn)
                        };
                    }
                    new
                };
                if idom[i + 1] != new {
                    idom[i + 1] = new;
                    changed = true;
                }
            }
        }
        // Subtree sizes bottom-up, then preorder numbers top-down: every
        // node's immediate dominator precedes it in RPO.
        let mut sub = vec![1u32; idom.len()];
        for i in (1..idom.len()).rev() {
            sub[idom[i] as usize] += sub[i];
        }
        let mut pre_of = vec![0u32; idom.len()];
        let mut next = vec![0u32; idom.len()];
        next[0] = 1;
        for i in 1..idom.len() {
            let p = idom[i] as usize;
            pre_of[i] = next[p];
            next[p] += sub[i];
            next[i] = pre_of[i] + 1;
        }
        let mut pre = vec![Self::UNREACHED; n];
        let mut size = vec![0u32; n];
        for (i, b) in order.iter().enumerate() {
            pre[b.index()] = pre_of[i + 1];
            size[b.index()] = sub[i + 1];
        }
        Dominance { pre, size }
    }

    /// Whether block `def` dominates block `user`, both linked and
    /// distinct.
    fn dominates(&self, def: BlockId, user: BlockId) -> bool {
        let (d, u) = (self.pre[def.index()], self.pre[user.index()]);
        u == Self::UNREACHED
            || (d != Self::UNREACHED && d <= u && u < d + self.size[def.index()])
    }
}

fn check_dominance(
    f: &Function,
    layout: &[BlockId],
    block_dominates: &dyn Fn(BlockId, BlockId) -> bool,
    errs: &mut Vec<String>,
) {
    // Map each linked instruction to (block, position).
    let mut pos_of: Vec<Option<(BlockId, usize)>> = vec![None; f.num_inst_slots()];
    for &b in layout {
        for (pos, &i) in f.block(b).insts.iter().enumerate() {
            pos_of[i.index()] = Some((b, pos));
        }
    }
    let pos_of = |i: &InstId| pos_of.get(i.index()).copied().flatten();
    let dominates = |def: (BlockId, usize), usepoint: (BlockId, usize)| -> bool {
        if def.0 == usepoint.0 {
            def.1 < usepoint.1
        } else {
            block_dominates(def.0, usepoint.0)
        }
    };
    for &b in layout {
        for (pos, &i) in f.block(b).insts.iter().enumerate() {
            let kind = &f.inst(i).kind;
            if let InstKind::Phi { incomings } = kind {
                for (pb, v) in incomings {
                    if let Value::Inst(def) = v {
                        match pos_of(def) {
                            Some(dp) => {
                                // Use point: end of predecessor block.
                                let endpos = f.block(*pb).insts.len();
                                if !dominates(dp, (*pb, endpos)) {
                                    errs.push(format!(
                                        "phi %{} in {b}: incoming %{} from {pb} not dominated by its def",
                                        i.index(),
                                        def.index()
                                    ));
                                }
                            }
                            None => errs.push(format!(
                                "phi %{} in {b} uses unlinked value %{}",
                                i.index(),
                                def.index()
                            )),
                        }
                    }
                }
            } else {
                kind.for_each_operand(|v| {
                    if let Value::Inst(def) = v {
                        match pos_of(def) {
                            Some(dp) => {
                                if !dominates(dp, (b, pos)) {
                                    errs.push(format!(
                                        "%{} in {b} uses %{} which does not dominate it",
                                        i.index(),
                                        def.index()
                                    ));
                                }
                            }
                            None => errs.push(format!(
                                "%{} in {b} uses unlinked value %{}",
                                i.index(),
                                def.index()
                            )),
                        }
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Param;
    use crate::inst::{BinOp, ICmpPred, Inst};

    fn counting_loop() -> Function {
        let mut f = Function::new("count", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(i));
        f
    }

    #[test]
    fn accepts_wellformed_loop() {
        let f = counting_loop();
        verify_function(&f).unwrap();
    }

    #[test]
    fn rejects_missing_terminator() {
        let f = Function::new("k", vec![], Type::Void);
        let _ = f.entry(); // empty entry block
        let err = verify_function(&f).unwrap_err();
        assert!(err.messages.iter().any(|m| m.contains("no terminator")));
        assert!(err.to_string().contains("verification of @k failed"));
    }

    #[test]
    fn rejects_bad_phi_incomings() {
        let mut f = counting_loop();
        let header = BlockId::from_index(1);
        let phi = f.phis(header)[0];
        if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            incomings.pop();
        }
        let err = verify_function(&f).unwrap_err();
        assert!(err
            .messages
            .iter()
            .any(|m| m.contains("do not match predecessors")));
    }

    #[test]
    fn rejects_type_errors() {
        let mut f = Function::new("k", vec![Param::new("x", Type::I64)], Type::Void);
        let entry = f.entry();
        // i64 + f64 is ill-typed.
        f.append_inst(
            entry,
            Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Arg(0),
                    rhs: Value::imm(1.0f64),
                },
                Type::I64,
            ),
        );
        f.append_inst(entry, Inst::new(InstKind::Ret { value: None }, Type::Void));
        let err = verify_function(&f).unwrap_err();
        assert!(err
            .messages
            .iter()
            .any(|m| m.contains("operand types differ")));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = Function::new("k", vec![], Type::I64);
        let entry = f.entry();
        // Create an add that uses an instruction defined *after* it.
        let later = f.create_inst(Inst::new(
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::imm(1i64),
                rhs: Value::imm(2i64),
            },
            Type::I64,
        ));
        let early = f.create_inst(Inst::new(
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::Inst(later),
                rhs: Value::imm(1i64),
            },
            Type::I64,
        ));
        f.block_mut(entry).insts.push(early);
        f.block_mut(entry).insts.push(later);
        let ret = f.create_inst(Inst::new(
            InstKind::Ret {
                value: Some(Value::Inst(later)),
            },
            Type::Void,
        ));
        f.block_mut(entry).insts.push(ret);
        let err = verify_function(&f).unwrap_err();
        assert!(err
            .messages
            .iter()
            .any(|m| m.contains("does not dominate")));
    }

    #[test]
    fn rejects_bad_branch_condition() {
        let mut f = Function::new("k", vec![Param::new("x", Type::I64)], Type::Void);
        let entry = f.entry();
        let other = f.add_block();
        f.append_inst(
            entry,
            Inst::new(
                InstKind::CondBr {
                    cond: Value::Arg(0), // i64, not i1
                    if_true: other,
                    if_false: other,
                },
                Type::Void,
            ),
        );
        f.append_inst(other, Inst::new(InstKind::Ret { value: None }, Type::Void));
        let err = verify_function(&f).unwrap_err();
        assert!(err.messages.iter().any(|m| m.contains("not i1")));
    }

    #[test]
    fn rejects_intrinsic_arity() {
        let mut f = Function::new("k", vec![], Type::Void);
        let entry = f.entry();
        f.append_inst(
            entry,
            Inst::new(
                InstKind::Intr {
                    which: Intrinsic::Sqrt,
                    args: vec![],
                },
                Type::F64,
            ),
        );
        f.append_inst(entry, Inst::new(InstKind::Ret { value: None }, Type::Void));
        let err = verify_function(&f).unwrap_err();
        assert!(err.messages.iter().any(|m| m.contains("expects 1 args")));
    }

    #[test]
    fn verify_module_covers_all_functions() {
        let mut m = Module::new("m");
        m.add_function(counting_loop());
        verify_module(&m).unwrap();
        m.add_function(Function::new("broken", vec![], Type::Void));
        assert!(verify_module(&m).is_err());
    }
}
