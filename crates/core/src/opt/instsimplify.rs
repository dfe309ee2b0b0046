//! Constant folding and algebraic instruction simplification.

use super::{Pass, Substitution};
use uu_ir::{BinOp, Constant, Function, ICmpPred, InstId, InstKind, SecondaryMap, Type, Value};

/// Folds constants and applies algebraic identities, replacing simplified
/// instructions by their value. Also canonicalizes commutative operations to
/// put constants on the right, which improves GVN hit rates.
#[derive(Debug, Default, Clone, Copy)]
pub struct InstSimplify;

impl Pass for InstSimplify {
    fn name(&self) -> &'static str {
        "instsimplify"
    }

    // Only rewrites and removes pure non-terminator instructions.
    fn preserves_cfg(&self) -> bool {
        true
    }

    fn run(&mut self, f: &mut Function) -> bool {
        // Instructions never move between blocks here, so one block-of map
        // serves every round (simplified instructions just drop out of the
        // next round's work list).
        let mut block_of = SecondaryMap::with_default_and_capacity(f.entry(), f.num_inst_slots());
        for &b in f.layout() {
            for &i in &f.block(b).insts {
                block_of.set(i, b);
            }
        }
        // Replacements are recorded and applied in one use-rewrite sweep at
        // the end; each visit reads its operands as they would be by then.
        let mut subst = Substitution::default();
        let mut changed = false;
        // Each round's work list: the layout's instructions as the round
        // starts, in one buffer every round reuses.
        let mut work: Vec<InstId> = Vec::with_capacity(f.num_insts());
        loop {
            let mut round = false;
            work.clear();
            for &b in f.layout() {
                work.extend_from_slice(&f.block(b).insts);
            }
            for &id in &work {
                subst.refresh(f, id);
                // Canonicalize: constant to the RHS of commutative ops.
                if let InstKind::Bin { op, lhs, rhs } = f.inst(id).kind {
                    if op.is_commutative() && lhs.is_const() && !rhs.is_const() {
                        f.inst_mut(id).kind = InstKind::Bin {
                            op,
                            lhs: rhs,
                            rhs: lhs,
                        };
                        round = true;
                    }
                }
                if let Some(v) = simplify(f, id, &|v| subst.resolve(v)) {
                    subst.record(id, v);
                    // Unlink the dead instruction from the block holding it.
                    f.unlink_inst(*block_of.get(id), id);
                    round = true;
                }
            }
            if !round {
                break;
            }
            changed = true;
        }
        subst.apply(f);
        changed
    }
}

/// Compute the simplified value of `id`, if any. Pure instructions only.
pub fn simplify_inst(f: &Function, id: InstId) -> Option<Value> {
    simplify(f, id, &|v| v)
}

/// [`simplify_inst`] reading the operands of `id`'s operands through
/// `resolve` (`id`'s own must already be current).
fn simplify(f: &Function, id: InstId, resolve: &dyn Fn(Value) -> Value) -> Option<Value> {
    let inst = f.inst(id);
    // Full constant fold first.
    if let Some(c) = inst.fold() {
        return Some(Value::Const(c));
    }
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => simplify_bin(f, resolve, *op, *lhs, *rhs, inst.ty),
        InstKind::ICmp { pred, lhs, rhs } => {
            if lhs == rhs {
                // x == x, x <= x ... decidable without knowing x.
                let r = matches!(
                    pred,
                    ICmpPred::Eq | ICmpPred::Sle | ICmpPred::Sge | ICmpPred::Ule | ICmpPred::Uge
                );
                return Some(Value::imm(r));
            }
            None
        }
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => {
            if on_true == on_false {
                return Some(*on_true);
            }
            if let Some(c) = cond.as_const().and_then(|c| c.as_bool()) {
                return Some(if c { *on_true } else { *on_false });
            }
            None
        }
        InstKind::Gep { base, index, scale } => {
            // gep p, 0 → p ; gep p, i x0 → p
            if *scale == 0 {
                return Some(*base);
            }
            if index.as_const().map(|c| c.is_zero()).unwrap_or(false) {
                return Some(*base);
            }
            None
        }
        _ => None,
    }
}

fn as_add(f: &Function, resolve: &dyn Fn(Value) -> Value, v: Value) -> Option<(Value, Value)> {
    if let Value::Inst(i) = v {
        if let InstKind::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        } = f.inst(i).kind
        {
            return Some((resolve(lhs), resolve(rhs)));
        }
    }
    None
}

fn as_sub(f: &Function, resolve: &dyn Fn(Value) -> Value, v: Value) -> Option<(Value, Value)> {
    if let Value::Inst(i) = v {
        if let InstKind::Bin {
            op: BinOp::Sub,
            lhs,
            rhs,
        } = f.inst(i).kind
        {
            return Some((resolve(lhs), resolve(rhs)));
        }
    }
    None
}

fn simplify_bin(
    f: &Function,
    resolve: &dyn Fn(Value) -> Value,
    op: BinOp,
    lhs: Value,
    rhs: Value,
    ty: Type,
) -> Option<Value> {
    let zero = || Value::Const(Constant::zero(ty));
    let rc = rhs.as_const();
    let is_rzero = rc.map(|c| c.is_zero()).unwrap_or(false);
    let is_rone = rc.map(|c| c.is_one()).unwrap_or(false);
    match op {
        BinOp::Add => {
            if is_rzero {
                return Some(lhs);
            }
            // (a - b) + b → a
            if let Some((a, b)) = as_sub(f, resolve, lhs) {
                if b == rhs {
                    return Some(a);
                }
            }
            if let Some((a, b)) = as_sub(f, resolve, rhs) {
                if b == lhs {
                    return Some(a);
                }
            }
            None
        }
        BinOp::Sub => {
            if is_rzero {
                return Some(lhs);
            }
            if lhs == rhs {
                return Some(zero());
            }
            // (a + b) - a → b ;  (a + b) - b → a
            if let Some((a, b)) = as_add(f, resolve, lhs) {
                if a == rhs {
                    return Some(b);
                }
                if b == rhs {
                    return Some(a);
                }
            }
            None
        }
        BinOp::Mul => {
            if is_rone {
                return Some(lhs);
            }
            if is_rzero {
                return Some(zero());
            }
            None
        }
        BinOp::SDiv | BinOp::UDiv => {
            if is_rone {
                return Some(lhs);
            }
            None
        }
        BinOp::And => {
            if is_rzero {
                return Some(zero());
            }
            if lhs == rhs {
                return Some(lhs);
            }
            if rc == Some(Constant::I1(true)) && ty == Type::I1 {
                return Some(lhs);
            }
            None
        }
        BinOp::Or => {
            if is_rzero {
                return Some(lhs);
            }
            if lhs == rhs {
                return Some(lhs);
            }
            None
        }
        BinOp::Xor => {
            if is_rzero {
                return Some(lhs);
            }
            if lhs == rhs {
                return Some(zero());
            }
            None
        }
        BinOp::Shl | BinOp::LShr | BinOp::AShr => {
            if is_rzero {
                return Some(lhs);
            }
            None
        }
        BinOp::FMul => {
            if is_rone {
                return Some(lhs);
            }
            None
        }
        BinOp::FDiv => {
            if is_rone {
                return Some(lhs);
            }
            None
        }
        _ => None,
    }
}

/// Instsimplify as it ran before its replacements were batched: one
/// arena-wide `replace_all_uses` sweep per replacement, operands read as
/// the arena holds them. The reference the batched pass must reproduce bit
/// for bit.
#[cfg(test)]
pub(crate) fn run_per_replacement(f: &mut Function) -> bool {
    let mut block_of = SecondaryMap::with_default(f.entry());
    for &b in f.layout() {
        for &i in &f.block(b).insts {
            block_of.set(i, b);
        }
    }
    let mut changed = false;
    loop {
        let mut round = false;
        let work: Vec<InstId> = f
            .layout()
            .to_vec()
            .iter()
            .flat_map(|b| f.block(*b).insts.clone())
            .collect();
        for id in work {
            if let InstKind::Bin { op, lhs, rhs } = f.inst(id).kind {
                if op.is_commutative() && lhs.is_const() && !rhs.is_const() {
                    f.inst_mut(id).kind = InstKind::Bin {
                        op,
                        lhs: rhs,
                        rhs: lhs,
                    };
                    round = true;
                }
            }
            if let Some(v) = simplify_inst(f, id) {
                f.replace_all_uses(Value::Inst(id), v);
                f.unlink_inst(*block_of.get(id), id);
                round = true;
            }
        }
        if !round {
            break;
        }
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, Param};

    fn with_entry(params: Vec<Param>) -> (uu_ir::Function, uu_ir::BlockId) {
        let f = uu_ir::Function::new("t", params, Type::Void);
        let e = f.entry();
        (f, e)
    }

    #[test]
    fn folds_constants() {
        let (mut f, e) = with_entry(vec![Param::new("p", Type::Ptr)]);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let x = b.add(Value::imm(2i64), Value::imm(3i64));
        let y = b.mul(x, Value::imm(4i64));
        b.store(Value::Arg(0), y);
        b.ret(None);
        assert!(InstSimplify.run(&mut f));
        // Store operand is now the constant 20.
        let st = f.block(e).insts[0];
        match &f.inst(st).kind {
            InstKind::Store { value, .. } => {
                assert_eq!(value.as_const().unwrap().as_i64(), Some(20))
            }
            _ => panic!("expected store first, got {f}"),
        }
        assert_eq!(f.block(e).insts.len(), 2); // store + ret
    }

    #[test]
    fn xsbench_pattern_add_sub() {
        // (lower + half) - lower → half
        let (mut f, e) = with_entry(vec![
            Param::new("lower", Type::I64),
            Param::new("half", Type::I64),
            Param::new("p", Type::Ptr),
        ]);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let mid = b.add(Value::Arg(0), Value::Arg(1));
        let len = b.sub(mid, Value::Arg(0));
        b.store(Value::Arg(2), len);
        b.ret(None);
        assert!(InstSimplify.run(&mut f));
        let st = f
            .block(e)
            .insts
            .iter()
            .copied()
            .find(|i| f.inst(*i).kind.writes_memory())
            .unwrap();
        match &f.inst(st).kind {
            InstKind::Store { value, .. } => assert_eq!(*value, Value::Arg(1)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn identities() {
        let (mut f, e) = with_entry(vec![Param::new("x", Type::I64), Param::new("p", Type::Ptr)]);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let a = b.add(Value::Arg(0), Value::imm(0i64)); // x
        let m = b.mul(a, Value::imm(1i64)); // x
        let s = b.sub(m, m); // 0
        let o = b.or(s, Value::Arg(0)); // canonicalized? or(0, x): lhs=s const after sub →
        b.store(Value::Arg(1), o);
        b.ret(None);
        assert!(InstSimplify.run(&mut f));
        let st = f
            .block(e)
            .insts
            .iter()
            .copied()
            .find(|i| f.inst(*i).kind.writes_memory())
            .unwrap();
        match &f.inst(st).kind {
            InstKind::Store { value, .. } => assert_eq!(*value, Value::Arg(0)),
            _ => unreachable!(),
        }
        assert_eq!(f.block(e).insts.len(), 2);
    }

    #[test]
    fn select_and_icmp_identities() {
        let (mut f, e) = with_entry(vec![
            Param::new("x", Type::I64),
            Param::new("c", Type::I1),
            Param::new("p", Type::Ptr),
        ]);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let s = b.select(Value::Arg(1), Value::Arg(0), Value::Arg(0)); // x
        let c = b.icmp(ICmpPred::Sle, s, s); // true
        let s2 = b.select(c, Value::imm(1i64), Value::imm(2i64)); // 1
        b.store(Value::Arg(2), s2);
        b.ret(None);
        assert!(InstSimplify.run(&mut f));
        let st = f
            .block(e)
            .insts
            .iter()
            .copied()
            .find(|i| f.inst(*i).kind.writes_memory())
            .unwrap();
        match &f.inst(st).kind {
            InstKind::Store { value, .. } => {
                assert_eq!(value.as_const().unwrap().as_i64(), Some(1))
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn gep_identities() {
        let (mut f, e) = with_entry(vec![Param::new("p", Type::Ptr)]);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let g = b.gep(Value::Arg(0), Value::imm(0i64), 8);
        let x = b.load(Type::F64, g);
        b.store(g, x);
        b.ret(None);
        assert!(InstSimplify.run(&mut f));
        let ld = f.block(e).insts[0];
        match &f.inst(ld).kind {
            InstKind::Load { ptr } => assert_eq!(*ptr, Value::Arg(0)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn no_change_reports_false() {
        let (mut f, e) = with_entry(vec![Param::new("x", Type::I64), Param::new("p", Type::Ptr)]);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let y = b.add(Value::Arg(0), Value::imm(5i64));
        b.store(Value::Arg(1), y);
        b.ret(None);
        assert!(!InstSimplify.run(&mut f));
    }

    #[test]
    fn one_invocation_is_one_use_sweep() {
        // Sixty-four simplifications over several rounds: `(x + i) - x`
        // folds to `i` only once `i`'s own `0 + k` has been canonicalised
        // and folded. Batched, they cost one arena-wide sweep in all.
        let (mut f, e) = with_entry(vec![Param::new("x", Type::I64), Param::new("p", Type::Ptr)]);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let mut acc = Value::Arg(0);
        for k in 0..32i64 {
            let i = b.add(Value::imm(0i64), acc);
            let s = b.add(Value::Arg(0), i);
            acc = b.sub(s, Value::Arg(0));
            acc = b.add(acc, Value::imm(k));
        }
        b.store(Value::Arg(1), acc);
        b.ret(None);
        let mut reference = f.clone();
        let before = uu_ir::use_sweep_count();
        assert!(InstSimplify.run(&mut f));
        assert_eq!(uu_ir::use_sweep_count() - before, 1);
        assert!(run_per_replacement(&mut reference));
        assert!(f == reference);
    }
}
