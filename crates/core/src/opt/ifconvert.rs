//! If-conversion: turning small diamonds and triangles into `select`s.
//!
//! This is the baseline behaviour the paper contrasts against: NVIDIA
//! backends aggressively *predicate* short conditional bodies, emitting
//! `selp` instead of branches (Listing 4). The pass hoists cheap, pure side
//! blocks into the branch block and replaces join phis with selects. After
//! u&u, merge blocks are gone, so nothing if-converts inside the transformed
//! body — branches replace `selp`, exactly the PTX difference in §V.

use super::Pass;
use uu_ir::{BlockId, Function, Inst, InstId, InstKind, Preds, Value};

/// Maximum number of speculated instructions per side block.
const MAX_SPECULATED: usize = 6;

/// The if-conversion (select formation) pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct IfConvert;

impl Pass for IfConvert {
    fn name(&self) -> &'static str {
        "ifconvert"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        let mut changed = false;
        // A scan ends at its first conversion, so the predecessor map it
        // starts with is current for every block it looks at.
        loop {
            let preds = f.predecessors();
            let layout = f.layout().to_vec();
            let converted = layout.into_iter().any(|b| try_convert(f, &preds, b));
            if !converted {
                break;
            }
            changed = true;
        }
        changed
    }
}

/// A side block is speculatable if every instruction (bar the terminator) is
/// pure and cheap.
fn speculatable(f: &Function, b: BlockId) -> Option<Vec<InstId>> {
    let insts = &f.block(b).insts;
    if insts.len() > MAX_SPECULATED + 1 {
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
        if kind.is_phi()
            || kind.has_side_effects()
            || kind.reads_memory()
            || kind.writes_memory()
            || matches!(kind, InstKind::Intr { .. })
        {
            return None;
        }
        body.push(id);
    }
    Some(body)
}

fn single_pred(_f: &Function, preds: &Preds, b: BlockId, p: BlockId) -> bool {
    preds[b.index()] == [p]
}

fn try_convert(f: &mut Function, preds: &Preds, b: BlockId) -> bool {
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
    if if_true == if_false {
        return false;
    }
    // Diamond: b → {T, F} → J, with J having exactly those two
    // predecessors. The two-entry restriction matches LLVM's
    // FoldTwoEntryPHINode — and is why unmerged loop bodies stay branches:
    // their merge point (the loop header) has one predecessor per path.
    let diamond = {
        let ts = f.successors(if_true);
        let fs = f.successors(if_false);
        ts.len() == 1
            && fs.len() == 1
            && ts[0] == fs[0]
            && ts[0] != b
            && single_pred(f, preds, if_true, b)
            && single_pred(f, preds, if_false, b)
            && preds[ts[0].index()].len() == 2
    };
    if diamond {
        let join = f.successors(if_true)[0];
        let (Some(tb), Some(fb)) = (speculatable(f, if_true), speculatable(f, if_false)) else {
            return false;
        };
        // Hoist both sides into b, before the terminator.
        hoist(f, b, if_true, &tb);
        hoist(f, b, if_false, &fb);
        // Replace join phis with selects in b (not the join, which is not
        // b, so its phi run stays in place).
        for k in 0..f.phis(join).len() {
            let phi = f.block(join).insts[k];
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
            let ty = f.inst(phi).ty;
            let sel = f.create_inst(Inst::new(
                InstKind::Select {
                    cond,
                    on_true: tv,
                    on_false: fv,
                },
                ty,
            ));
            // Insert before terminator of b.
            let pos = f.block(b).insts.len() - 1;
            f.block_mut(b).insts.insert(pos, sel);
            // Phi loses the two arms and gains one incoming from b.
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                incomings.retain(|(p, _)| *p != if_true && *p != if_false);
                incomings.push((b, Value::Inst(sel)));
            }
        }
        // b now branches straight to join.
        let t = f.terminator(b).unwrap();
        f.inst_mut(t).kind = InstKind::Br { target: join };
        f.remove_block(if_true);
        f.remove_block(if_false);
        crate::clone::resolve_trivial_phis_in(f, &[join]);
        return true;
    }
    // Triangle: b → {T, J}, T → J.
    for (side, join, cond_is_true_side) in
        [(if_true, if_false, true), (if_false, if_true, false)]
    {
        let ss = f.successors(side);
        if ss.len() != 1 || ss[0] != join || !single_pred(f, preds, side, b) {
            continue;
        }
        if join == b || preds[join.index()].len() != 2 {
            continue;
        }
        let Some(body) = speculatable(f, side) else {
            continue;
        };
        hoist(f, b, side, &body);
        for k in 0..f.phis(join).len() {
            let phi = f.block(join).insts[k];
            let (mut sv, mut bv) = (None, None);
            if let InstKind::Phi { incomings } = &f.inst(phi).kind {
                for (p, v) in incomings {
                    if *p == side {
                        sv = Some(*v);
                    }
                    if *p == b {
                        bv = Some(*v);
                    }
                }
            }
            let (Some(sv), Some(bv)) = (sv, bv) else {
                continue;
            };
            let ty = f.inst(phi).ty;
            let (on_true, on_false) = if cond_is_true_side {
                (sv, bv)
            } else {
                (bv, sv)
            };
            let sel = f.create_inst(Inst::new(
                InstKind::Select {
                    cond,
                    on_true,
                    on_false,
                },
                ty,
            ));
            let pos = f.block(b).insts.len() - 1;
            f.block_mut(b).insts.insert(pos, sel);
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                incomings.retain(|(p, _)| *p != side);
                for (p, v) in incomings.iter_mut() {
                    if *p == b {
                        *v = Value::Inst(sel);
                    }
                }
            }
        }
        let t = f.terminator(b).unwrap();
        f.inst_mut(t).kind = InstKind::Br { target: join };
        f.remove_block(side);
        crate::clone::resolve_trivial_phis_in(f, &[join]);
        return true;
    }
    false
}

/// Move the body instructions of `side` into `b`, before its terminator.
fn hoist(f: &mut Function, b: BlockId, side: BlockId, body: &[InstId]) {
    for &id in body {
        f.unlink_inst(side, id);
        let pos = f.block(b).insts.len() - 1;
        f.block_mut(b).insts.insert(pos, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type};

    /// The XSBench pattern: if (A[mid] > q) upper = mid else lower = mid.
    #[test]
    fn diamond_with_phi_only_arms_becomes_selects() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::new("upper", Type::I64),
                Param::new("lower", Type::I64),
                Param::new("mid", Type::I64),
                Param::new("c", Type::I1),
            ],
            Type::I64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::Arg(3), t, el);
        b.switch_to(t);
        b.br(j);
        b.switch_to(el);
        b.br(j);
        b.switch_to(j);
        let up = b.phi(Type::I64);
        b.add_phi_incoming(up, t, Value::Arg(2));
        b.add_phi_incoming(up, el, Value::Arg(0));
        let lo = b.phi(Type::I64);
        b.add_phi_incoming(lo, t, Value::Arg(1));
        b.add_phi_incoming(lo, el, Value::Arg(2));
        let d = b.sub(up, lo);
        b.ret(Some(d));
        uu_ir::verify_function(&f).unwrap();
        assert!(IfConvert.run(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        let selects = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Select { .. }))
            .count();
        assert_eq!(selects, 2, "{f}");
        // No conditional branch remains.
        let condbrs = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::CondBr { .. }))
            .count();
        assert_eq!(condbrs, 0);
    }

    /// The complex pattern: if (n & 1) { a *= a0; c = c*a0 + c0 }.
    #[test]
    fn triangle_with_cheap_body_is_predicated() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::new("a", Type::F64),
                Param::new("a0", Type::F64),
                Param::new("n", Type::I64),
            ],
            Type::F64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let side = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let bit = b.and(Value::Arg(2), Value::imm(1i64));
        let odd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.cond_br(odd, side, j);
        b.switch_to(side);
        let anew = b.fmul(Value::Arg(0), Value::Arg(1));
        b.br(j);
        b.switch_to(j);
        let am = b.phi(Type::F64);
        b.add_phi_incoming(am, side, anew);
        b.add_phi_incoming(am, e, Value::Arg(0));
        b.ret(Some(am));
        assert!(IfConvert.run(&mut f));
        uu_ir::verify_function(&f).unwrap_or_else(|er| panic!("{er}\n{f}"));
        let selects = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Select { .. }))
            .count();
        assert_eq!(selects, 1);
        assert_eq!(f.num_blocks(), 2);
    }

    #[test]
    fn memory_side_blocks_are_not_converted() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("p", Type::Ptr), Param::new("c", Type::I1)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let side = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::Arg(1), side, j);
        b.switch_to(side);
        b.store(Value::Arg(0), Value::imm(1i64)); // side effect
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        assert!(!IfConvert.run(&mut f));
    }

    #[test]
    fn expensive_side_blocks_are_not_converted() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("x", Type::I64), Param::new("c", Type::I1)],
            Type::I64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let side = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        b.cond_br(Value::Arg(1), side, j);
        b.switch_to(side);
        let mut v = Value::Arg(0);
        for k in 0..9 {
            v = b.add(v, Value::imm(k as i64));
        }
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, side, v);
        b.add_phi_incoming(p, e, Value::Arg(0));
        b.ret(Some(p));
        assert!(!IfConvert.run(&mut f));
    }
}
