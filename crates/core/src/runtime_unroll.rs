//! Runtime unrolling: a checkless main loop plus an epilogue.
//!
//! For a canonical affine loop `for (i = init; i <pred> bound; i += step)`
//! whose bound is only known at run time, runtime unrolling by `u` builds:
//!
//! ```text
//! main:  while (i <pred> bound - (u-1)·step) { body; body; ... ×u }
//! epi:   while (i <pred> bound)              { body }   // leftovers
//! ```
//!
//! The main loop evaluates the exit condition once per `u` iterations — the
//! "beneficial runtime unrolling" of LLVM that the paper's *ccs* analysis
//! identifies (§IV-C RQ1): when the u&u pass claims such a loop, this
//! optimization is suppressed and the application slows down.

use crate::clone::{add_phi_incomings_for_clone, clone_region, remove_phi_incomings_from};
use crate::loopsimplify::canonicalize_loop;
use crate::unroll::unroll_canonical;
use uu_analysis::{affine_loop, DomTree, LoopForest, LoopId};
use uu_ir::{BinOp, BlockId, Function, Inst, InstKind, Value};

/// Runtime-unroll the loop at `header` by `factor`.
///
/// Returns `false` (leaving only semantics-preserving canonicalization
/// behind) when the loop is not a recognizable affine loop, has more than
/// one exit, or live-out values are not expressible through header phis.
pub fn runtime_unroll(
    f: &mut Function,
    header: BlockId,
    blocks: &[BlockId],
    latches: &[BlockId],
    factor: u32,
) -> bool {
    if factor < 2 {
        return false;
    }
    let Some(cl) = canonicalize_loop(f, header, blocks, latches) else {
        return false;
    };
    // Re-derive the loop and its affine shape post-canonicalization.
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    let Some(lix) = forest.loops().iter().position(|l| l.header == header) else {
        return false;
    };
    let Some(aff) = affine_loop(f, &forest, LoopId(lix)) else {
        return false;
    };
    // Single exit, and it must be taken from the header.
    if cl.exits.len() != 1 {
        return false;
    }
    let exit = cl.exits[0];
    let preds = f.predecessors();
    if preds[exit.index()] != vec![cl.header] {
        return false;
    }
    // Live-outs must be header phis, constants or outside definitions: the
    // epilogue re-establishes them from its own phis.
    let header_phis = f.phis(cl.header);
    for &phi in f.phis(exit) {
        if let InstKind::Phi { incomings } = &f.inst(phi).kind {
            for (p, v) in incomings {
                debug_assert_eq!(*p, cl.header);
                match v {
                    Value::Inst(i) if !header_phis.contains(i) => return false,
                    _ => {}
                }
            }
        }
    }

    // --- b. epilogue: a full clone of the canonical loop ---
    let epi = clone_region(f, &cl.blocks);
    let epi_header = epi.map_block(cl.header);
    // The epilogue must never be unrolled in turn (the baseline unroller
    // would otherwise recurse on it forever).
    f.set_loop_pragma(epi_header, uu_ir::LoopPragma::NoUnroll);
    // Exit phis gain incomings from the epilogue's exiting header.
    add_phi_incomings_for_clone(f, exit, cl.header, &epi);

    // --- c. unroll the original (main) loop ---
    let header_phi_ids = f.phis(cl.header).to_vec();
    let r = unroll_canonical(f, cl.clone(), factor);

    // --- d. kill the inner copies' exit checks ---
    for map in &r.copies {
        let hk = map.map_block(cl.header);
        let t = f.terminator(hk).expect("header terminator");
        if let InstKind::CondBr {
            if_true, if_false, ..
        } = f.inst(t).kind
        {
            let (cont, ex) = if aff.exit_is_false {
                (if_true, if_false)
            } else {
                (if_false, if_true)
            };
            f.inst_mut(t).kind = InstKind::Br { target: cont };
            remove_phi_incomings_from(f, ex, hk);
        }
    }

    // --- e. main loop exits into the epilogue ---
    let h0 = cl.header;
    let t0 = f.terminator(h0).expect("terminator");
    f.inst_mut(t0).kind.replace_block(exit, epi_header);
    remove_phi_incomings_from(f, exit, h0);
    // Epilogue header phis: the out-of-loop incoming now comes from the
    // main header, carrying the main loop's current phi values.
    for &op in &header_phi_ids {
        let ep = epi.inst(op).expect("header phi was cloned");
        if let InstKind::Phi { incomings } = &mut f.inst_mut(ep).kind {
            for (p, v) in incomings.iter_mut() {
                if *p == cl.preheader {
                    *p = h0;
                    *v = Value::Inst(op);
                }
            }
        }
    }

    // --- f. strengthen the main-loop bound: bound' = bound - (u-1)*step ---
    let adjust = (factor as i64 - 1) * aff.step;
    let ty = f.value_type(aff.bound);
    let adj_const = match ty {
        uu_ir::Type::I32 => Value::imm(adjust as i32),
        _ => Value::imm(adjust),
    };
    let bound_adj = f.create_inst(Inst::new(
        InstKind::Bin {
            op: BinOp::Sub,
            lhs: aff.bound,
            rhs: adj_const,
        },
        ty,
    ));
    // Insert in the preheader, before its terminator.
    let ph_term_pos = f.block(cl.preheader).insts.len() - 1;
    f.block_mut(cl.preheader)
        .insts
        .insert(ph_term_pos, bound_adj);
    // New comparison in the main header against the adjusted bound.
    let InstKind::ICmp { pred, lhs, rhs } = f.inst(aff.cmp).kind else {
        return false;
    };
    let (nl, nr) = if lhs == aff.bound {
        (Value::Inst(bound_adj), rhs)
    } else {
        (lhs, Value::Inst(bound_adj))
    };
    let new_cmp = f.create_inst(Inst::new(InstKind::ICmp { pred, lhs: nl, rhs: nr }, uu_ir::Type::I1));
    let pos = f.block(h0).insts.len() - 1;
    f.block_mut(h0).insts.insert(pos, new_cmp);
    if let InstKind::CondBr { cond, .. } = &mut f.inst_mut(t0).kind {
        *cond = Value::Inst(new_cmp);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type};

    /// sum += a[i] for i in 0..n — affine loop with runtime bound.
    fn sum_kernel() -> uu_ir::Function {
        let mut f = uu_ir::Function::new(
            "sum",
            vec![Param::new("a", Type::Ptr), Param::new("n", Type::I64)],
            Type::F64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        let s = b.phi(Type::F64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        b.add_phi_incoming(s, entry, Value::imm(0.0f64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let pa = b.gep(Value::Arg(0), i, 8);
        let v = b.load(Type::F64, pa);
        let s1 = b.fadd(s, v);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.add_phi_incoming(s, body, s1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(s));
        f
    }

    fn apply(f: &mut uu_ir::Function, factor: u32) -> bool {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let l = forest.get(LoopId(0)).clone();
        runtime_unroll(f, l.header, &l.blocks, &l.latches, factor)
    }

    #[test]
    fn produces_main_and_epilogue() {
        let mut f = sum_kernel();
        assert!(apply(&mut f, 4));
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        // Two loops now: the unrolled main and the epilogue.
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.len(), 2, "{f}");
        // Exactly two conditional branches in loop headers: main + epilogue
        // (inner copies are checkless).
        let condbrs = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::CondBr { .. }))
            .count();
        assert_eq!(condbrs, 2, "{f}");
    }

    #[test]
    fn execution_matches_unoptimized() {
        use uu_simt::{Gpu, KernelArg, LaunchConfig};
        for n in [0i64, 1, 3, 4, 7, 16, 17, 31] {
            let data: Vec<f64> = (0..32).map(|i| (i as f64) * 0.25 + 1.0).collect();
            fn storing_kernel() -> uu_ir::Function {
                let mut f = uu_ir::Function::new(
                    "sumstore",
                    vec![
                        Param::new("a", Type::Ptr),
                        Param::new("n", Type::I64),
                        Param::new("out", Type::Ptr),
                    ],
                    Type::Void,
                );
                let entry = f.entry();
                let mut b = FunctionBuilder::new(&mut f);
                let h = b.create_block();
                let body = b.create_block();
                let exit = b.create_block();
                b.switch_to(entry);
                b.br(h);
                b.switch_to(h);
                let i = b.phi(Type::I64);
                let s = b.phi(Type::F64);
                b.add_phi_incoming(i, entry, Value::imm(0i64));
                b.add_phi_incoming(s, entry, Value::imm(0.0f64));
                let c = b.icmp(ICmpPred::Slt, i, Value::Arg(1));
                b.cond_br(c, body, exit);
                b.switch_to(body);
                let pa = b.gep(Value::Arg(0), i, 8);
                let v = b.load(Type::F64, pa);
                let s1 = b.fadd(s, v);
                let i1 = b.add(i, Value::imm(1i64));
                b.add_phi_incoming(i, body, i1);
                b.add_phi_incoming(s, body, s1);
                b.br(h);
                b.switch_to(exit);
                b.store(Value::Arg(2), s);
                b.ret(None);
                f
            }
            let base = storing_kernel();
            let mut unrolled = storing_kernel();
            assert!(apply(&mut unrolled, 4));
            uu_ir::verify_function(&unrolled).unwrap_or_else(|e| panic!("{e}\n{unrolled}"));
            let exec = |k: &uu_ir::Function| -> f64 {
                let mut gpu = Gpu::new();
                let ba = gpu.mem.alloc_f64(&data).unwrap();
                let bo = gpu.mem.alloc_f64(&[0.0]).unwrap();
                gpu.launch(
                    k,
                    LaunchConfig::new(1, 1),
                    &[
                        KernelArg::Buffer(ba),
                        KernelArg::I64(n),
                        KernelArg::Buffer(bo),
                    ],
                )
                .unwrap_or_else(|e| panic!("{e}\n{k}"));
                gpu.mem.read_f64(bo).unwrap()[0]
            };
            assert_eq!(exec(&base), exec(&unrolled), "n = {n}");
        }
    }

    #[test]
    fn fewer_checks_executed() {
        use uu_simt::{Gpu, KernelArg, LaunchConfig};
        let mut base = sum_kernel();
        crate::opt::run_cleanup(&mut base, 8);
        let mut unrolled = sum_kernel();
        assert!(apply(&mut unrolled, 4));
        crate::opt::run_cleanup(&mut unrolled, 8);
        let run = |k: &uu_ir::Function| -> u64 {
            let mut gpu = Gpu::new();
            let ba = gpu.mem.alloc_f64(&vec![1.0; 64]).unwrap();
            let rep = gpu
                .launch(
                    k,
                    LaunchConfig::new(1, 1),
                    &[KernelArg::Buffer(ba), KernelArg::I64(64)],
                )
                .unwrap();
            rep.metrics.thread_control + rep.metrics.thread_arith
        };
        assert!(
            run(&unrolled) < run(&base),
            "runtime unrolling must shrink dynamic overhead"
        );
    }

    #[test]
    fn rejects_non_affine_loops() {
        // Multiplicative induction: not affine.
        let mut f = uu_ir::Function::new("g", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(1i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.mul(i, Value::imm(2i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        assert!(!apply(&mut f, 4));
        uu_ir::verify_function(&f).unwrap();
    }
}
