//! Property: the journal-based delta snapshot restores a function *exactly*
//! — byte-for-byte against a full pre-clone — no matter which pass mutated
//! it in between. This is the rollback contract the guarded pipeline runner
//! relies on under `UU_FAULT` injection, checked here against the real
//! optimization passes over randomized kernels. Its exact change bit
//! (`Function::snapshot_changed`), which decides when the pass manager may
//! elide a settled pass, is pinned the same way: against whole-function
//! equality with the state at arm time.

use std::sync::atomic::{AtomicUsize, Ordering};
use uu_analysis::{DomTree, LoopForest};
use uu_check::{build_kernel, check, Config, KernelSpec};
use uu_core::baseline_unroll::baseline_unroll;
use uu_core::opt::{
    condprop::CondProp, dce::Dce, gvn::Gvn, ifconvert::IfConvert, instsimplify::InstSimplify,
    sccp::Sccp, simplifycfg::SimplifyCfg, Pass,
};
use uu_core::{meld_function, uu_loop, UnmergeOptions};
use uu_ir::{BinOp, Function, FunctionBuilder, Inst, InstKind, LoopPragma, Type, Value};

/// Run every cleanup pass over a snapshot-armed copy of the kernel and roll
/// each one back; the function must print identically to the pristine
/// original after every rollback.
#[test]
fn snapshot_rollback_restores_exactly() {
    check(
        "snapshot_rollback_restores_exactly",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let pristine = build_kernel(spec);
            let reference = pristine.to_string();
            let passes: Vec<Box<dyn Pass>> = vec![
                Box::new(SimplifyCfg::default()),
                Box::new(InstSimplify),
                Box::new(Sccp),
                Box::new(Gvn),
                Box::new(CondProp),
                Box::new(Dce),
            ];
            for mut p in passes {
                let mut f = pristine.clone();
                f.snapshot_begin();
                let changed = p.run(&mut f);
                f.snapshot_rollback();
                if f.to_string() != reference {
                    return Err(format!(
                        "rollback after {} (changed={changed}) did not restore the \
                         function.\nexpected:\n{reference}\ngot:\n{f}",
                        p.name()
                    ));
                }
                // The journal must also be reusable: a second arm/commit
                // cycle on the same function keeps the mutation.
                f.snapshot_begin();
                let changed2 = p.run(&mut f);
                f.snapshot_commit();
                let committed = f.to_string();
                if changed2 && committed == reference {
                    return Err(format!(
                        "{} reported a change but committed IR is unchanged",
                        p.name()
                    ));
                }
                uu_ir::verify_function(&f)
                    .map_err(|e| format!("{} broke the IR after commit: {e}\n{f}", p.name()))?;
            }
            Ok(())
        },
    );
}

/// Rollback after a *sequence* of passes (compound mutation within one
/// snapshot) must also restore exactly — the journal coalesces per-entity
/// pre-images, not per-pass ones.
#[test]
fn snapshot_rollback_spans_multiple_passes() {
    check(
        "snapshot_rollback_spans_multiple_passes",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let pristine = build_kernel(spec);
            let reference = pristine.to_string();
            let mut f = pristine.clone();
            f.snapshot_begin();
            let _ = SimplifyCfg::default().run(&mut f);
            let _ = InstSimplify.run(&mut f);
            let _ = Sccp.run(&mut f);
            let _ = Dce.run(&mut f);
            f.snapshot_rollback();
            if f.to_string() != reference {
                return Err(format!(
                    "compound rollback did not restore.\nexpected:\n{reference}\ngot:\n{f}"
                ));
            }
            Ok(())
        },
    );
}

/// The batched use-rewrite journals every slot it touches: after a cleanup
/// round has left unlinked slots behind, one `replace_uses_with` over a
/// third of the values rolls back to the exact pre-image — compared as
/// whole functions, so the unlinked slots count — and commits to what the
/// same substitutions leave one `replace_all_uses` at a time.
#[test]
fn batched_use_rewrite_rolls_back_to_the_exact_pre_image() {
    check(
        "batched_use_rewrite_rolls_back_to_the_exact_pre_image",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let mut pristine = build_kernel(spec);
            let _ = SimplifyCfg::default().run(&mut pristine);
            let _ = Sccp.run(&mut pristine);
            let picked = |v: Value| match v {
                Value::Inst(i) if i.index() % 3 == 0 => Some(Value::Arg(2)),
                _ => None,
            };
            let mut f = pristine.clone();
            f.snapshot_begin();
            f.replace_uses_with(picked);
            let rewritten = f.clone();
            f.snapshot_rollback();
            if f != pristine {
                return Err(format!(
                    "rollback did not restore the function.\nexpected:\n{pristine:?}\ngot:\n{f:?}"
                ));
            }
            let mut one_by_one = pristine.clone();
            for ix in (0..pristine.num_inst_slots()).step_by(3) {
                let from = Value::Inst(uu_ir::InstId::from_index(ix));
                one_by_one.replace_all_uses(from, Value::Arg(2));
            }
            if rewritten != one_by_one {
                return Err("the batched rewrite and the one-by-one rewrite differ".into());
            }
            if rewritten == pristine {
                return Err("the substitution touched nothing".into());
            }
            Ok(())
        },
    );
}

/// Every transformation the pipeline guards, as a step over one function:
/// the cleanup passes, if-conversion, the baseline unroller, u&u on every
/// loop and meld.
fn guarded_steps() -> Vec<(&'static str, Box<dyn FnMut(&mut Function)>)> {
    fn pass(mut p: impl Pass + 'static) -> Box<dyn FnMut(&mut Function)> {
        Box::new(move |f| {
            p.run(f);
        })
    }
    vec![
        ("simplifycfg", pass(SimplifyCfg::default())),
        ("instsimplify", pass(InstSimplify)),
        ("sccp", pass(Sccp)),
        ("gvn", pass(Gvn)),
        ("condprop", pass(CondProp)),
        ("dce", pass(Dce)),
        ("ifconvert", pass(IfConvert)),
        (
            "baseline-unroll",
            Box::new(|f| {
                baseline_unroll(f);
            }),
        ),
        (
            "uu",
            Box::new(|f| {
                let dom = DomTree::compute(f);
                let headers: Vec<_> =
                    LoopForest::compute(f, &dom).loops().iter().map(|l| l.header).collect();
                for h in headers {
                    uu_loop(f, h, 2, UnmergeOptions::default());
                }
            }),
        ),
        (
            "meld",
            Box::new(|f| {
                meld_function(f);
            }),
        ),
    ]
}

/// Property: the exact change bit is whole-function equality against the
/// state at arm time, for every guarded transformation over generated
/// kernels. Each step runs twice in a row, so the second run is the
/// settled-pass case the pipeline elides on — a pass that touches slots
/// without altering them must read as unchanged.
#[test]
fn snapshot_changed_is_whole_function_inequality() {
    let outcomes = [AtomicUsize::new(0), AtomicUsize::new(0)];
    check(
        "snapshot_changed_is_whole_function_inequality",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let mut f = build_kernel(spec);
            for (name, mut step) in guarded_steps() {
                for run in 0..2 {
                    let at_arm = f.clone();
                    f.snapshot_begin();
                    step(&mut f);
                    let bit = f.snapshot_changed();
                    f.snapshot_commit();
                    if bit != (f != at_arm) {
                        return Err(format!(
                            "{name} run {run}: snapshot_changed() = {bit}, but the function \
                             {} its state at arm time\n{f}",
                            if bit { "equals" } else { "differs from" }
                        ));
                    }
                    outcomes[bit as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        },
    );
    let [same, changed] = outcomes.map(AtomicUsize::into_inner);
    assert!(same > 0 && changed > 0, "vacuous: {same} unchanged, {changed} changed");
}

/// entry -(c)-> {a | b} -> join (phi, ret).
fn diamond() -> Function {
    let mut f = Function::new("d", vec![uu_ir::Param::new("c", Type::I1)], Type::I64);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let (t, e, join) = (b.create_block(), b.create_block(), b.create_block());
    b.switch_to(entry);
    b.cond_br(Value::Arg(0), t, e);
    b.switch_to(t);
    b.br(join);
    b.switch_to(e);
    b.br(join);
    b.switch_to(join);
    let p = b.phi(Type::I64);
    b.add_phi_incoming(p, t, Value::imm(1i64));
    b.add_phi_incoming(p, e, Value::imm(2i64));
    b.ret(Some(p));
    f
}

/// Arm a snapshot, apply `edit`, and return the exact bit after checking
/// it against whole-function equality.
fn changed_by(edit: impl FnOnce(&mut Function)) -> bool {
    let mut f = diamond();
    let at_arm = f.clone();
    f.snapshot_begin();
    edit(&mut f);
    let bit = f.snapshot_changed();
    f.snapshot_commit();
    assert_eq!(bit, f != at_arm, "the bit disagrees with equality");
    bit
}

#[test]
fn rewriting_a_slot_to_its_own_value_is_no_change() {
    let ret = |f: &Function| f.terminator(*f.layout().last().unwrap()).unwrap();
    assert!(!changed_by(|f| {
        let id = ret(f);
        let same = f.inst(id).clone();
        *f.inst_mut(id) = same;
        let join = *f.layout().last().unwrap();
        let insts = f.block(join).insts.clone();
        f.block_mut(join).insts = insts;
    }));
    // The same write with a different value is a change.
    assert!(changed_by(|f| {
        let id = ret(f);
        f.inst_mut(id).kind = InstKind::Ret { value: Some(Value::imm(3i64)) };
    }));
    // A phi's incomings and a block's list are compared by content, not
    // length: rewritten to themselves they are no change, and one value or
    // an order moved within the same length is one.
    let phi = |f: &Function| f.phis(*f.layout().last().unwrap())[0];
    assert!(!changed_by(|f| {
        let id = phi(f);
        let same = f.inst(id).clone();
        *f.inst_mut(id) = same;
    }));
    assert!(changed_by(|f| {
        let id = phi(f);
        if let InstKind::Phi { incomings } = &mut f.inst_mut(id).kind {
            incomings[1].1 = Value::imm(7i64);
        }
    }));
    assert!(changed_by(|f| {
        let join = *f.layout().last().unwrap();
        f.block_mut(join).insts.reverse();
    }));
}

#[test]
fn appending_then_unlinking_is_a_change() {
    // The block's list is restored, but the arena keeps the new slot, and
    // unlinked slots are part of a function's identity.
    assert!(changed_by(|f| {
        let join = *f.layout().last().unwrap();
        let add = Inst::new(
            InstKind::Bin { op: BinOp::Add, lhs: Value::imm(1i64), rhs: Value::imm(2i64) },
            Type::I64,
        );
        let id = f.prepend_inst(join, add);
        f.unlink_inst(join, id);
    }));
}

#[test]
fn a_layout_permuted_and_restored_is_no_change() {
    assert!(!changed_by(|f| {
        for b in f.layout()[1..].to_vec() {
            f.move_block_to_end(b);
        }
    }));
    assert!(changed_by(|f| {
        let t = f.layout()[1];
        f.move_block_to_end(t);
    }));
}

#[test]
fn a_pragma_reset_to_its_value_is_no_change() {
    let header = uu_ir::BlockId::from_index(1);
    let mut f = diamond();
    f.set_loop_pragma(header, LoopPragma::NoUnroll);
    let at_arm = f.clone();
    f.snapshot_begin();
    f.set_loop_pragma(header, LoopPragma::NoUnroll);
    assert!(!f.snapshot_changed(), "re-set to the same value");
    f.set_loop_pragma(header, LoopPragma::Unroll(4));
    assert!(f.snapshot_changed(), "set to another value");
    f.set_loop_pragma(header, LoopPragma::NoUnroll);
    assert!(!f.snapshot_changed(), "set away and back");
    f.snapshot_commit();
    assert!(f == at_arm);
}
