//! Property: the journal-based delta snapshot restores a function *exactly*
//! — byte-for-byte against a full pre-clone — no matter which pass mutated
//! it in between. This is the rollback contract the guarded pipeline runner
//! relies on under `UU_FAULT` injection, checked here against the real
//! optimization passes over randomized kernels.

use uu_check::{build_kernel, check, Config, KernelSpec};
use uu_core::opt::{
    condprop::CondProp, dce::Dce, gvn::Gvn, instsimplify::InstSimplify, sccp::Sccp,
    simplifycfg::SimplifyCfg, Pass,
};
use uu_ir::Value;

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
