//! `resolve_trivial_phis_in` rewrites all uses in one sweep; what it leaves
//! must be — as a whole function, unlinked arena slots included, since the
//! compile memo keys on them — what resolving the same phis one at a time
//! leaves. The one-at-a-time version lives here as the reference.

use uu_check::{build_kernel, check, Config, KernelSpec};
use uu_core::clone::resolve_trivial_phis_in;
use uu_core::{uu_loop, UnmergeOptions};
use uu_ir::{BlockId, Function, FunctionBuilder, InstKind, Param, Type, Value};

/// One `replace_all_uses` per single-incoming phi, in `blocks` order.
fn one_at_a_time(f: &mut Function, blocks: &[BlockId]) -> usize {
    let mut resolved = 0;
    for &block in blocks {
        for phi in f.phis(block) {
            let InstKind::Phi { incomings } = &f.inst(phi).kind else {
                unreachable!()
            };
            if let [(_, v)] = incomings[..] {
                f.replace_all_uses(Value::Inst(phi), v);
                f.unlink_inst(block, phi);
                resolved += 1;
            }
        }
    }
    resolved
}

fn assert_agree(f: &Function, blocks: &[BlockId]) -> usize {
    let (mut batched, mut reference) = (f.clone(), f.clone());
    let n = resolve_trivial_phis_in(&mut batched, blocks);
    assert_eq!(n, one_at_a_time(&mut reference, blocks));
    assert!(
        batched == reference,
        "blocks {blocks:?}\nbatched:\n{batched:?}\none at a time:\n{reference:?}"
    );
    n
}

/// entry → b1 → b2 → b3, with `c = phi [arg]` in b1, `b = phi [c]` in b2,
/// `a = phi [b]` in b3 and `ret a`.
fn chain() -> (Function, [BlockId; 3]) {
    let mut f = Function::new("chain", vec![Param::new("x", Type::I64)], Type::I64);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let blocks = [b.create_block(), b.create_block(), b.create_block()];
    b.switch_to(entry);
    b.br(blocks[0]);
    let mut value = Value::Arg(0);
    let mut from = entry;
    for (at, &block) in blocks.iter().enumerate() {
        b.switch_to(block);
        let phi = b.phi(Type::I64);
        b.add_phi_incoming(phi, from, value);
        (value, from) = (phi, block);
        match blocks.get(at + 1) {
            Some(&next) => b.br(next),
            None => b.ret(Some(phi)),
        }
    }
    (f, blocks)
}

#[test]
fn chains_resolve_to_their_end_in_either_block_order() {
    let (f, [b1, b2, b3]) = chain();
    for order in [[b1, b2, b3], [b3, b2, b1], [b2, b3, b1], [b2, b1, b3]] {
        assert_eq!(assert_agree(&f, &order), 3);
    }
    let mut g = f.clone();
    resolve_trivial_phis_in(&mut g, &[b3, b2, b1]);
    let ret = g.terminator(b3).unwrap();
    assert!(matches!(
        g.inst(ret).kind,
        InstKind::Ret {
            value: Some(Value::Arg(0))
        }
    ));
    assert!(uu_ir::verify_function(&g).is_ok());
    // A subset leaves the rest of the chain standing.
    assert_eq!(assert_agree(&f, &[b2]), 1);
}

/// An unreachable block holding `p = phi [p]`, the cycle `q = phi [r]`,
/// `r = phi [q]`, and `t = phi [q]` hanging off it — all labelled with the
/// block itself, its only predecessor.
fn cycles() -> (Function, BlockId) {
    let mut f = Function::new("cycles", vec![Param::new("out", Type::Ptr)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let dead = b.create_block();
    b.switch_to(entry);
    b.ret(None);
    b.switch_to(dead);
    let p = b.phi(Type::I64);
    let q = b.phi(Type::I64);
    let r = b.phi(Type::I64);
    let t = b.phi(Type::I64);
    b.add_phi_incoming(p, dead, p);
    b.add_phi_incoming(q, dead, r);
    b.add_phi_incoming(r, dead, q);
    b.add_phi_incoming(t, dead, q);
    let pq = b.add(p, q);
    let rt = b.add(r, t);
    let sum = b.add(pq, rt);
    b.store(Value::Arg(0), sum);
    b.br(dead);
    (f, dead)
}

#[test]
fn self_references_and_cycles_terminate_and_collapse_onto_the_last_member_met() {
    let (f, dead) = cycles();
    assert_eq!(assert_agree(&f, &[dead]), 4);
    let mut g = f.clone();
    resolve_trivial_phis_in(&mut g, &[dead]);
    assert!(g.phis(dead).is_empty());
    let operands = |g: &Function, i| {
        let mut out = Vec::new();
        g.inst(i).kind.for_each_operand(|v| out.push(*v));
        out
    };
    // The builder puts each new phi in front of the others, so the order
    // they are met in is t, r, q, p: t and r become q, and q, by then fed
    // by itself, stands for itself like p.
    let [_t, _r, q, p] = f.phis(dead)[..] else {
        unreachable!()
    };
    let [pq, rt] = g.block(dead).insts[..2] else {
        unreachable!()
    };
    assert_eq!(operands(&g, pq), [Value::Inst(p), Value::Inst(q)]);
    assert_eq!(operands(&g, rt), [Value::Inst(q), Value::Inst(q)]);
}

/// Cut every phi down to one incoming, its first or its last: the join
/// phis of the diamonds feed each other across the unrolled iterations and
/// the header phis feed the exit's, so the single-incoming phis come in
/// chains that run with the layout and against it.
fn keep_one_incoming(f: &mut Function, last: bool) {
    for b in f.layout().to_vec() {
        for phi in f.phis(b) {
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                let keep = if last { incomings.len() - 1 } else { 0 };
                *incomings = vec![incomings[keep]];
            }
        }
    }
}

#[test]
fn batched_and_one_at_a_time_agree_on_generated_kernels_after_uu4() {
    let resolved = std::sync::atomic::AtomicUsize::new(0);
    check(
        "batched_and_one_at_a_time_agree_on_generated_kernels_after_uu4",
        &Config::from_env(64),
        |spec: &KernelSpec| {
            let kernel = build_kernel(spec);
            let mut transformed = kernel.clone();
            let header = transformed.layout()[1];
            uu_loop(&mut transformed, header, 4, UnmergeOptions::default());
            for f in [kernel, transformed] {
                for last in [false, true] {
                    let mut f = f.clone();
                    keep_one_incoming(&mut f, last);
                    let mut layout = f.layout().to_vec();
                    let n = assert_agree(&f, &layout);
                    layout.reverse();
                    assert_eq!(assert_agree(&f, &layout), n);
                    resolved.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
                }
            }
            Ok(())
        },
    );
    assert!(
        resolved.into_inner() > 0,
        "no generated kernel had a trivial phi to resolve"
    );
}
