//! Golden-snapshot tests for the opt passes, using the textual IR printer.
//!
//! Each test applies exactly one pass to the standard branchy subject (the
//! same 4-path loop the pass micro-benches use), after u&u duplication at
//! factor 2 so every pass sees the duplicated control flow it exists to
//! clean up. The printed IR is compared against
//! `tests/golden/<name>.ir`.
//!
//! To regenerate after an intentional pass change:
//!
//! ```sh
//! UU_UPDATE_GOLDEN=1 cargo test -p uu-core --test golden
//! ```
//!
//! then inspect the diff like any other code review.

use std::path::PathBuf;
use uu_core::opt::{
    condprop::CondProp, dce::Dce, gvn::Gvn, ifconvert::IfConvert, instsimplify::InstSimplify,
    meld::Meld, sccp::Sccp, simplifycfg::SimplifyCfg, Pass,
};
use uu_core::{meld_function, uu_loop, UuOptions};
use uu_ir::{CastOp, Function, FunctionBuilder, ICmpPred, Param, Type, Value};

/// The standard subject: a loop with a two-condition body (4 paths).
fn subject() -> Function {
    let mut f = Function::new(
        "subject",
        vec![
            Param::new("n", Type::I64),
            Param::new("k", Type::I64),
            Param::new("out", Type::Ptr),
        ],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let h = b.create_block();
    let body = b.create_block();
    let t1 = b.create_block();
    let m1 = b.create_block();
    let t2 = b.create_block();
    let latch = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    b.br(h);
    b.switch_to(h);
    let i = b.phi(Type::I64);
    let kv = b.phi(Type::I64);
    let acc = b.phi(Type::I64);
    b.add_phi_incoming(i, entry, Value::imm(0i64));
    b.add_phi_incoming(kv, entry, Value::Arg(1));
    b.add_phi_incoming(acc, entry, Value::imm(0i64));
    let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let acc1 = b.add(acc, i);
    let c1 = b.icmp(ICmpPred::Sgt, kv, Value::imm(1i64));
    b.cond_br(c1, t1, m1);
    b.switch_to(t1);
    let kv1 = b.sub(kv, Value::imm(1i64));
    b.br(m1);
    b.switch_to(m1);
    let kvm = b.phi(Type::I64);
    b.add_phi_incoming(kvm, body, kv);
    b.add_phi_incoming(kvm, t1, kv1);
    let c2 = b.icmp(ICmpPred::Sgt, acc1, Value::imm(100i64));
    b.cond_br(c2, t2, latch);
    b.switch_to(t2);
    b.br(latch);
    b.switch_to(latch);
    let accm = b.phi(Type::I64);
    b.add_phi_incoming(accm, m1, acc1);
    b.add_phi_incoming(accm, t2, Value::imm(100i64));
    let i1 = b.add(i, Value::imm(1i64));
    b.add_phi_incoming(i, latch, i1);
    b.add_phi_incoming(kv, latch, kvm);
    b.add_phi_incoming(acc, latch, accm);
    b.br(h);
    b.switch_to(exit);
    b.store(Value::Arg(2), acc);
    b.ret(None);
    f
}

/// The subject after u&u at factor 2 — the input every cleanup pass is
/// snapshotted on.
fn transformed() -> Function {
    let mut f = subject();
    let h = f.layout()[1];
    uu_loop(
        &mut f,
        h,
        &UuOptions {
            factor: 2,
            ..Default::default()
        },
    );
    f
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.ir"))
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UU_UPDATE_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with UU_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        want,
        "golden snapshot '{name}' changed; if intentional, regenerate with \
         UU_UPDATE_GOLDEN=1 cargo test -p uu-core --test golden"
    );
}

fn snapshot_pass(name: &str, mut pass: impl Pass) {
    let mut f = transformed();
    pass.run(&mut f);
    uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{name} corrupted the IR: {e}\n{f}"));
    assert_golden(name, &f.to_string());
}

/// The u&u transform itself (the input all pass snapshots share).
#[test]
fn golden_uu2() {
    let f = transformed();
    uu_ir::verify_function(&f).unwrap();
    assert_golden("uu2", &f.to_string());
}

/// An outer loop whose body diamond merges at an *inner loop*: the inner
/// loop (header, two arms, a latch that merges them and exits do-while
/// style) is one multi-block super-node, duplicated wholesale for the
/// diamond's second arm. Values the inner header and latch define are used
/// in the outer latch, so the SSA repair walks back through the group's own
/// merge blocks to place its phis.
fn supernode_subject() -> Function {
    let mut f = Function::new(
        "supernode",
        vec![
            Param::new("n", Type::I64),
            Param::new("k", Type::I64),
            Param::new("out", Type::Ptr),
        ],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let h = b.create_block();
    let body = b.create_block();
    let x = b.create_block();
    let y = b.create_block();
    let ih = b.create_block();
    let ia = b.create_block();
    let ib = b.create_block();
    let il = b.create_block();
    let latch = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    b.br(h);
    b.switch_to(h);
    let i = b.phi(Type::I64);
    let acc = b.phi(Type::I64);
    b.add_phi_incoming(i, entry, Value::imm(0i64));
    b.add_phi_incoming(acc, entry, Value::imm(0i64));
    let more = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
    b.cond_br(more, body, exit);
    b.switch_to(body);
    let odd = b.and(i, Value::imm(1i64));
    let c = b.icmp(ICmpPred::Ne, odd, Value::imm(0i64));
    b.cond_br(c, x, y);
    b.switch_to(x);
    let sx = b.add(acc, Value::Arg(1));
    b.br(ih);
    b.switch_to(y);
    let sy = b.sub(acc, Value::Arg(1));
    b.br(ih);
    b.switch_to(ih);
    let j = b.phi(Type::I64);
    let s = b.phi(Type::I64);
    b.add_phi_incoming(j, x, Value::imm(0i64));
    b.add_phi_incoming(j, y, Value::imm(1i64));
    b.add_phi_incoming(s, x, sx);
    b.add_phi_incoming(s, y, sy);
    let twice = b.add(s, s);
    let big = b.icmp(ICmpPred::Sgt, twice, Value::imm(100i64));
    b.cond_br(big, ia, ib);
    b.switch_to(ia);
    let sa = b.sub(twice, Value::imm(100i64));
    b.br(il);
    b.switch_to(ib);
    let sb = b.add(twice, j);
    b.br(il);
    b.switch_to(il);
    let sm = b.phi(Type::I64);
    b.add_phi_incoming(sm, ia, sa);
    b.add_phi_incoming(sm, ib, sb);
    let j1 = b.add(j, Value::imm(1i64));
    b.add_phi_incoming(j, il, j1);
    b.add_phi_incoming(s, il, sm);
    let again = b.icmp(ICmpPred::Slt, j1, Value::imm(3i64));
    b.cond_br(again, ih, latch);
    b.switch_to(latch);
    let mixed = b.add(sm, twice);
    let acc1 = b.add(mixed, j1);
    let i1 = b.add(i, Value::imm(1i64));
    b.add_phi_incoming(i, latch, i1);
    b.add_phi_incoming(acc, latch, acc1);
    b.br(h);
    b.switch_to(exit);
    b.store(Value::Arg(2), acc);
    b.ret(None);
    f
}

/// Unmerge-only u&u over the outer loop of [`supernode_subject`]: the inner
/// loop is unmerged first, then duplicated as one super-node.
#[test]
fn golden_unmerge_supernode() {
    let mut f = supernode_subject();
    uu_ir::verify_function(&f).unwrap();
    let h = f.layout()[1];
    let blocks = f.num_blocks();
    let out = uu_loop(
        &mut f,
        h,
        &UuOptions {
            factor: 1,
            ..Default::default()
        },
    );
    uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
    // The inner latch once inside the inner loop, then the whole inner loop
    // (five blocks by then) once for the diamond's second arm, and the
    // outer latch once per inner-loop exit per copy.
    assert_eq!(out.unmerge.nodes_duplicated, 3);
    assert_eq!(f.num_blocks(), blocks + out.unmerge.blocks_cloned);
    assert_golden("unmerge-supernode", &f.to_string());
}

#[test]
fn golden_sccp() {
    snapshot_pass("sccp", Sccp);
}

#[test]
fn golden_gvn() {
    snapshot_pass("gvn", Gvn);
}

#[test]
fn golden_simplifycfg() {
    snapshot_pass("simplifycfg", SimplifyCfg::default());
}

#[test]
fn golden_instsimplify() {
    snapshot_pass("instsimplify", InstSimplify);
}

#[test]
fn golden_ifconvert() {
    snapshot_pass("ifconvert", IfConvert);
}

#[test]
fn golden_condprop() {
    snapshot_pass("condprop", CondProp);
}

#[test]
fn golden_dce() {
    snapshot_pass("dce", Dce);
}

/// The meld subject: a loop whose body diamond branches on a
/// `threadIdx.x`-derived (divergent) condition, with one aligned
/// `gep`+`store` pair per arm, a multiplier the arms disagree on (melds
/// into a select), and a gap `add` only the false arm executes (gets
/// speculated). The uniform `subject()` above is useless for meld — its
/// diamonds never diverge — so the meld snapshots get their own fixture.
fn meld_subject() -> Function {
    let mut f = Function::new(
        "meld_subject",
        vec![
            Param::new("n", Type::I64),
            Param::new("x", Type::I64),
            Param::new("out", Type::Ptr),
        ],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let h = b.create_block();
    let body = b.create_block();
    let t = b.create_block();
    let e2 = b.create_block();
    let latch = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    let tid = b.thread_idx();
    let tid64 = b.cast(CastOp::Sext, tid, Type::I64);
    let bit = b.and(tid64, Value::imm(1i64));
    let odd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
    b.br(h);
    b.switch_to(h);
    let i = b.phi(Type::I64);
    b.add_phi_incoming(i, entry, Value::imm(0i64));
    let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    b.cond_br(odd, t, e2);
    b.switch_to(t);
    let x2 = b.mul(Value::Arg(1), Value::imm(2i64));
    let p1 = b.gep(Value::Arg(2), tid64, 8);
    b.store(p1, x2);
    b.br(latch);
    b.switch_to(e2);
    let x3 = b.mul(Value::Arg(1), Value::imm(3i64));
    let x31 = b.add(x3, Value::imm(1i64));
    let p2 = b.gep(Value::Arg(2), tid64, 8);
    b.store(p2, x31);
    b.br(latch);
    b.switch_to(latch);
    let i1 = b.add(i, Value::imm(1i64));
    b.add_phi_incoming(i, latch, i1);
    b.br(h);
    b.switch_to(exit);
    b.ret(None);
    f
}

/// Meld before/after on the divergent subject: the diamond must meld into
/// a single predicated path (exactly one store, no divergent branch left).
#[test]
fn golden_meld_subject() {
    let f = meld_subject();
    uu_ir::verify_function(&f).unwrap();
    assert_golden("meld-subject-before", &f.to_string());
    let mut melded = f.clone();
    assert!(meld_function(&mut melded), "the divergent diamond must meld");
    uu_ir::verify_function(&melded).unwrap_or_else(|e| panic!("{e}\n{melded}"));
    assert_golden("meld-subject-after", &melded.to_string());
}

/// Meld before/after over every checked-in fuzz corpus seed: the exact IR
/// the pass sees and emits for each regression kernel, diffed byte-for-byte
/// against the snapshot.
#[test]
fn golden_meld_corpus() {
    let corpus = uu_check::corpus::load_corpus();
    assert!(corpus.len() >= 2, "regression corpus went missing");
    for (name, spec) in corpus {
        let f = uu_check::build_kernel(&spec);
        uu_ir::verify_function(&f).unwrap();
        assert_golden(&format!("meld-corpus-{name}-before"), &f.to_string());
        let mut melded = f.clone();
        meld_function(&mut melded);
        uu_ir::verify_function(&melded)
            .unwrap_or_else(|e| panic!("meld corrupted corpus {name}: {e}\n{melded}"));
        assert_golden(&format!("meld-corpus-{name}-after"), &melded.to_string());
    }
}

/// Snapshots must be reproducible within a process too — a pass whose
/// output depends on hash-map iteration order would make the golden files
/// flaky. Catch that directly.
#[test]
fn passes_are_deterministic() {
    for _ in 0..3 {
        let print = |mut pass: Box<dyn Pass>| {
            let mut f = transformed();
            pass.run(&mut f);
            f.to_string()
        };
        assert_eq!(print(Box::new(Sccp)), print(Box::new(Sccp)));
        assert_eq!(print(Box::new(Gvn)), print(Box::new(Gvn)));
        assert_eq!(
            print(Box::new(SimplifyCfg::default())),
            print(Box::new(SimplifyCfg::default()))
        );
        assert_eq!(print(Box::new(CondProp)), print(Box::new(CondProp)));
        assert_eq!(print(Box::new(Dce)), print(Box::new(Dce)));
        let print_meld = || {
            let mut f = meld_subject();
            Meld.run(&mut f);
            f.to_string()
        };
        assert_eq!(print_meld(), print_meld());
    }
}
