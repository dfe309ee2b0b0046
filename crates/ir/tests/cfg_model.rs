//! `Function::successors` and `Function::predecessors` answer without a
//! list per query: a `Succs` value and one compressed `Preds` map. On
//! every block slot, linked or not, they must answer what the list-based
//! forms they replaced answered — targets in operand order, predecessors
//! in layout order, once per edge. The list-based forms live here as the
//! reference.

use uu_check::{build_kernel, check, corpus::load_corpus, Config, KernelSpec};
use uu_ir::{BlockId, Function, Inst, InstKind, Param, Type, Value};

/// A block's successors as a fresh list.
fn successors_ref(f: &Function, b: BlockId) -> Vec<BlockId> {
    match f.terminator(b).map(|t| &f.inst(t).kind) {
        Some(InstKind::Br { target }) => vec![*target],
        Some(InstKind::CondBr {
            if_true, if_false, ..
        }) => vec![*if_true, *if_false],
        _ => Vec::new(),
    }
}

/// One list per block slot, pushed in layout order.
fn predecessors_ref(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.num_block_slots()];
    for &b in f.layout() {
        for s in successors_ref(f, b) {
            preds[s.index()].push(b);
        }
    }
    preds
}

/// Compare both queries with their references on every block slot.
/// Returns the number of edges.
fn assert_model(f: &Function, label: &str) -> usize {
    let preds = f.predecessors();
    let want = predecessors_ref(f);
    assert_eq!(preds.len(), want.len(), "{label}: slots");
    for (slot, want_preds) in want.iter().enumerate() {
        let b = BlockId::from_index(slot);
        assert_eq!(preds[slot], want_preds[..], "{label}: predecessors of {b}");
        let succs = f.successors(b);
        let want_succs = successors_ref(f, b);
        assert_eq!(*succs, want_succs[..], "{label}: successors of {b}");
        assert_eq!(
            succs.into_iter().collect::<Vec<_>>(),
            want_succs,
            "{label}: {b} by value"
        );
        assert_eq!(
            format!("{succs:?}"),
            format!("{want_succs:?}"),
            "{label}: {b} printed"
        );
    }
    assert_eq!(preds.into_lists(), want, "{label}: owned lists");
    want.iter().map(Vec::len).sum()
}

/// `entry → condbr (c, j, j)`, `j → ret`: both edges into one block, and
/// one more block slot, `u`, whose `br j` is unlinked from the layout.
fn duplicate_targets() -> Function {
    let mut f = Function::new("dup", vec![Param::new("c", Type::I1)], Type::Void);
    let entry = f.entry();
    let j = f.add_block();
    let u = f.add_block();
    let condbr = InstKind::CondBr {
        cond: Value::Arg(0),
        if_true: j,
        if_false: j,
    };
    f.append_inst(entry, Inst::new(condbr, Type::Void));
    f.append_inst(j, Inst::new(InstKind::Ret { value: None }, Type::Void));
    f.append_inst(u, Inst::new(InstKind::Br { target: j }, Type::Void));
    f.remove_block(u);
    f
}

#[test]
fn a_duplicate_target_an_unlinked_block_and_no_terminator() {
    let f = duplicate_targets();
    let [entry, j, u] = [0, 1, 2].map(BlockId::from_index);
    assert_eq!(assert_model(&f, "duplicate targets"), 2);
    assert_eq!(f.predecessors()[j.index()], [entry, entry]);
    assert_eq!(*f.successors(entry), [j, j]);
    // An unlinked block still has its terminator's targets, but no edge.
    assert_eq!(*f.successors(u), [j]);

    // A function being built: blocks without a terminator have no edges.
    let mut g = Function::new("building", vec![], Type::I64);
    let b = g.add_block();
    let add = InstKind::Bin {
        op: uu_ir::BinOp::Add,
        lhs: Value::imm(1i64),
        rhs: Value::imm(2i64),
    };
    g.append_inst(b, Inst::new(add, Type::I64));
    assert_eq!(assert_model(&g, "no terminator"), 0);
    assert!(g.successors(g.entry()).is_empty() && g.successors(b).is_empty());
}

#[test]
fn corpus_kernels_match_the_list_reference() {
    for (name, spec) in load_corpus() {
        let f = build_kernel(&spec);
        assert!(assert_model(&f, &name) > 0, "{name}: no edges");
    }
}

#[test]
fn generated_kernels_match_the_list_reference() {
    check(
        "generated_kernels_match_the_list_reference",
        &Config::from_env(64),
        |spec: &KernelSpec| {
            let mut f = build_kernel(spec);
            assert_model(&f, "generated kernel");
            // Unlink the last block: edges into it from the layout stay,
            // its own edges go.
            let last = *f.layout().last().unwrap();
            if last != f.entry() {
                f.remove_block(last);
                assert_model(&f, "generated kernel, last block unlinked");
            }
            Ok(())
        },
    );
}
