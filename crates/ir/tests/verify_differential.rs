//! The verifier's dominator tree against the set-based fixpoint it
//! replaced, on generated CFGs: the same verdict and the same messages in
//! the same order, including on the shapes where the two definitions could
//! part — unreachable blocks and cycles, predecessor-less non-entry blocks,
//! an entry with predecessors, and branches and phi incomings naming
//! unlinked blocks.

#[path = "support/fixpoint_dominance.rs"]
mod fixpoint_dominance;

use fixpoint_dominance::assert_verifiers_agree;
use std::sync::atomic::{AtomicUsize, Ordering};
use uu_check::{check, Config};
use uu_ir::{BinOp, BlockId, Function, Inst, InstKind, Param, Type, Value};

/// Per block `(terminator, target, target)`: `t % 4` picks `ret`, `br` or
/// `cond_br`, and bit 7 unlinks a non-entry block once the CFG is built.
/// Per instruction `(block, kind, operand)`: `kind % 4 == 0` is a phi with
/// one incoming per predecessor (bit 6 adds one from an arbitrary,
/// possibly unlinked, block), anything else an `add`. Operands may name
/// any instruction, so defs need not dominate their uses.
type Spec = (Vec<(u8, u8, u8)>, Vec<(u8, u8, u8)>);

fn build(spec: &Spec) -> Function {
    let (blocks, insts) = spec;
    let n = blocks.len().clamp(1, 8);
    let mut f = Function::new(
        "g",
        vec![Param::new("x", Type::I64), Param::new("c", Type::I1)],
        Type::Void,
    );
    let mut ids = vec![f.entry()];
    ids.extend((1..n).map(|_| f.add_block()));
    let blk = |k: u8| ids[k as usize % n];
    let placeholder = |kind: u8| {
        if kind % 4 == 0 {
            InstKind::Phi { incomings: vec![] }
        } else {
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::Arg(0),
                rhs: Value::Arg(0),
            }
        }
    };
    let made: Vec<_> = insts
        .iter()
        .map(|&(b, kind, _)| {
            let inst = Inst::new(placeholder(kind), Type::I64);
            if kind % 4 == 0 {
                f.prepend_inst(blk(b), inst)
            } else {
                f.append_inst(blk(b), inst)
            }
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let (t, a, b) = blocks.get(i).copied().unwrap_or((0, 0, 0));
        let kind = match t % 4 {
            0 => InstKind::Ret { value: None },
            2 => InstKind::CondBr {
                cond: Value::Arg(1),
                if_true: blk(a),
                if_false: blk(b),
            },
            _ => InstKind::Br { target: blk(a) },
        };
        f.append_inst(id, Inst::new(kind, Type::Void));
    }
    for (i, &id) in ids.iter().enumerate().skip(1) {
        if blocks[i].0 & 0x80 != 0 {
            f.remove_block(id);
        }
    }
    let preds = f.predecessors();
    let pick = |s: usize| match s % (made.len() + 1) {
        k if k == made.len() => Value::Arg(0),
        k => Value::Inst(made[k]),
    };
    for (&(b, kind, src), &id) in insts.iter().zip(&made) {
        let src = src as usize;
        f.inst_mut(id).kind = if kind % 4 == 0 {
            let mut incomings: Vec<(BlockId, Value)> = preds[blk(b).index()]
                .iter()
                .enumerate()
                .map(|(k, &p)| (p, pick(src + k)))
                .collect();
            if kind & 0x40 != 0 {
                incomings.push((blk(kind >> 2), pick(src + 7)));
            }
            InstKind::Phi { incomings }
        } else {
            InstKind::Bin {
                op: BinOp::Add,
                lhs: pick(src),
                rhs: pick(kind as usize),
            }
        };
    }
    f
}

/// The shapes a generated function exhibits, for the coverage tally.
fn shapes(f: &Function) -> [bool; 4] {
    let layout = f.layout();
    let preds = f.predecessors();
    let entry = f.entry();
    let linked = |b: BlockId| layout.contains(&b);
    // Reached from a root over linked edges, none into the entry.
    let mut reached: Vec<BlockId> = layout
        .iter()
        .copied()
        .filter(|&b| b == entry || preds[b.index()].is_empty())
        .collect();
    let mut i = 0;
    while i < reached.len() {
        for s in f.successors(reached[i]) {
            if linked(s) && s != entry && !reached.contains(&s) {
                reached.push(s);
            }
        }
        i += 1;
    }
    [
        // A block no root reaches has a predecessor (else it would be a
        // root), so an unreached cycle lies upstream of it.
        layout.iter().any(|b| !reached.contains(b)),
        layout
            .iter()
            .any(|&b| b != entry && preds[b.index()].is_empty()),
        !preds[entry.index()].is_empty(),
        layout
            .iter()
            .any(|&b| f.successors(b).into_iter().any(|s| !linked(s))),
    ]
}

#[test]
fn dominator_tree_verifier_matches_the_fixpoint_on_generated_cfgs() {
    check(
        "dominator_tree_verifier_matches_the_fixpoint_on_generated_cfgs",
        &Config::from_env(2000),
        |spec: &Spec| {
            assert_verifiers_agree(&build(spec), "generated CFG");
            Ok(())
        },
    );
}

/// The generator reaches every shape the comparison is about, at a fixed
/// seed and case count (independent of `UU_CHECK_CASES`).
#[test]
fn generated_cfgs_cover_the_shapes_where_the_definitions_could_part() {
    let seen: [AtomicUsize; 6] = Default::default();
    check("generated_cfg_shapes", &Config::new(2000), |spec: &Spec| {
        let f = build(spec);
        for (k, hit) in shapes(&f).into_iter().enumerate() {
            seen[k].fetch_add(hit as usize, Ordering::Relaxed);
        }
        let verdict = match uu_ir::verify_function(&f) {
            Ok(()) => 4,
            Err(e) if e.messages.iter().any(|m| m.contains("dominate")) => 5,
            Err(_) => return Ok(()),
        };
        seen[verdict].fetch_add(1, Ordering::Relaxed);
        Ok(())
    });
    let names = [
        "unreachable cycle",
        "predecessor-less non-entry block",
        "entry with predecessors",
        "branch to an unlinked block",
        "function that verifies",
        "dominance violation",
    ];
    let counts: Vec<usize> = seen.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    eprintln!("generated CFG shapes: {names:?} = {counts:?}");
    for (name, n) in names.iter().zip(&counts) {
        assert!(*n > 0, "no generated case has a {name}");
    }
}
