//! The round-robin uniformity and divergence analyses, kept verbatim as
//! test oracles for the worklist versions in `uu_analysis::divergence`.
//!
//! Every round rescans every instruction for the data rule, every layout
//! block for each thread-divergent branch (join rule) and every instruction
//! of every loop such a branch exits (temporal rule), over an all-pairs
//! `Vec<Vec<bool>>` reachability matrix: O(blocks²) and more, but simple
//! enough to trust. The rules are monotone, so the worklist must reach the
//! same least fixpoint, slot for slot.

use uu_analysis::{DomTree, LoopForest, LoopId};
use uu_ir::{BlockId, EntitySet, Function, InstId, InstKind, Value};

/// The data rule to a fixed point: thread-id reads, then every
/// value-producing instruction with a tainted operand.
pub fn divergence(f: &Function) -> EntitySet<InstId> {
    let mut tainted = seeds(f);
    while data_round(f, &mut tainted) {}
    tainted
}

/// The data rule closed under the join and temporal rules.
pub fn uniformity(f: &Function) -> EntitySet<InstId> {
    let mut tainted = seeds(f);
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    let preds = f.predecessors();
    let nblocks = preds.len();

    // reach[b] = linked blocks reachable from linked block b (incl. b).
    let mut reach = vec![vec![false; nblocks]; nblocks];
    for &b in f.layout() {
        let r = &mut reach[b.index()];
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut r[x.index()], true) {
                continue;
            }
            for s in f.successors(x) {
                stack.push(s);
            }
        }
    }

    // use_blocks: for each inst slot, the linked blocks that use it as an
    // operand (for the temporal rule's "used outside the loop" test).
    let mut use_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); f.num_inst_slots()];
    for &b in f.layout() {
        for &uid in &f.block(b).insts {
            f.inst(uid).kind.for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    use_blocks[d.index()].push(b);
                }
            });
        }
    }

    let mut changed = true;
    while changed {
        changed = data_round(f, &mut tainted);
        for &b in f.layout() {
            let Some(t) = f.terminator(b) else { continue };
            let InstKind::CondBr {
                cond,
                if_true,
                if_false,
            } = f.inst(t).kind
            else {
                continue;
            };
            if if_true == if_false {
                continue;
            }
            let div_cond = match cond {
                Value::Inst(id) => tainted.contains(id),
                Value::Arg(_) | Value::Const(_) => false,
            };
            if !div_cond {
                continue;
            }
            // Join rule.
            for &j in f.layout() {
                if preds[j.index()].len() < 2 {
                    continue;
                }
                if reach[if_true.index()][j.index()] && reach[if_false.index()][j.index()] {
                    for &phi in f.phis(j) {
                        if tainted.insert(phi) {
                            changed = true;
                        }
                    }
                }
            }
            // Temporal rule, over every loop the branch sits in.
            let mut lp = innermost_containing(&forest, b);
            while let Some(lid) = lp {
                let l = forest.get(lid);
                let exits = !l.contains(if_true) || !l.contains(if_false);
                if exits {
                    for &lb in &l.blocks {
                        for &def in &f.block(lb).insts {
                            if tainted.contains(def) {
                                continue;
                            }
                            let escapes = use_blocks[def.index()].iter().any(|ub| !l.contains(*ub));
                            if escapes && tainted.insert(def) {
                                changed = true;
                            }
                        }
                    }
                }
                lp = l.parent;
            }
        }
    }
    tainted
}

/// The deepest loop containing `b` (the later ID on a tie), by a scan of
/// every loop.
fn innermost_containing(forest: &LoopForest, b: BlockId) -> Option<LoopId> {
    forest
        .loops()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains(b))
        .max_by_key(|(_, l)| l.depth)
        .map(|(i, _)| LoopId(i))
}

fn seeds(f: &Function) -> EntitySet<InstId> {
    let mut tainted = EntitySet::new();
    for (id, inst) in f.iter_insts() {
        if let InstKind::Intr { which, .. } = &inst.kind {
            if which.is_thread_id() {
                tainted.insert(id);
            }
        }
    }
    tainted
}

/// One round of the data rule; whether it tainted anything.
fn data_round(f: &Function, tainted: &mut EntitySet<InstId>) -> bool {
    let mut changed = false;
    for (id, inst) in f.iter_insts() {
        if tainted.contains(id) {
            continue;
        }
        if matches!(
            inst.kind,
            InstKind::Store { .. }
                | InstKind::Br { .. }
                | InstKind::CondBr { .. }
                | InstKind::Ret { .. }
        ) {
            continue;
        }
        let mut any = false;
        inst.kind.for_each_operand(|v| {
            if let Value::Inst(d) = v {
                if tainted.contains(*d) {
                    any = true;
                }
            }
        });
        if any && tainted.insert(id) {
            changed = true;
        }
    }
    changed
}

/// The first instruction slot on which the analyses under test disagree
/// with the references, as a message naming both verdicts.
pub fn first_mismatch(f: &Function) -> Option<String> {
    let (want_uni, want_div) = (uniformity(f), divergence(f));
    let uni = uu_analysis::Uniformity::compute(f);
    let div = uu_analysis::Divergence::compute(f);
    (0..f.num_inst_slots()).find_map(|i| {
        let id = InstId::from_index(i);
        let v = Value::Inst(id);
        let (u, d) = (uni.is_divergent(v), div.is_divergent(v));
        (u != want_uni.contains(id) || d != want_div.contains(id)).then(|| {
            format!(
                "{}: slot {i}: uniformity says divergent={u} (reference {}), \
                 divergence says {d} (reference {})",
                f.name(),
                want_uni.contains(id),
                want_div.contains(id)
            )
        })
    })
}
