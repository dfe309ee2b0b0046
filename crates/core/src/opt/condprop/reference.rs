//! condprop as it was before its phi-incoming index, kept as the reference
//! the pass must match bit for bit (arena included); see
//! `opt::rewrite_equivalence`.

use super::{propagate, Subtree};
use uu_analysis::{AnalysisCache, DomTree};
use uu_ir::{BlockId, EntitySet, Function, InstKind, Value};

/// The pass with every fact rewriting the phis of its region's successors
/// by scanning all their incomings.
pub(crate) fn run(f: &mut Function) -> bool {
    propagate(f, &mut AnalysisCache::new(), replace_dominated_uses)
}

/// Replace uses of `from` with `to` at every use site dominated by `region`.
/// For phi operands the use site is the incoming predecessor block.
///
/// The dominator subtree of `region` and its CFG successors are scanned,
/// every instruction copied and every phi incoming compared: quadratic on
/// unmerged bodies, whose merges take one incoming per path.
fn replace_dominated_uses(
    f: &mut Function,
    dom: &DomTree,
    from: Value,
    to: Value,
    region: BlockId,
) -> bool {
    let dominated = Subtree::default().of(dom, region).to_vec();
    let dom_set: EntitySet<BlockId> = dominated.iter().copied().collect();
    // Phi-bearing successors of dominated blocks (the phi itself may live
    // outside the subtree).
    let mut scan: Vec<BlockId> = dominated.clone();
    for &b in &dominated {
        for s in f.successors(b) {
            if !dom_set.contains(s) && !scan.contains(&s) {
                scan.push(s);
            }
        }
    }
    let mut changed = false;
    for ub in scan {
        let inside = dom_set.contains(ub);
        for u in f.block(ub).insts.clone() {
            let mut kind = f.inst(u).kind.clone();
            let mut touched = false;
            if let InstKind::Phi { incomings } = &mut kind {
                for (p, v) in incomings {
                    if *v == from && dom_set.contains(*p) {
                        *v = to;
                        touched = true;
                    }
                }
            } else if inside {
                kind.for_each_operand_mut(|v| {
                    if *v == from {
                        *v = to;
                        touched = true;
                    }
                });
            }
            if touched {
                f.inst_mut(u).kind = kind;
                changed = true;
            }
        }
    }
    changed
}
