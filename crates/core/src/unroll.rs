//! Loop unrolling (paper §III-A2).
//!
//! The transform is "while-style": each of the `u` body copies keeps its own
//! exit check, so it is correct for *any* loop — counted or not — exactly
//! like the unrolling that u&u performs (the paper's loops are mostly
//! non-counted `while` loops). Unrolling proceeds as the paper describes:
//! (1) copy the loop blocks, (2) rewire the back edge of copy *k* to the
//! header of copy *k+1*, (3) rewire the last copy's back edge to the
//! original header.
//!
//! Full unrolling of counted loops (used by the baseline `-O3` pipeline) is
//! obtained by unrolling `trip_count + 1` times and letting SCCP prove the
//! remaining back edge dead; see `baseline_unroll`.

use crate::clone::{add_phi_incomings_for_clone, clone_region, resolve_trivial_phis_in, CloneMap};
use crate::loopsimplify::{canonicalize_loop, CanonicalLoop};
use std::collections::HashSet;
use uu_ir::{BlockId, Function, InstKind, Value};

/// Outcome of a successful unroll.
#[derive(Debug)]
pub struct UnrollResult {
    /// The canonicalized loop that was unrolled (original copy).
    pub canonical: CanonicalLoop,
    /// Clone maps for copies `1..factor` (copy 0 is the original).
    pub copies: Vec<CloneMap>,
    /// All blocks of the unrolled loop (original + copies).
    pub all_blocks: Vec<BlockId>,
    /// The latch of the last copy (carries the remaining back edge).
    pub final_latch: BlockId,
}

/// Unroll the loop with the given header by `factor` (≥ 2).
///
/// Returns `None` without mutating anything observable when:
/// * `factor < 2`,
/// * the loop cannot be canonicalized (see
///   [`canonicalize_loop`] for the bail conditions).
///
/// [`canonicalize_loop`]: crate::loopsimplify::canonicalize_loop
///
/// The caller provides the loop membership (`blocks`, `latches`) from a
/// fresh [`uu_analysis::LoopForest`].
pub fn unroll_loop(
    f: &mut Function,
    header: BlockId,
    blocks: &[BlockId],
    latches: &[BlockId],
    factor: u32,
) -> Option<UnrollResult> {
    if factor < 2 {
        return None;
    }
    let cl = canonicalize_loop(f, header, blocks, latches)?;
    Some(unroll_canonical(f, cl, factor))
}

/// Unroll an already-canonical loop. Infallible.
pub fn unroll_canonical(f: &mut Function, cl: CanonicalLoop, factor: u32) -> UnrollResult {
    let u = factor as usize;
    let latch = cl.latch;
    let header = cl.header;

    // Record the original header phis' latch incomings before mutation.
    let header_phis = f.phis(header).to_vec();
    let latch_incoming: Vec<Value> = header_phis
        .iter()
        .map(|&p| match &f.inst(p).kind {
            InstKind::Phi { incomings } => incomings
                .iter()
                .find(|(b, _)| *b == latch)
                .map(|(_, v)| *v)
                .expect("canonical loop header phi has a latch incoming"),
            _ => unreachable!(),
        })
        .collect();

    // Clone copies 1..u.
    let mut copies: Vec<CloneMap> = Vec::with_capacity(u - 1);
    for _ in 1..u {
        copies.push(clone_region(f, &cl.blocks));
    }

    // In-loop predecessors of each exit (for phi patching).
    let loop_set: HashSet<BlockId> = cl.blocks.iter().copied().collect();
    let preds = f.predecessors();
    let exit_inside_preds: Vec<(BlockId, Vec<BlockId>)> = cl
        .exits
        .iter()
        .map(|&x| {
            (
                x,
                preds[x.index()]
                    .iter()
                    .copied()
                    .filter(|p| loop_set.contains(p))
                    .collect(),
            )
        })
        .collect();

    // Patch exit phis: each copy's exiting blocks become new predecessors.
    for map in &copies {
        for (x, inside) in &exit_inside_preds {
            for &p in inside {
                add_phi_incomings_for_clone(f, *x, p, map);
            }
        }
    }

    // Rewire copy k's header phis to take values from copy k-1's latch.
    // map_value of copy 0 is the identity.
    let map_block = |copies: &[CloneMap], k: usize, b: BlockId| -> BlockId {
        if k == 0 {
            b
        } else {
            copies[k - 1].map_block(b)
        }
    };
    let map_value = |copies: &[CloneMap], k: usize, v: Value| -> Value {
        if k == 0 {
            v
        } else {
            copies[k - 1].map_value(v)
        }
    };
    for k in 1..u {
        let hk = map_block(&copies, k, header);
        let phis_k = f.phis(hk).to_vec();
        for (pi, &phi) in phis_k.iter().enumerate() {
            let prev_latch = map_block(&copies, k - 1, latch);
            let prev_value = map_value(&copies, k - 1, latch_incoming[pi]);
            if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                incomings.clear();
                incomings.push((prev_latch, prev_value));
            }
        }
        // Resolution is deferred (see below): a latch incoming may itself be
        // a header phi (e.g. `acc_next = i`), so copy k's phi can reference
        // copy k-1's phi — resolving eagerly would leave later copies
        // pointing at already-unlinked instructions.
    }

    // Original header phis: the in-loop value now arrives from the LAST
    // copy's latch.
    for (pi, &phi) in header_phis.iter().enumerate() {
        let last_latch = map_block(&copies, u - 1, latch);
        let last_value = map_value(&copies, u - 1, latch_incoming[pi]);
        if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            for (b, v) in incomings.iter_mut() {
                if *b == latch {
                    *b = last_latch;
                    *v = last_value;
                }
            }
        }
    }

    // Rewire back edges: latch_k -> header_{k+1}, last latch -> header.
    for k in 0..u {
        let lk = map_block(&copies, k, latch);
        let target_header = if k + 1 < u {
            map_block(&copies, k + 1, header)
        } else {
            header
        };
        let current_header = map_block(&copies, k, header);
        let t = f.terminator(lk).expect("latch has a terminator");
        f.inst_mut(t).kind.replace_block(current_header, target_header);
    }

    // Now resolve the copies' single-incoming header phis, in copy order so
    // that chains through other header phis substitute transitively.
    let copy_headers: Vec<BlockId> = (1..u).map(|k| map_block(&copies, k, header)).collect();
    resolve_trivial_phis_in(f, &copy_headers);

    // Collect all blocks.
    let mut all_blocks: Vec<BlockId> = cl.blocks.clone();
    for map in &copies {
        all_blocks.extend(map.cloned_blocks());
    }
    all_blocks.sort();
    let final_latch = map_block(&copies, u - 1, latch);
    UnrollResult {
        canonical: cl,
        copies,
        all_blocks,
        final_latch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_analysis::{DomTree, LoopForest, LoopId};
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type};

    /// sum = 0; i = 0; while (i < n) { sum += i; i += 1 } return sum
    fn sum_loop() -> uu_ir::Function {
        let mut f = uu_ir::Function::new("sum", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        let s = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        b.add_phi_incoming(s, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let s1 = b.add(s, i);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.add_phi_incoming(s, body, s1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(s));
        f
    }

    fn unroll_by(f: &mut uu_ir::Function, factor: u32) -> UnrollResult {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let l = forest.get(LoopId(0)).clone();
        unroll_loop(f, l.header, &l.blocks, &l.latches, factor).expect("unrollable")
    }

    #[test]
    fn unroll_by_two_verifies() {
        let mut f = sum_loop();
        let r = unroll_by(&mut f, 2);
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert_eq!(r.copies.len(), 1);
        // Loop now spans twice the blocks (header + body per copy).
        assert_eq!(r.all_blocks.len(), 4);
    }

    #[test]
    fn unroll_preserves_loop_structure() {
        let mut f = sum_loop();
        let r = unroll_by(&mut f, 4);
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        // Still exactly one natural loop, headed at the original header.
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest.loops()[0].header, r.canonical.header);
        assert_eq!(forest.loops()[0].latches, vec![r.final_latch]);
        // The unrolled loop contains all copies.
        assert_eq!(forest.loops()[0].blocks.len(), r.all_blocks.len());
    }

    /// Regression: when one header phi's latch incoming is *another* header
    /// phi (`acc_next = i`), copy k's resolved phi must not end up pointing
    /// at copy k-1's already-unlinked phi.
    #[test]
    fn cross_phi_latch_incomings_unroll_correctly() {
        // i, acc phis; acc's latch incoming is the i phi itself.
        let mut f = uu_ir::Function::new("x", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        let acc = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        b.add_phi_incoming(acc, entry, Value::imm(-7i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.add_phi_incoming(acc, body, i); // acc_next = i (a header phi!)
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(acc));
        uu_ir::verify_function(&f).unwrap();
        let r = unroll_by(&mut f, 4);
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert_eq!(r.copies.len(), 3);
    }

    #[test]
    fn factor_one_is_rejected() {
        let mut f = sum_loop();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let l = forest.get(LoopId(0)).clone();
        assert!(unroll_loop(&mut f, l.header, &l.blocks, &l.latches, 1).is_none());
    }

    #[test]
    fn each_copy_keeps_its_exit_check() {
        let mut f = sum_loop();
        let r = unroll_by(&mut f, 3);
        uu_ir::verify_function(&f).unwrap();
        // The dedicated exit has one phi with three incomings (one per
        // header copy).
        let exit = r.canonical.exits[0];
        let phis = f.phis(exit);
        assert_eq!(phis.len(), 1);
        match &f.inst(phis[0]).kind {
            InstKind::Phi { incomings } => assert_eq!(incomings.len(), 3),
            _ => unreachable!(),
        }
    }
}
