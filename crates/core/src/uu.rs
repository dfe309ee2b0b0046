//! The combined *unroll & unmerge* transformation (paper §III-A3).
//!
//! u&u first unrolls the loop, then unmerges the whole unrolled body, so
//! that every control-flow path through `factor` consecutive iterations
//! becomes a separate, straight-line chain of blocks — giving subsequent
//! optimizations the full provenance of every condition evaluated along the
//! way (Figure 4 / Figure 5 of the paper).
//!
//! Loop-nest policy (paper §III-C): when applied to an outer loop, inner
//! loops are *unmerged but never unrolled*; they are duplicated wholesale
//! when they sit on an unmerged path.

use crate::unmerge::{unmerge_loop, UnmergeOptions, UnmergeStats};
use crate::unroll::unroll_loop;
use uu_analysis::{convergence, DomTree, LoopForest, LoopId};
use uu_ir::{BlockId, Function, LoopPragma};

/// What one u&u application did.
#[derive(Debug, Clone, Copy, Default)]
pub struct UuOutcome {
    /// Whether the loop was transformed at all.
    pub applied: bool,
    /// Whether unrolling succeeded (false for factor 1 or canonicalization
    /// failure).
    pub unrolled: bool,
    /// Aggregate unmerge statistics (outer + inner loops).
    pub unmerge: UnmergeStats,
}

/// Apply u&u to the loop headed at `header`: unroll by `factor` (`1`
/// means unmerge-only, the paper's *unmerge* configuration), then unmerge
/// with `unmerge`.
///
/// Returns a default (non-applied) outcome when the loop does not exist,
/// contains convergent operations, or cannot be canonicalized. On success
/// the header is tagged [`LoopPragma::NoUnroll`] so the baseline unroller
/// leaves the transformed loop alone — reproducing the paper's observed
/// interaction on *coordinates* (including our pass inhibits LLVM's own
/// unrolling of the loop).
pub fn uu_loop(
    f: &mut Function,
    header: BlockId,
    factor: u32,
    unmerge: UnmergeOptions,
) -> UuOutcome {
    uu_loop_with(f, header, factor, unmerge, unmerge_loop)
}

/// The signature of [`unmerge_loop`].
pub(crate) type UnmergeFn =
    fn(&mut Function, &LoopForest, BlockId, &[BlockId], UnmergeOptions) -> UnmergeStats;

/// [`uu_loop`] with the unmerge transform passed in (the parameter shadows
/// [`unmerge_loop`]), so that a reference implementation can run on the
/// same input.
pub(crate) fn uu_loop_with(
    f: &mut Function,
    header: BlockId,
    factor: u32,
    unmerge: UnmergeOptions,
    unmerge_loop: UnmergeFn,
) -> UuOutcome {
    let mut outcome = UuOutcome::default();
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    let Some(lid) = find_loop(&forest, header) else {
        return outcome;
    };
    if convergence::loop_has_convergent(f, &forest, lid) {
        return outcome;
    }

    // 1. Unmerge descendants innermost-first.
    let mut inner_headers: Vec<(BlockId, u32)> = forest
        .loops()
        .iter()
        .enumerate()
        .filter(|&(i, _)| LoopId(i) != lid && is_descendant(&forest, LoopId(i), lid))
        .map(|(_, l)| (l.header, l.depth))
        .collect();
    // Deepest first.
    inner_headers.sort_by_key(|(_, d)| std::cmp::Reverse(*d));
    for (ih, _) in inner_headers {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let Some(ilid) = find_loop(&forest, ih) else {
            continue;
        };
        if convergence::loop_has_convergent(f, &forest, ilid) {
            continue;
        }
        let il = forest.get(ilid);
        let st = unmerge_loop(f, &forest, il.header, &il.blocks, unmerge);
        merge_stats(&mut outcome.unmerge, st);
    }

    // 2. Unroll the target loop.
    if factor >= 2 {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        if let Some(lid) = find_loop(&forest, header) {
            let l = forest.get(lid);
            outcome.unrolled = unroll_loop(f, l.header, &l.blocks, &l.latches, factor).is_some();
        }
    }

    // 3. Unmerge the (possibly unrolled) target loop body.
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    if let Some(lid) = find_loop(&forest, header) {
        let l = forest.get(lid);
        let st = unmerge_loop(f, &forest, l.header, &l.blocks, unmerge);
        merge_stats(&mut outcome.unmerge, st);
    }

    outcome.applied = outcome.unrolled || outcome.unmerge.nodes_duplicated > 0;
    if outcome.applied {
        f.set_loop_pragma(header, LoopPragma::NoUnroll);
    }
    outcome
}

fn merge_stats(acc: &mut UnmergeStats, s: UnmergeStats) {
    acc.nodes_duplicated += s.nodes_duplicated;
    acc.blocks_cloned += s.blocks_cloned;
    acc.hit_limit |= s.hit_limit;
}

fn find_loop(forest: &LoopForest, header: BlockId) -> Option<LoopId> {
    forest
        .loops()
        .iter()
        .position(|l| l.header == header)
        .map(LoopId)
}

/// Whether `candidate` (a parent pointer) transitively reaches `ancestor`.
fn is_descendant(forest: &LoopForest, mut candidate: LoopId, ancestor: LoopId) -> bool {
    while candidate.0 != usize::MAX && candidate.0 < forest.len() {
        if candidate == ancestor {
            return true;
        }
        candidate = forest
            .get(candidate)
            .parent
            .unwrap_or(LoopId(usize::MAX));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unmerge::UnmergeMode;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    /// The bezier-style loop: two sequential triangles in the body.
    fn bezier_like() -> (uu_ir::Function, BlockId) {
        let mut f = uu_ir::Function::new(
            "bz",
            vec![Param::new("n", Type::I64), Param::new("k0", Type::I64)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let t1 = b.create_block();
        let m1 = b.create_block();
        let t2 = b.create_block();
        let m2 = b.create_block(); // latch
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let nn = b.phi(Type::I64);
        let kn = b.phi(Type::I64);
        b.add_phi_incoming(nn, entry, Value::Arg(0));
        b.add_phi_incoming(kn, entry, Value::Arg(1));
        let c0 = b.icmp(ICmpPred::Sge, nn, Value::imm(1i64));
        b.cond_br(c0, t1, exit);
        b.switch_to(t1);
        let c1 = b.icmp(ICmpPred::Sgt, kn, Value::imm(1i64));
        b.cond_br(c1, t2, m1);
        b.switch_to(t2);
        let kn1 = b.sub(kn, Value::imm(1i64));
        b.br(m1);
        b.switch_to(m1);
        let knm = b.phi(Type::I64);
        b.add_phi_incoming(knm, t1, kn);
        b.add_phi_incoming(knm, t2, kn1);
        b.br(m2);
        b.switch_to(m2);
        let nn1 = b.sub(nn, Value::imm(1i64));
        b.add_phi_incoming(nn, m2, nn1);
        b.add_phi_incoming(kn, m2, knm);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(kn));
        (f, h)
    }

    #[test]
    fn uu_factor2_applies_and_verifies() {
        let (mut f, h) = bezier_like();
        uu_ir::verify_function(&f).unwrap();
        let before = f.num_blocks();
        let out = uu_loop(&mut f, h, 2, UnmergeOptions::default());
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert!(out.applied);
        assert!(out.unrolled);
        assert!(out.unmerge.nodes_duplicated > 0);
        assert!(f.num_blocks() > before);
        // The header is tagged so the baseline unroller skips it.
        assert_eq!(f.loop_pragma(h), Some(uu_ir::LoopPragma::NoUnroll));
    }

    #[test]
    fn factor1_is_unmerge_only() {
        let (mut f, h) = bezier_like();
        let out = uu_loop(&mut f, h, 1, UnmergeOptions::default());
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert!(out.applied);
        assert!(!out.unrolled);
        assert!(out.unmerge.nodes_duplicated > 0);
    }

    #[test]
    fn whole_path_removes_all_body_merges() {
        let (mut f, h) = bezier_like();
        uu_loop(
            &mut f,
            h,
            2,
            UnmergeOptions {
                mode: UnmergeMode::WholePath,
                ..Default::default()
            },
        );
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let l = forest
            .loops()
            .iter()
            .find(|l| l.header == h)
            .expect("loop survives");
        let preds = f.predecessors();
        for &b in &l.blocks {
            if b == h {
                continue;
            }
            assert!(
                preds[b.index()].len() <= 1,
                "merge block {b} survived u&u:\n{f}"
            );
        }
    }

    #[test]
    fn convergent_loop_is_skipped() {
        let mut f = uu_ir::Function::new("cv", vec![Param::new("n", Type::I64)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.syncthreads();
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        let out = uu_loop(&mut f, h, 2, UnmergeOptions::default());
        assert!(!out.applied);
        assert_eq!(f.loop_pragma(h), None);
    }

    /// Nested loops: the inner loop is unmerged but never unrolled.
    #[test]
    fn nest_policy_unmerges_inner_without_unrolling() {
        let mut f = uu_ir::Function::new(
            "nest",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::Void,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let oh = b.create_block();
        let ih = b.create_block();
        let it = b.create_block();
        let im = b.create_block(); // inner merge (latch of inner)
        let ol = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(oh);
        b.switch_to(oh);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let ci = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(ci, ih, exit);
        b.switch_to(ih);
        let j = b.phi(Type::I64);
        b.add_phi_incoming(j, oh, Value::imm(0i64));
        let cj = b.icmp(ICmpPred::Slt, j, Value::Arg(0));
        b.cond_br(cj, it, ol);
        b.switch_to(it);
        b.cond_br(Value::Arg(1), im, im);
        b.switch_to(im);
        let j1 = b.add(j, Value::imm(1i64));
        b.add_phi_incoming(j, im, j1);
        b.br(ih);
        b.switch_to(ol);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, ol, i1);
        b.br(oh);
        b.switch_to(exit);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();
        let out = uu_loop(&mut f, oh, 2, UnmergeOptions::default());
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert!(out.applied);
        // The outer loop was unrolled: it now has two inner-loop headers
        // (the original + the copy), i.e. two nested loops in the forest.
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let inner_count = forest.loops().iter().filter(|l| l.depth == 2).count();
        assert_eq!(inner_count, 2, "{f}");
    }
}
