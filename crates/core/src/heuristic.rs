//! The u&u profitability heuristic (paper §III-C).
//!
//! For each loop, estimate the post-transform size with
//! `f(p, s, u) = Σ_{i=0}^{u-1} p^i · s` (paths `p`, size `s`, factor `u`)
//! and transform with the **largest** `u ≤` [`U_MAX`] satisfying
//! `f(p, s, u) < c`, unmerging with the default [`UnmergeOptions`]. Nests
//! are visited innermost first; an outer loop is only transformed when no
//! loop nested inside it was. Loops with explicit unroll pragmas or
//! convergent operations are skipped. The optional
//! *divergence guard* (the paper's proposed future work, §V) additionally
//! skips loops with thread-dependent branches.

use crate::unmerge::UnmergeOptions;
use crate::uu::uu_loop;
use uu_analysis::{
    convergence, cost, count_loop_paths, loop_has_divergent_branch, uu_size_estimate, Divergence,
    DomTree, LoopForest, LoopId,
};
use uu_ir::{BlockId, Function};

/// The largest unroll factor the heuristic considers, the paper's
/// `u_max = 8`.
pub const U_MAX: u32 = 8;

/// Heuristic parameters. The paper's evaluation uses `c = 1024`.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicOptions {
    /// Upper bound on the estimated post-transform loop size.
    pub c: u64,
    /// Skip loops whose branches depend on the thread id (§V extension).
    pub divergence_guard: bool,
}

impl Default for HeuristicOptions {
    fn default() -> Self {
        HeuristicOptions {
            c: 1024,
            divergence_guard: false,
        }
    }
}

/// Why the heuristic accepted or declined a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Transformed with the given factor.
    Applied(u32),
    /// Estimated size exceeded `c` even at factor 2.
    TooLarge,
    /// Contains a convergent operation.
    Convergent,
    /// User pragma forbids touching the loop.
    Pragma,
    /// Divergence guard fired.
    Divergent,
    /// A nested loop was already transformed.
    InnerTransformed,
}

/// Per-loop record of the heuristic's reasoning.
#[derive(Debug, Clone)]
pub struct LoopDecision {
    /// Header of the inspected loop.
    pub header: BlockId,
    /// Estimated path count `p`.
    pub paths: u64,
    /// Estimated size `s`.
    pub size: u64,
    /// Outcome.
    pub decision: Decision,
}

/// Run the heuristic over every loop of `f`, applying u&u where profitable.
/// Returns the per-loop decisions in visit (innermost-first) order.
pub fn run_heuristic(f: &mut Function, opts: &HeuristicOptions) -> Vec<LoopDecision> {
    let mut decisions: Vec<LoopDecision> = Vec::new();
    let mut visited: Vec<BlockId> = Vec::new();
    let mut transformed: Vec<BlockId> = Vec::new();
    loop {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let div = if opts.divergence_guard {
            Some(Divergence::compute(f))
        } else {
            None
        };
        // Pick the next unvisited loop, innermost first.
        let next = forest
            .innermost_first()
            .into_iter()
            .find(|id| !visited.contains(&forest.get(*id).header));
        let Some(id) = next else { break };
        let l = forest.get(id).clone();
        visited.push(l.header);

        let paths = count_loop_paths(f, &forest, id);
        let size = cost::loop_size(f, &forest, id);
        let record = |d: Decision| LoopDecision {
            header: l.header,
            paths,
            size,
            decision: d,
        };

        if has_transformed_descendant(&forest, id, &transformed) {
            decisions.push(record(Decision::InnerTransformed));
            continue;
        }
        if f.loop_pragma(l.header).is_some() {
            decisions.push(record(Decision::Pragma));
            continue;
        }
        if convergence::loop_has_convergent(f, &forest, id) {
            decisions.push(record(Decision::Convergent));
            continue;
        }
        if let Some(div) = &div {
            if loop_has_divergent_branch(f, &forest, id, div) {
                decisions.push(record(Decision::Divergent));
                continue;
            }
        }
        // Largest factor u in [2, U_MAX] with f(p, s, u) < c.
        let factor = (2..=U_MAX)
            .rev()
            .find(|&u| uu_size_estimate(paths, size, u) < opts.c);
        match factor {
            None => decisions.push(record(Decision::TooLarge)),
            Some(u) => {
                let out = uu_loop(f, l.header, u, UnmergeOptions::default());
                if out.applied {
                    transformed.push(l.header);
                    decisions.push(record(Decision::Applied(u)));
                } else {
                    decisions.push(record(Decision::TooLarge));
                }
            }
        }
    }
    decisions
}

fn has_transformed_descendant(
    forest: &LoopForest,
    id: LoopId,
    transformed: &[BlockId],
) -> bool {
    forest.loops().iter().enumerate().any(|(i, l)| {
        if LoopId(i) == id || !transformed.contains(&l.header) {
            return false;
        }
        // Is loop i nested (transitively) inside `id`?
        let mut cur = l.parent;
        while let Some(p) = cur {
            if p == id {
                return true;
            }
            cur = forest.get(p).parent;
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    /// Small branchy loop (2 paths, tiny size): heuristic should take the
    /// max factor 8.
    fn small_branchy() -> (uu_ir::Function, BlockId) {
        let mut f = uu_ir::Function::new(
            "sb",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let t = b.create_block();
        let m = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, t, exit);
        b.switch_to(t);
        b.cond_br(Value::Arg(1), m, m);
        b.switch_to(m);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, m, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        (f, h)
    }

    #[test]
    fn picks_largest_feasible_factor() {
        let (mut f, h) = small_branchy();
        let ds = run_heuristic(&mut f, &HeuristicOptions::default());
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].header, h);
        assert_eq!(ds[0].paths, 2);
        // p=2, s≈6: f(2,6,8) = 6*(2^8-1) = 1530 ≥ 1024; f at 7 = 762 < 1024.
        assert_eq!(ds[0].decision, Decision::Applied(7), "{ds:?}");
    }

    #[test]
    fn declines_oversized_loops() {
        let (mut f, _h) = small_branchy();
        let ds = run_heuristic(
            &mut f,
            &HeuristicOptions {
                c: 10, // absurdly tight budget
                ..Default::default()
            },
        );
        assert_eq!(ds[0].decision, Decision::TooLarge);
    }

    #[test]
    fn respects_pragma() {
        let (mut f, h) = small_branchy();
        f.set_loop_pragma(h, uu_ir::LoopPragma::Unroll(4));
        let ds = run_heuristic(&mut f, &HeuristicOptions::default());
        assert_eq!(ds[0].decision, Decision::Pragma);
    }

    #[test]
    fn divergence_guard_skips_tid_loops() {
        // Branch condition derived from the thread id.
        let mut f = uu_ir::Function::new("dv", vec![Param::new("n", Type::I64)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let t = b.create_block();
        let m = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        let gid = b.global_thread_id();
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, gid);
        let c = b.icmp(ICmpPred::Sgt, i, Value::imm(0i64));
        b.cond_br(c, t, exit);
        b.switch_to(t);
        let bit = b.and(i, Value::imm(1i64));
        let odd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.cond_br(odd, m, m);
        b.switch_to(m);
        let i1 = b.ashr(i, Value::imm(1i64));
        b.add_phi_incoming(i, m, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();
        let guarded = run_heuristic(
            &mut f.clone(),
            &HeuristicOptions {
                divergence_guard: true,
                ..Default::default()
            },
        );
        assert_eq!(guarded[0].decision, Decision::Divergent);
        let unguarded = run_heuristic(&mut f, &HeuristicOptions::default());
        assert!(matches!(unguarded[0].decision, Decision::Applied(_)));
    }

    #[test]
    fn outer_skipped_when_inner_transformed() {
        // Nest where the inner loop is accepted: outer must be declined
        // with InnerTransformed.
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
        let im = b.create_block();
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
        let ds = run_heuristic(&mut f, &HeuristicOptions::default());
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert_eq!(ds.len(), 2);
        assert!(matches!(ds[0].decision, Decision::Applied(_)), "{ds:?}");
        assert_eq!(ds[1].decision, Decision::InnerTransformed, "{ds:?}");
    }
}
