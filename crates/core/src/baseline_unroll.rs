//! The baseline compiler's own loop unrolling (LLVM `-O3` stand-in).
//!
//! The paper's baseline is plain `-O3`, which *also* unrolls loops when
//! profitable (§IV-B): small counted loops are fully unrolled, and small
//! innermost loops get runtime unrolling. Two observed interactions in the
//! paper depend on this pass existing:
//!
//! * *coordinates*: the baseline fully unrolls the hot loop; adding the u&u
//!   pass tags the loop and inhibits that unrolling — which happened to be
//!   faster.
//! * *ccs*: u&u on its many small loops suppresses the baseline's
//!   *beneficial* runtime unrolling, causing the heuristic's slowdown.
//!
//! Full unrolling of a counted loop with trip count `tc` is implemented as a
//! while-style unroll by `tc + 1`: the `+1` copy's exit condition folds to
//! false under SCCP, which then proves the remaining back edge dead and
//! collapses every induction value to a constant — the loop evaporates.

use crate::runtime_unroll::runtime_unroll;
use crate::unroll::unroll_loop;
use uu_analysis::{convergence, cost, trip_count, DomTree, LoopForest, LoopId};
use uu_ir::{Function, LoopPragma};

/// Profitability thresholds, loosely modelled on LLVM defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineUnrollOptions {
    /// Fully unroll counted loops with `trip_count <= full_max_trip`.
    pub full_max_trip: u64,
    /// ... as long as `trip_count * body_size <= full_size_budget`.
    pub full_size_budget: u64,
    /// Runtime-unroll factor for small innermost loops.
    pub runtime_factor: u32,
    /// Max body size eligible for runtime unrolling.
    pub runtime_max_size: u64,
}

impl Default for BaselineUnrollOptions {
    fn default() -> Self {
        BaselineUnrollOptions {
            full_max_trip: 32,
            full_size_budget: 1024,
            runtime_factor: 4,
            runtime_max_size: 24,
        }
    }
}

/// What the baseline unroller did to a function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineUnrollStats {
    /// Loops fully unrolled.
    pub full: usize,
    /// Loops runtime-unrolled.
    pub runtime: usize,
    /// Loops unrolled due to a user `#pragma unroll N`.
    pub pragma: usize,
}

/// Run baseline unrolling over every eligible loop of `f`.
///
/// Loops tagged [`LoopPragma::NoUnroll`] (user pragma or set by a previous
/// u&u application) are skipped; [`LoopPragma::Unroll`] is honoured.
pub fn baseline_unroll(f: &mut Function, opts: &BaselineUnrollOptions) -> BaselineUnrollStats {
    let mut stats = BaselineUnrollStats::default();
    // Each application invalidates the forest; iterate until no candidate.
    loop {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let mut candidate: Option<(LoopId, u32, Which)> = None;
        for id in forest.innermost_first() {
            let l = forest.get(id);
            match f.loop_pragma(l.header) {
                Some(LoopPragma::NoUnroll) => continue,
                Some(LoopPragma::Unroll(n)) => {
                    if n >= 2 {
                        candidate = Some((id, n, Which::Pragma));
                        break;
                    }
                    continue;
                }
                None => {}
            }
            if convergence::loop_has_convergent(f, &forest, id) {
                continue;
            }
            let size = cost::loop_size(f, &forest, id);
            if let Some(cl) = trip_count(f, &forest, id) {
                if cl.trip_count >= 1
                    && cl.trip_count <= opts.full_max_trip
                    && cl.trip_count.saturating_mul(size) <= opts.full_size_budget
                {
                    candidate = Some((id, cl.trip_count as u32 + 1, Which::Full));
                    break;
                }
            }
            if l.is_innermost()
                && size <= opts.runtime_max_size
                && uu_analysis::count_loop_paths(f, &forest, id) == 1
            {
                candidate = Some((id, opts.runtime_factor, Which::Runtime));
                break;
            }
        }
        let Some((id, factor, which)) = candidate else {
            break;
        };
        let l = forest.get(id).clone();
        // Tag first so a failed canonicalization does not loop forever.
        f.set_loop_pragma(l.header, LoopPragma::NoUnroll);
        match which {
            Which::Runtime => {
                // Real runtime unrolling: checkless main loop + epilogue.
                if runtime_unroll(f, l.header, &l.blocks, &l.latches, factor) {
                    stats.runtime += 1;
                }
            }
            Which::Full => {
                if unroll_loop(f, l.header, &l.blocks, &l.latches, factor).is_some() {
                    stats.full += 1;
                }
            }
            Which::Pragma => {
                if unroll_loop(f, l.header, &l.blocks, &l.latches, factor).is_some() {
                    stats.pragma += 1;
                }
            }
        }
    }
    stats
}

#[derive(Debug, Clone, Copy)]
enum Which {
    Full,
    Runtime,
    Pragma,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::run_cleanup;
    use uu_ir::{FunctionBuilder, ICmpPred, InstKind, Param, Type, Value};

    /// for (i = 0; i < 4; i++) acc += i  — summed into memory at the end.
    fn counted4() -> uu_ir::Function {
        let mut f = uu_ir::Function::new("c4", vec![Param::new("p", Type::Ptr)], Type::Void);
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
        b.add_phi_incoming(acc, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::imm(4i64));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let acc1 = b.add(acc, i);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.add_phi_incoming(acc, body, acc1);
        b.br(h);
        b.switch_to(exit);
        b.store(Value::Arg(0), acc);
        b.ret(None);
        f
    }

    #[test]
    fn fully_unrolls_and_folds_counted_loop() {
        let mut f = counted4();
        let stats = baseline_unroll(&mut f, &BaselineUnrollOptions::default());
        assert_eq!(stats.full, 1);
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        run_cleanup(&mut f, 8);
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        // The loop is gone: no back edges remain and the stored value is
        // the constant 0+1+2+3 = 6.
        let dom = uu_analysis::DomTree::compute(&f);
        let forest = uu_analysis::LoopForest::compute(&f, &dom);
        assert!(forest.is_empty(), "loop should fold away:\n{f}");
        let store = f
            .iter_insts()
            .find(|(_, i)| i.kind.writes_memory())
            .map(|(id, _)| id)
            .unwrap();
        match &f.inst(store).kind {
            InstKind::Store { value, .. } => {
                assert_eq!(value.as_const().unwrap().as_i64(), Some(6), "{f}")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn skips_nounroll_tagged_loops() {
        let mut f = counted4();
        let h = uu_ir::BlockId::from_index(1);
        f.set_loop_pragma(h, LoopPragma::NoUnroll);
        let stats = baseline_unroll(&mut f, &BaselineUnrollOptions::default());
        assert_eq!(stats, BaselineUnrollStats::default());
    }

    #[test]
    fn honours_user_pragma_unroll() {
        let mut f = counted4();
        let h = uu_ir::BlockId::from_index(1);
        f.set_loop_pragma(h, LoopPragma::Unroll(2));
        let stats = baseline_unroll(&mut f, &BaselineUnrollOptions::default());
        assert_eq!(stats.pragma, 1);
        assert_eq!(stats.full, 0);
        uu_ir::verify_function(&f).unwrap();
    }

    #[test]
    fn runtime_unrolls_small_straightline_innermost() {
        // Non-counted loop (bound is an argument): runtime unroll by 4.
        let mut f = uu_ir::Function::new("rt", vec![Param::new("n", Type::I64)], Type::I64);
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
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        let before = f.num_blocks();
        let stats = baseline_unroll(&mut f, &BaselineUnrollOptions::default());
        assert_eq!(stats.runtime, 1);
        assert!(f.num_blocks() > before);
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
    }

    #[test]
    fn branchy_loops_are_not_runtime_unrolled() {
        // Two paths in the body → no runtime unroll (matches LLVM's
        // reluctance to runtime-unroll branchy bodies).
        let mut f = uu_ir::Function::new(
            "br",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::Void,
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
        b.ret(None);
        let stats = baseline_unroll(&mut f, &BaselineUnrollOptions::default());
        assert_eq!(stats.runtime, 0);
    }
}
