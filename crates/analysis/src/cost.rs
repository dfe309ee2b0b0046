//! TTI-style cost model: code size, what the unrolling heuristics bound
//! (`f(p,s,u) < c`), mirroring LLVM's `TargetTransformInfo`. Latency is the
//! SIMT simulator's timing model, not this one.

use crate::loops::{LoopForest, LoopId};
use uu_ir::{Function, InstId, InstKind, Intrinsic};

/// Code-size cost of one instruction, in abstract units (roughly: lowered
/// machine instructions). Phis are free (they lower to moves in predecessors
/// which are usually coalesced); everything else costs 1, except big math
/// intrinsics which expand to short sequences.
pub fn inst_size(f: &Function, id: InstId) -> u64 {
    match &f.inst(id).kind {
        InstKind::Phi { .. } => 0,
        InstKind::Intr { which, .. } => match which {
            Intrinsic::Exp | Intrinsic::Log | Intrinsic::Sin | Intrinsic::Cos => 4,
            Intrinsic::Sqrt => 2,
            _ => 1,
        },
        _ => 1,
    }
}

/// Code-size cost of a whole block.
pub fn block_size(f: &Function, b: uu_ir::BlockId) -> u64 {
    f.block(b).insts.iter().map(|i| inst_size(f, *i)).sum()
}

/// Code-size cost of a loop (all blocks, header included) — the `s` of the
/// heuristic's `f(p, s, u)`.
pub fn loop_size(f: &Function, forest: &LoopForest, id: LoopId) -> u64 {
    forest
        .get(id)
        .blocks
        .iter()
        .map(|b| block_size(f, *b))
        .sum()
}

/// Code-size cost of a whole function (linked blocks only).
pub fn function_size(f: &Function) -> u64 {
    f.layout().iter().map(|b| block_size(f, *b)).sum()
}

/// Code-size cost of a whole module — the basis for the paper's Figure 6b
/// "binary size" comparisons (we compare lowered instruction counts since we
/// have no machine backend).
pub fn module_size(m: &uu_ir::Module) -> u64 {
    m.iter().map(|(_, f)| function_size(f)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomTree;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    #[test]
    fn sizes_and_latencies() {
        let mut f = uu_ir::Function::new("k", vec![Param::new("p", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let x = b.load(Type::F64, Value::Arg(0));
        let y = b.fdiv(x, Value::imm(2.0f64));
        let z = b.intr(Intrinsic::Sqrt, vec![y], Type::F64);
        b.store(Value::Arg(0), z);
        b.ret(None);
        // load, fdiv, sqrt(2), store, ret = 1+1+2+1+1 = 6
        assert_eq!(function_size(&f), 6);
    }

    #[test]
    fn phis_are_free_in_size() {
        let mut f = uu_ir::Function::new("k", vec![Param::new("n", Type::I64)], Type::Void);
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
        b.ret(None);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        // header: phi(0) + icmp + condbr = 2; body: add + br = 2
        assert_eq!(loop_size(&f, &forest, LoopId(0)), 4);
        let mut m = uu_ir::Module::new("m");
        let fsize = function_size(&f);
        m.add_function(f);
        assert_eq!(module_size(&m), fsize);
    }

    use crate::loops::LoopId;
}
