//! Convergence analysis.
//!
//! Convergent operations (`__syncthreads`) must not be made control-dependent
//! on additional conditions, so the u&u pass refuses to transform any loop
//! containing one (paper §III-C). This module answers that query.

use crate::loops::{LoopForest, LoopId};
use uu_ir::{BlockId, Function};

/// Whether basic block `b` contains a convergent instruction.
pub fn block_has_convergent(f: &Function, b: BlockId) -> bool {
    f.block(b)
        .insts
        .iter()
        .any(|i| f.inst(*i).kind.is_convergent())
}

/// Whether any block of loop `id` contains a convergent instruction.
pub fn loop_has_convergent(f: &Function, forest: &LoopForest, id: LoopId) -> bool {
    forest
        .get(id)
        .blocks
        .iter()
        .any(|b| block_has_convergent(f, *b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomTree;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    fn loop_fn(with_sync: bool) -> uu_ir::Function {
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
        if with_sync {
            b.syncthreads();
        }
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        f
    }

    #[test]
    fn detects_syncthreads_in_loop() {
        let f = loop_fn(true);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(loop_has_convergent(&f, &forest, crate::LoopId(0)));
    }

    #[test]
    fn clean_loop_is_not_convergent() {
        let f = loop_fn(false);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(!loop_has_convergent(&f, &forest, crate::LoopId(0)));
    }
}
