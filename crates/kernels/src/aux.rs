//! Generator for auxiliary (cold) kernels.
//!
//! Real applications contain many more loops than their hot kernels:
//! XSBench's 210 loops are mostly initialization, I/O and host-side helpers.
//! The per-loop experiments of the paper sweep *all* of them, and the bulk
//! land at ≈1.0× speedup (Figure 8's diagonal mass) while still inflating
//! code size (Figure 6b counts whole binaries). These generated kernels
//! reproduce that loop population: they are part of each application's
//! module — so the pass transforms them and they contribute code size — but
//! the workload never launches them.
//!
//! Generation is deterministic in the seed, and the shapes rotate through
//! counted loops, branchy while-loops, and two-level nests, so the pass and
//! heuristic see a realistic variety.

use uu_ir::{Function, FunctionBuilder, ICmpPred, Param, Type, Value};

/// Deterministically generate functions containing exactly `loops` natural
/// loops in total. `seed` varies the shapes between applications.
pub fn aux_kernels(seed: u64, loops: usize) -> Vec<Function> {
    let mut out = Vec::new();
    let mut remaining = loops;
    let mut i = 0u64;
    while remaining > 0 {
        let shape = (seed.wrapping_mul(6364136223846793005).wrapping_add(i)) >> 33;
        let f = match shape % 3 {
            0 => counted_aux(seed, i),
            1 => branchy_aux(seed, i),
            _ if remaining >= 2 => {
                let f = nested_aux(seed, i);
                remaining -= 2;
                out.push(f);
                i += 1;
                continue;
            }
            _ => counted_aux(seed, i),
        };
        remaining -= 1;
        out.push(f);
        i += 1;
    }
    out
}

/// A small counted loop: `for (j = 0; j < K; j++) acc += a[j]`.
fn counted_aux(seed: u64, i: u64) -> Function {
    let bound = 4 + ((seed ^ i) % 13) as i64;
    let mut f = Function::new(
        format!("aux_counted_{i}"),
        vec![Param::new("a", Type::Ptr), Param::new("out", Type::Ptr)],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let h = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    b.br(h);
    b.switch_to(h);
    let j = b.phi(Type::I64);
    let acc = b.phi(Type::F64);
    b.add_phi_incoming(j, entry, Value::imm(0i64));
    b.add_phi_incoming(acc, entry, Value::imm(0.0f64));
    let c = b.icmp(ICmpPred::Slt, j, Value::imm(bound));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let pa = b.gep(Value::Arg(0), j, 8);
    let v = b.load(Type::F64, pa);
    let acc1 = b.fadd(acc, v);
    let j1 = b.add(j, Value::imm(1i64));
    b.add_phi_incoming(j, body, j1);
    b.add_phi_incoming(acc, body, acc1);
    b.br(h);
    b.switch_to(exit);
    b.store(Value::Arg(1), acc);
    b.ret(None);
    f
}

/// A while-loop with a data-dependent diamond in the body.
fn branchy_aux(seed: u64, i: u64) -> Function {
    let dec = 1 + ((seed ^ (i * 7)) % 3) as i64;
    let mut f = Function::new(
        format!("aux_branchy_{i}"),
        vec![
            Param::new("a", Type::Ptr),
            Param::new("n", Type::I64),
            Param::new("out", Type::Ptr),
        ],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let h = b.create_block();
    let t = b.create_block();
    let e = b.create_block();
    let m = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    b.br(h);
    b.switch_to(h);
    let n = b.phi(Type::I64);
    let acc = b.phi(Type::I64);
    b.add_phi_incoming(n, entry, Value::Arg(1));
    b.add_phi_incoming(acc, entry, Value::imm(0i64));
    let c = b.icmp(ICmpPred::Sgt, n, Value::imm(0i64));
    b.cond_br(c, t, exit);
    b.switch_to(t);
    let pa = b.gep(Value::Arg(0), n, 8);
    let v = b.load(Type::I64, pa);
    let odd = b.and(v, Value::imm(1i64));
    let isodd = b.icmp(ICmpPred::Ne, odd, Value::imm(0i64));
    b.cond_br(isodd, e, m);
    b.switch_to(e);
    let acc_t = b.add(acc, v);
    b.br(m);
    b.switch_to(m);
    let accm = b.phi(Type::I64);
    b.add_phi_incoming(accm, t, acc);
    b.add_phi_incoming(accm, e, acc_t);
    let n1 = b.sub(n, Value::imm(dec));
    b.add_phi_incoming(n, m, n1);
    b.add_phi_incoming(acc, m, accm);
    b.br(h);
    b.switch_to(exit);
    b.store(Value::Arg(2), acc);
    b.ret(None);
    f
}

/// A two-level nest (contributes 2 loops).
fn nested_aux(seed: u64, i: u64) -> Function {
    let inner = 2 + ((seed ^ (i * 13)) % 5) as i64;
    let mut f = Function::new(
        format!("aux_nested_{i}"),
        vec![
            Param::new("a", Type::Ptr),
            Param::new("n", Type::I64),
            Param::new("out", Type::Ptr),
        ],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let oh = b.create_block();
    let ih = b.create_block();
    let ibody = b.create_block();
    let olatch = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    b.br(oh);
    b.switch_to(oh);
    let x = b.phi(Type::I64);
    let acc = b.phi(Type::F64);
    b.add_phi_incoming(x, entry, Value::imm(0i64));
    b.add_phi_incoming(acc, entry, Value::imm(0.0f64));
    let co = b.icmp(ICmpPred::Slt, x, Value::Arg(1));
    b.cond_br(co, ih, exit);
    b.switch_to(ih);
    let y = b.phi(Type::I64);
    let iacc = b.phi(Type::F64);
    b.add_phi_incoming(y, oh, Value::imm(0i64));
    b.add_phi_incoming(iacc, oh, acc);
    let ci = b.icmp(ICmpPred::Slt, y, Value::imm(inner));
    b.cond_br(ci, ibody, olatch);
    b.switch_to(ibody);
    let idx = b.add(x, y);
    let pa = b.gep(Value::Arg(0), idx, 8);
    let v = b.load(Type::F64, pa);
    let iacc1 = b.fadd(iacc, v);
    let y1 = b.add(y, Value::imm(1i64));
    b.add_phi_incoming(y, ibody, y1);
    b.add_phi_incoming(iacc, ibody, iacc1);
    b.br(ih);
    b.switch_to(olatch);
    let x1 = b.add(x, Value::imm(1i64));
    b.add_phi_incoming(x, olatch, x1);
    b.add_phi_incoming(acc, olatch, iacc);
    b.br(oh);
    b.switch_to(exit);
    b.store(Value::Arg(2), acc);
    b.ret(None);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_loops(fs: &[Function]) -> usize {
        fs.iter()
            .map(|f| {
                let dom = uu_analysis::DomTree::compute(f);
                uu_analysis::LoopForest::compute(f, &dom).len()
            })
            .sum()
    }

    #[test]
    fn generates_exact_loop_counts() {
        for want in [1usize, 2, 5, 10, 45, 209] {
            let fs = aux_kernels(7, want);
            assert_eq!(total_loops(&fs), want, "want {want}");
            for f in &fs {
                uu_ir::verify_function(f).unwrap_or_else(|e| panic!("{e}\n{f}"));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = aux_kernels(3, 12);
        let b = aux_kernels(3, 12);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_string(), y.to_string());
        }
        // Different seed, different mix (very likely different shapes).
        let c = aux_kernels(4, 12);
        let render = |fs: &[Function]| fs.iter().map(|f| f.to_string()).collect::<String>();
        assert_ne!(render(&a), render(&c));
    }

    #[test]
    fn aux_kernels_are_transformable() {
        use uu_core::{uu_loop, UnmergeOptions};
        for f in &mut aux_kernels(5, 6) {
            let dom = uu_analysis::DomTree::compute(f);
            let forest = uu_analysis::LoopForest::compute(f, &dom);
            let headers: Vec<_> = forest.loops().iter().map(|l| l.header).collect();
            for h in headers {
                uu_loop(f, h, 2, UnmergeOptions::default());
            }
            uu_ir::verify_function(f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        }
    }
}
