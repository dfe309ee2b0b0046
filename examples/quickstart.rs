//! Quickstart: build a loop, apply unroll & unmerge, and watch the
//! downstream optimizer exploit the duplicated control flow.
//!
//! ```text
//! cargo run --release -p uu-harness --example quickstart
//! ```

use uu_core::{uu_loop, UnmergeOptions};
use uu_ir::{Function, FunctionBuilder, ICmpPred, Param, Type, Value};
use uu_simt::{Gpu, KernelArg, LaunchConfig};

/// The paper's motivating shape: a loop whose body branches on a *monotone*
/// flag — once it goes false it stays false, but only path duplication lets
/// the compiler prove that.
fn build_kernel() -> Function {
    let mut f = Function::new(
        "quickstart",
        vec![
            Param::new("flags", Type::Ptr),
            Param::new("out", Type::Ptr),
            Param::new("n", Type::I64),
        ],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let header = b.create_block();
    let body = b.create_block();
    let hot = b.create_block();
    let latch = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    let gid = b.global_thread_id();
    let pf = b.gep(Value::Arg(0), gid, 8);
    let flag0 = b.load(Type::I64, pf);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64);
    let flag = b.phi(Type::I64);
    let acc = b.phi(Type::F64);
    b.add_phi_incoming(i, entry, Value::imm(0i64));
    b.add_phi_incoming(flag, entry, flag0);
    b.add_phi_incoming(acc, entry, Value::imm(0.0f64));
    let c = b.icmp(ICmpPred::Slt, i, Value::Arg(2));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let acc1 = b.fadd(acc, Value::imm(1.0f64));
    let hotc = b.icmp(ICmpPred::Sgt, flag, Value::imm(0i64));
    b.cond_br(hotc, hot, latch);
    b.switch_to(hot);
    let expensive = b.fdiv(acc1, Value::imm(3.0f64));
    let acc_h = b.fadd(acc1, expensive);
    let flag_h = b.sub(flag, Value::imm(1i64));
    b.br(latch);
    b.switch_to(latch);
    let accm = b.phi(Type::F64);
    let flagm = b.phi(Type::I64);
    b.add_phi_incoming(accm, body, acc1);
    b.add_phi_incoming(accm, hot, acc_h);
    b.add_phi_incoming(flagm, body, flag);
    b.add_phi_incoming(flagm, hot, flag_h);
    let i1 = b.add(i, Value::imm(1i64));
    b.add_phi_incoming(i, latch, i1);
    b.add_phi_incoming(flag, latch, flagm);
    b.add_phi_incoming(acc, latch, accm);
    b.br(header);
    b.switch_to(exit);
    let po = b.gep(Value::Arg(1), gid, 8);
    b.store(po, acc);
    b.ret(None);
    f
}

fn run(f: &uu_ir::Function) -> (Vec<f64>, u64, f64) {
    let mut gpu = Gpu::new();
    let flags = vec![0i64; 32];
    let bf = gpu.mem.alloc_i64(&flags).unwrap();
    let bo = gpu.mem.alloc_f64(&vec![0.0; 32]).unwrap();
    let rep = gpu
        .launch(
            f,
            LaunchConfig::new(1, 32),
            &[KernelArg::Buffer(bf), KernelArg::Buffer(bo), KernelArg::I64(24)],
        )
        .unwrap();
    (gpu.mem.read_f64(bo).unwrap(), rep.metrics.thread_insts(), rep.time_ms)
}

fn main() {
    let original = build_kernel();
    uu_ir::verify_function(&original).unwrap();

    println!("=== original IR ===\n{original}");

    // The transformation, standalone.
    let mut transformed = original.clone();
    let header = transformed.layout()[1];
    let outcome = uu_loop(&mut transformed, header, 2, UnmergeOptions::default());
    println!(
        "u&u applied: unrolled={}, merge nodes duplicated={}, blocks cloned={}",
        outcome.unrolled, outcome.unmerge.nodes_duplicated, outcome.unmerge.blocks_cloned
    );
    uu_ir::verify_function(&transformed).unwrap();

    // The full pipelines: baseline -O3 vs -O3 with u&u in front.
    let mut m_base = uu_ir::Module::new("quickstart");
    let base_id = m_base.add_function(original.clone());
    uu_core::compile(&mut m_base, &uu_core::PipelineOptions::default());

    let mut m_uu = uu_ir::Module::new("quickstart");
    let uu_id = m_uu.add_function(original);
    uu_core::compile(
        &mut m_uu,
        &uu_core::PipelineOptions {
            transform: uu_core::Transform::Uu {
                factor: 2,
                unmerge: Default::default(),
            },
            ..Default::default()
        },
    );

    println!("\n=== after baseline -O3 (predicated) ===\n{}", m_base.function(base_id));
    println!("=== after u&u + -O3 (path specialized) ===\n{}", m_uu.function(uu_id));

    let (out_b, insts_b, t_b) = run(m_base.function(base_id));
    let (out_u, insts_u, t_u) = run(m_uu.function(uu_id));
    assert_eq!(out_b, out_u, "semantics must be preserved");
    println!("baseline: {insts_b} thread-insts, {t_b:.6} ms");
    println!("u&u:      {insts_u} thread-insts, {t_u:.6} ms");
    println!("speedup:  {:.3}x", t_b / t_u);
}
