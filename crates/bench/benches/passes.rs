//! Micro-benchmarks of the individual compiler passes, on a standard
//! branchy loop at several unroll factors and on the sweep's largest body
//! (`uu8` on `complex_pow`: the transform runs into the 2 048-block cap).
//! Useful for tracking the compile-time behaviour the paper's Figure 6c
//! aggregates, and for catching a structural pass whose cost grows with
//! rewrites × function size — the small subject hides that, the large one
//! does not. `decode/xsbench-uu8` times the simulator's per-kernel
//! analyses and lowering on a `uu8` kernel. The `codec/*` rows time the IR
//! text codec — the print, hash and parse every daemon round trip and disk
//! artifact pays — on the largest module the sweep ships. The `pipeline/*`
//! rows time whole compiles, where what the pass manager itself does (or
//! skips) shows.

use uu_check::bench::Harness;
use uu_core::opt::{
    condprop::CondProp, dce::Dce, gvn::Gvn, ifconvert::IfConvert, instsimplify::InstSimplify,
    sccp::Sccp, simplifycfg::SimplifyCfg, Pass,
};
use uu_core::{compile, uu_loop, LoopFilter, PipelineOptions, Transform, UuOptions};
use uu_ir::{BlockId, Function, FunctionBuilder, ICmpPred, Module, Param, Type, Value};

/// The standard subject: a loop with a two-condition body (4 paths).
fn subject() -> Function {
    let mut f = Function::new(
        "subject",
        vec![
            Param::new("n", Type::I64),
            Param::new("k", Type::I64),
            Param::new("out", Type::Ptr),
        ],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let h = b.create_block();
    let body = b.create_block();
    let t1 = b.create_block();
    let m1 = b.create_block();
    let t2 = b.create_block();
    let latch = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    b.br(h);
    b.switch_to(h);
    let i = b.phi(Type::I64);
    let kv = b.phi(Type::I64);
    let acc = b.phi(Type::I64);
    b.add_phi_incoming(i, entry, Value::imm(0i64));
    b.add_phi_incoming(kv, entry, Value::Arg(1));
    b.add_phi_incoming(acc, entry, Value::imm(0i64));
    let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let acc1 = b.add(acc, i);
    let c1 = b.icmp(ICmpPred::Sgt, kv, Value::imm(1i64));
    b.cond_br(c1, t1, m1);
    b.switch_to(t1);
    let kv1 = b.sub(kv, Value::imm(1i64));
    b.br(m1);
    b.switch_to(m1);
    let kvm = b.phi(Type::I64);
    b.add_phi_incoming(kvm, body, kv);
    b.add_phi_incoming(kvm, t1, kv1);
    let c2 = b.icmp(ICmpPred::Sgt, acc1, Value::imm(100i64));
    b.cond_br(c2, t2, latch);
    b.switch_to(t2);
    b.br(latch);
    b.switch_to(latch);
    let accm = b.phi(Type::I64);
    b.add_phi_incoming(accm, m1, acc1);
    b.add_phi_incoming(accm, t2, Value::imm(100i64));
    let i1 = b.add(i, Value::imm(1i64));
    b.add_phi_incoming(i, latch, i1);
    b.add_phi_incoming(kv, latch, kvm);
    b.add_phi_incoming(acc, latch, accm);
    b.br(h);
    b.switch_to(exit);
    b.store(Value::Arg(2), acc);
    b.ret(None);
    f
}

fn uu(mut f: Function, header: BlockId, factor: u32) -> Function {
    uu_loop(
        &mut f,
        header,
        &UuOptions {
            factor,
            ..Default::default()
        },
    );
    f
}

fn transformed(factor: u32) -> Function {
    let f = subject();
    let h = f.layout()[1];
    uu(f, h, factor)
}

/// The module of one of the paper's applications.
fn app(name: &str) -> Module {
    let bench = uu_kernels::all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap_or_else(|| panic!("{name} is not one of the paper's applications"));
    (bench.build)()
}

/// `transform` on loop 0 of `func`, one application's hot loop.
fn hot_loop(func: &str, transform: Transform) -> PipelineOptions {
    PipelineOptions {
        transform,
        filter: LoopFilter::Only {
            func: func.into(),
            loop_id: 0,
        },
        ..Default::default()
    }
}

/// `uu8` on XSBench's hot loop — the sweep's largest module, one function
/// transformed.
fn xsbench_uu8() -> PipelineOptions {
    hot_loop("xs_lookup", Transform::Uu {
        factor: 8,
        unmerge: Default::default(),
    })
}

/// The `complex` application's hot kernel and the header of its one loop.
fn complex_pow() -> (Function, BlockId) {
    let m = app("complex");
    let f = m
        .iter()
        .map(|(_, f)| f)
        .find(|f| f.name() == "complex_pow")
        .expect("complex has a complex_pow kernel")
        .clone();
    let dom = uu_analysis::DomTree::compute(&f);
    let header = uu_analysis::LoopForest::compute(&f, &dom).loops()[0].header;
    (f, header)
}

fn bench_transform(h: &mut Harness) {
    for factor in [2u32, 4, 8] {
        h.bench(&format!("transform/uu/{factor}"), || transformed(factor));
    }
    let (pow, header) = complex_pow();
    h.bench_batched(
        "transform/uu/complex_pow8",
        || pow.clone(),
        |f| uu(f, header, 8),
    );
}

fn bench_cleanup_passes(h: &mut Harness) {
    let (pow, header) = complex_pow();
    let subjects = [
        ("2", transformed(2)),
        ("8", transformed(8)),
        ("complex_pow8", uu(pow, header, 8)),
    ];
    for (label, base) in subjects {
        macro_rules! p {
            ($name:literal, $pass:expr) => {
                h.bench_batched(
                    &format!(concat!("pass/", $name, "/{}"), label),
                    || base.clone(),
                    |mut f| {
                        let mut pass = $pass;
                        pass.run(&mut f);
                        f
                    },
                );
            };
        }
        p!("simplifycfg", SimplifyCfg::default());
        p!("instsimplify", InstSimplify);
        p!("sccp", Sccp);
        p!("gvn", Gvn);
        p!("condprop", CondProp);
        p!("dce", Dce);
        p!("ifconvert", IfConvert);
    }
}

fn bench_analyses(h: &mut Harness) {
    let f = transformed(8);
    h.bench("analysis/domtree", || uu_analysis::DomTree::compute(&f));
    let dom = uu_analysis::DomTree::compute(&f);
    h.bench("analysis/loops", || {
        uu_analysis::LoopForest::compute(&f, &dom)
    });
    h.bench("analysis/divergence", || {
        uu_analysis::Divergence::compute(&f)
    });
    h.bench("analysis/uniformity", || {
        uu_analysis::Uniformity::compute(&f)
    });
}

/// A decode-cache miss on one of the sweep's largest kernels, XSBench's
/// `xs_lookup` after `uu8`: the post-dominator tree, the uniformity
/// analysis and the lowering every first launch of a kernel pays.
fn bench_decode(h: &mut Harness) {
    let mut m = app("XSBench");
    compile(&mut m, &xsbench_uu8());
    let f = m
        .iter()
        .map(|(_, f)| f)
        .find(|f| f.name() == "xs_lookup")
        .expect("XSBench has an xs_lookup kernel");
    let args = vec![uu_ir::Constant::I64(0); f.params().len()];
    h.bench("decode/xsbench-uu8", || {
        let pdom = uu_analysis::PostDomTree::compute(f);
        let uni = uu_analysis::Uniformity::compute(f);
        uu_simt::DecodedKernel::decode(f, &pdom, &uni, &args)
    });
}

/// Print, hash and parse XSBench's module (106 functions, 55 530 bytes of
/// text). A unit is a byte, so the throughput column reads MB/s.
/// `codec/parse-optimized` parses the same module after `uu8` on its hot
/// loop — gapped ids and removed blocks, the text daemon replies and disk
/// artifacts hold.
fn bench_codec(h: &mut Harness) {
    let m = app("XSBench");
    let text = m.to_string();
    let bytes = text.len() as u64;
    h.bench_batched_units("codec/print", bytes, || (), |()| m.to_string());
    h.bench_batched_units("codec/hash", bytes, || (), |()| uu_ir::module_hash(&m));
    h.bench_batched_units("codec/parse", bytes, || (), |()| uu_ir::parse_module(&text));
    let mut optimized = m.clone();
    compile(&mut optimized, &xsbench_uu8());
    let text = optimized.to_string();
    h.bench_batched_units(
        "codec/parse-optimized",
        text.len() as u64,
        || (),
        |()| uu_ir::parse_module(&text),
    );
}

/// Whole compiles with the function memo cleared before each, so every
/// function runs through the guarded pass manager: XSBench under `uu8` on
/// `xs_lookup` (106 functions), quicksort's baseline (7), and the two
/// largest functions `uu8` leaves for cleanup — mandelbrot's hot loop, and
/// bezier-surface's under `uu8+meld`, where meld scans every block.
fn bench_pipeline(h: &mut Harness) {
    let uu8 = Transform::Uu {
        factor: 8,
        unmerge: Default::default(),
    };
    let uu8_meld = Transform::UuMeld {
        factor: 8,
        unmerge: Default::default(),
    };
    for (name, m, opts) in [
        ("pipeline/xsbench-uu8", app("XSBench"), xsbench_uu8()),
        ("pipeline/mandelbrot-uu8", app("mandelbrot"), hot_loop("mandel_escape", uu8)),
        (
            "pipeline/bezier-uu8+meld",
            app("bezier-surface"),
            hot_loop("bezier_blend", uu8_meld),
        ),
        ("pipeline/quicksort-baseline", app("quicksort"), PipelineOptions::default()),
    ] {
        h.bench_batched(
            name,
            || {
                uu_core::compile_memo_clear();
                m.clone()
            },
            |mut m| {
                compile(&mut m, &opts);
                m
            },
        );
    }
}

fn main() {
    let mut h = Harness::new("passes");
    bench_transform(&mut h);
    bench_cleanup_passes(&mut h);
    bench_analyses(&mut h);
    bench_decode(&mut h);
    bench_codec(&mut h);
    bench_pipeline(&mut h);
    h.finish();
}
