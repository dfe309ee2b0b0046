//! Decoded-vs-reference engine differential tests.
//!
//! The decoded warp engine (`uu_simt::DecodedKernel`) must be
//! observationally identical to the reference interpreter (`uu_simt::Warp`)
//! — same outputs, same metrics, same simulated time — on the seed corpus
//! and on all 16 paper kernels, at any `uu-par` worker count. A separate
//! oracle mode (`ExecEngine::ReferenceVerifyUniform`) asserts the
//! scalarization precondition: every value `uu_analysis::Uniformity` calls
//! warp-uniform holds the same constant in all active lanes.

use uu_check::corpus::load_corpus;
use uu_check::{build_kernel, execute_on, KernelSpec};
use uu_kernels::all_benchmarks;
use uu_simt::{ExecEngine, Gpu, GpuParams};

/// Engine-tagged payload of one execution of a prepared kernel function,
/// formatted for exact (bitwise, via Debug) comparison.
fn run_fn(f: &uu_ir::Function, spec: &KernelSpec, engine: ExecEngine) -> String {
    match execute_on(f, spec, engine) {
        Ok((out, metrics, time_ms)) => {
            format!("ok out={out:?} metrics={metrics:?} time={:016x}", time_ms.to_bits())
        }
        Err(e) => format!("err {e}"),
    }
}

/// Engine-tagged payload of one corpus execution of the raw (untransformed)
/// kernel.
fn run_spec(spec: &KernelSpec, engine: ExecEngine) -> String {
    run_fn(&build_kernel(spec), spec, engine)
}

#[test]
fn decoded_matches_reference_on_corpus() {
    let corpus = load_corpus();
    assert!(!corpus.is_empty(), "seed corpus must exist");
    for jobs in [1usize, 4] {
        let reference = uu_par::par_map(jobs, &corpus, |_, (_, spec)| {
            run_spec(spec, ExecEngine::Reference)
        });
        let decoded = uu_par::par_map(jobs, &corpus, |_, (_, spec)| {
            run_spec(spec, ExecEngine::Decoded)
        });
        for (((name, _), r), d) in corpus.iter().zip(&reference).zip(&decoded) {
            assert_eq!(r, d, "engines disagree on corpus spec {name} (jobs={jobs})");
        }
    }
}

#[test]
fn decoded_is_deterministic_across_job_counts() {
    let corpus = load_corpus();
    let j1 = uu_par::par_map(1, &corpus, |_, (_, spec)| {
        run_spec(spec, ExecEngine::Decoded)
    });
    let j4 = uu_par::par_map(4, &corpus, |_, (_, spec)| {
        run_spec(spec, ExecEngine::Decoded)
    });
    assert_eq!(j1, j4, "decoded engine must not depend on worker count");
}

/// Run one already-built (possibly compiled) module of a suite benchmark
/// under `engine` and flatten everything the launch reports into an
/// exactly-comparable string.
fn run_module(b: &uu_kernels::Benchmark, m: &uu_ir::Module, engine: ExecEngine) -> String {
    let mut params = GpuParams::default();
    params.engine = engine;
    let mut gpu = Gpu::with_params(params);
    match (b.run)(m, &mut gpu) {
        Ok(out) => format!(
            "ok time={:016x} checksum={:016x} transfer={} metrics={:?}",
            out.kernel_time_ms.to_bits(),
            out.checksum.to_bits(),
            out.transfer_bytes,
            out.metrics,
        ),
        Err(e) => format!("err {e}"),
    }
}

/// Run one suite benchmark under `engine` without any transform.
fn run_benchmark(b: &uu_kernels::Benchmark, engine: ExecEngine) -> String {
    run_module(b, &(b.build)(), engine)
}

#[test]
fn decoded_matches_reference_on_all_16_kernels() {
    let benches = all_benchmarks();
    assert_eq!(benches.len(), 16);
    for jobs in [1usize, 4] {
        let reference = uu_par::par_map(jobs, &benches, |_, b| {
            run_benchmark(b, ExecEngine::Reference)
        });
        let decoded = uu_par::par_map(jobs, &benches, |_, b| {
            run_benchmark(b, ExecEngine::Decoded)
        });
        for ((b, r), d) in benches.iter().zip(&reference).zip(&decoded) {
            assert!(r.starts_with("ok "), "{}: reference failed: {r}", b.info.name);
            assert_eq!(r, d, "engines disagree on {} (jobs={jobs})", b.info.name);
        }
    }
}

#[test]
fn uniform_values_identical_across_lanes_on_corpus() {
    // ReferenceVerifyUniform panics inside the interpreter if any
    // analysis-uniform value ever differs between active lanes.
    for (name, spec) in load_corpus() {
        let got = run_spec(&spec, ExecEngine::ReferenceVerifyUniform);
        let want = run_spec(&spec, ExecEngine::Reference);
        assert_eq!(got, want, "verify-uniform changed behaviour on {name}");
    }
}

#[test]
fn uniform_values_identical_across_lanes_on_kernel_suite() {
    for b in all_benchmarks() {
        let got = run_benchmark(&b, ExecEngine::ReferenceVerifyUniform);
        assert!(
            got.starts_with("ok "),
            "{}: verify-uniform run failed: {got}",
            b.info.name
        );
    }
}

/// The two compilation configs that involve control-flow melding, paired
/// with their harness labels.
fn meld_transforms() -> Vec<(&'static str, uu_core::Transform)> {
    vec![
        ("meld", uu_core::Transform::Meld),
        (
            "uu2+meld",
            uu_core::Transform::UuMeld {
                factor: 2,
                unmerge: Default::default(),
            },
        ),
    ]
}

#[test]
fn decoded_matches_reference_on_melded_corpus() {
    // Melded kernels exercise `Select` chains and predicated stores the raw
    // corpus never produces; both engines (and the uniformity verifier)
    // must still agree exactly.
    let corpus = load_corpus();
    assert!(!corpus.is_empty(), "seed corpus must exist");
    for (label, t) in meld_transforms() {
        for (name, spec) in &corpus {
            let mut m = uu_ir::Module::new("diff");
            let id = m.add_function(build_kernel(spec));
            let out = uu_core::compile(
                &mut m,
                &uu_core::PipelineOptions {
                    transform: t.clone(),
                    filter: uu_core::LoopFilter::All,
                    ..Default::default()
                },
            );
            assert!(
                out.verify_error.is_none(),
                "{label} broke corpus spec {name}: {:?}",
                out.verify_error
            );
            let f = m.function(id);
            let reference = run_fn(f, spec, ExecEngine::Reference);
            assert_eq!(
                reference,
                run_fn(f, spec, ExecEngine::Decoded),
                "engines disagree on corpus spec {name} under {label}"
            );
            assert_eq!(
                reference,
                run_fn(f, spec, ExecEngine::ReferenceVerifyUniform),
                "verify-uniform changed behaviour on corpus spec {name} under {label}"
            );
        }
    }
}

#[test]
fn decoded_matches_reference_on_melded_kernel_suite() {
    // All 16 paper kernels compiled under both meld configs, executed on
    // every engine. Compilation happens once per (kernel, config); the
    // compiled module is shared across engines so any disagreement is the
    // engine's fault, not compile nondeterminism.
    let benches = all_benchmarks();
    assert_eq!(benches.len(), 16);
    for (label, t) in meld_transforms() {
        let results = uu_par::par_map(uu_par::parse_jobs(None).unwrap(), &benches, |_, b| {
            let mut m = (b.build)();
            uu_core::compile(
                &mut m,
                &uu_core::PipelineOptions {
                    transform: t.clone(),
                    ..Default::default()
                },
            );
            let reference = run_module(b, &m, ExecEngine::Reference);
            let decoded = run_module(b, &m, ExecEngine::Decoded);
            let verified = run_module(b, &m, ExecEngine::ReferenceVerifyUniform);
            (reference, decoded, verified)
        });
        for (b, (reference, decoded, verified)) in benches.iter().zip(&results) {
            assert!(
                reference.starts_with("ok "),
                "{} under {label}: reference failed: {reference}",
                b.info.name
            );
            assert_eq!(
                reference, decoded,
                "engines disagree on {} under {label}",
                b.info.name
            );
            assert_eq!(
                reference, verified,
                "verify-uniform changed behaviour on {} under {label}",
                b.info.name
            );
        }
    }
}

#[test]
fn uniform_values_identical_across_lanes_on_random_programs() {
    // Beyond the checked-in corpus: freshly generated spec kernels. The
    // decoded engine must also agree with the reference on every one.
    uu_check::check(
        "uniform_values_identical_across_lanes_on_random_programs",
        &uu_check::Config::from_env(48),
        |spec: &KernelSpec| {
            let want = run_spec(spec, ExecEngine::Reference);
            let verified = run_spec(spec, ExecEngine::ReferenceVerifyUniform);
            if verified != want {
                return Err(format!("verify-uniform diverged: {verified} vs {want}"));
            }
            let decoded = run_spec(spec, ExecEngine::Decoded);
            if decoded != want {
                return Err(format!("decoded diverged: {decoded} vs {want}"));
            }
            Ok(())
        },
    );
}

/// A small divergent kernel for the decode-cache tests: a guarded
/// per-lane loop (`out[gid] = n + sum(0..gid mod 7)` for `gid < n`)
/// exercising phis, divergence, and uniform/varying operands.
fn cache_probe_kernel() -> uu_ir::Function {
    use uu_ir::{CastOp, FunctionBuilder, ICmpPred, Param, Type, Value};
    let mut f = uu_ir::Function::new(
        "cacheprobe",
        vec![Param::new("out", Type::Ptr), Param::new("n", Type::I64)],
        Type::Void,
    );
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f);
    let header = b.create_block();
    let body = b.create_block();
    let done = b.create_block();
    let exit = b.create_block();
    b.switch_to(entry);
    let gid = b.global_thread_id();
    let gid64 = b.cast(CastOp::Sext, gid, Type::I64);
    let inb = b.icmp(ICmpPred::Slt, gid64, Value::Arg(1));
    b.cond_br(inb, header, exit);
    b.switch_to(header);
    let i = b.phi(Type::I64);
    let acc = b.phi(Type::I64);
    b.add_phi_incoming(i, entry, Value::imm(0i64));
    b.add_phi_incoming(acc, entry, Value::imm(0i64));
    let lim = b.bin(uu_ir::BinOp::SRem, gid64, Value::imm(7i64));
    let c = b.icmp(ICmpPred::Slt, i, lim);
    b.cond_br(c, body, done);
    b.switch_to(body);
    let acc1 = b.add(acc, i);
    let i1 = b.add(i, Value::imm(1i64));
    b.add_phi_incoming(i, body, i1);
    b.add_phi_incoming(acc, body, acc1);
    b.br(header);
    b.switch_to(done);
    let total = b.add(acc, Value::Arg(1));
    let p = b.gep(Value::Arg(0), gid64, 8);
    b.store(p, total);
    b.br(exit);
    b.switch_to(exit);
    b.ret(None);
    uu_ir::verify_function(&f).unwrap();
    f
}

/// Launch `f` on a fresh GPU and flatten report + outputs for exact
/// comparison.
fn launch_probe(f: &uu_ir::Function, grid: u32, block: u32, n: i64) -> String {
    use uu_simt::{KernelArg, LaunchConfig};
    let mut gpu = Gpu::new();
    let threads = (grid as usize) * (block as usize);
    let out = gpu.mem.alloc_i64(&vec![0i64; threads.max(1)]).unwrap();
    let report = gpu
        .launch(
            f,
            LaunchConfig::new(grid, block),
            &[KernelArg::Buffer(out), KernelArg::I64(n)],
        )
        .unwrap();
    format!(
        "out={:?} metrics={:?} time={:016x}",
        gpu.mem.read_i64(out).unwrap(),
        report.metrics,
        report.time_ms.to_bits()
    )
}

#[test]
fn decode_cache_is_observationally_identical_across_geometries() {
    // The same kernel launched across differing grid/block dims and
    // workloads: the first launch decodes, every subsequent launch of the
    // same (function, baked constants) pair hits the thread's cache. Each
    // cached launch must be Debug-identical to a launch made with a cold
    // cache (fresh decode).
    let f = cache_probe_kernel();
    let geometries = [(1u32, 32u32), (2, 64), (4, 48), (1, 16), (3, 32)];
    let workloads = [0i64, 7, 31, 96, 200];
    uu_simt::decode_cache_clear();
    let mut cached = Vec::new();
    for &(g, b) in &geometries {
        for &n in &workloads {
            cached.push(launch_probe(&f, g, b, n));
        }
    }
    let (hits, misses) = uu_simt::decode_cache_stats();
    // One miss per distinct baked-in workload constant; geometry is not
    // part of the key, so all geometry variations hit.
    assert_eq!(misses, workloads.len() as u64, "one decode per workload");
    assert_eq!(
        hits,
        (geometries.len() as u64 - 1) * workloads.len() as u64,
        "every relaunch reuses the cached decode"
    );
    let mut fresh = Vec::new();
    for &(g, b) in &geometries {
        for &n in &workloads {
            uu_simt::decode_cache_clear();
            fresh.push(launch_probe(&f, g, b, n));
        }
    }
    assert_eq!(cached, fresh, "cached decode must equal a fresh decode");
    uu_simt::decode_cache_clear();
}

#[test]
fn decode_cache_reuses_across_corpus_relaunches() {
    // Corpus kernels relaunched with identical specs must produce
    // identical reports whether the decode came from the cache or not.
    let corpus = load_corpus();
    assert!(!corpus.is_empty(), "seed corpus must exist");
    for (name, spec) in corpus.iter().take(16) {
        uu_simt::decode_cache_clear();
        let cold = run_spec(spec, ExecEngine::Decoded);
        let warm = run_spec(spec, ExecEngine::Decoded);
        let (hits, _) = uu_simt::decode_cache_stats();
        assert!(hits >= 1, "{name}: relaunch should hit the decode cache");
        assert_eq!(cold, warm, "{name}: cached relaunch changed behaviour");
    }
    uu_simt::decode_cache_clear();
}

/// A trap in a warp-uniform instruction — which the decoded engine
/// evaluates for one lane through its staging row, not per lane — reports
/// the reference interpreter's error: an operand whose (scalar) register was
/// never written (read by an `add` or as a `gep` index), a select whose
/// condition is not an `i1`, and a `gep` whose base is not an integer.
#[test]
fn uniform_instruction_traps_match_the_reference() {
    use uu_ir::{Function, FunctionBuilder, Param, Type, Value};
    use uu_simt::{ExecError, KernelArg, LaunchConfig};
    let params = || vec![Param::new("out", Type::Ptr), Param::new("n", Type::I64)];

    // `%x` is linked (so it owns a scalar register) but never executed;
    // `use_x` builds the instruction that reads it.
    let undefined = |name: &str, use_x: &dyn Fn(&mut FunctionBuilder, Value) -> Value| {
        let mut f = Function::new(name, params(), Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let dead = b.create_block();
        let tail = b.create_block();
        b.switch_to(entry);
        b.br(tail);
        b.switch_to(dead);
        let x = b.add(Value::Arg(1), Value::imm(1i64));
        b.br(tail);
        b.switch_to(tail);
        let u = use_x(&mut b, x);
        b.store(Value::Arg(0), u);
        b.ret(None);
        (f, x)
    };
    let (undefined_operand, x) = undefined("undefined_operand", &|b, x| b.add(x, Value::imm(2i64)));
    let (undefined_index, gx) =
        undefined("undefined_gep_index", &|b, x| b.gep(Value::Arg(0), x, 8));

    let single = |name: &str, emit: &dyn Fn(&mut FunctionBuilder) -> Value| {
        let mut f = Function::new(name, params(), Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let v = emit(&mut b);
        b.store(Value::Arg(0), v);
        b.ret(None);
        (f, v)
    };
    let (mistyped, s) = single("mistyped_select", &|b| {
        b.select(Value::Arg(1), Value::imm(1i64), Value::imm(2i64))
    });
    let (float_base, g) = single("float_gep_base", &|b| {
        b.gep(Value::imm(1.5f64), Value::Arg(1), 8)
    });

    for (f, culprit) in [
        (&undefined_operand, x),
        (&undefined_index, gx),
        (&mistyped, s),
        (&float_base, g),
    ] {
        let trap = |engine: ExecEngine| {
            let mut params = GpuParams::default();
            params.engine = engine;
            let mut gpu = Gpu::with_params(params);
            let out = gpu.mem.alloc_i64(&[0]).unwrap();
            gpu.launch(
                f,
                LaunchConfig::new(1, 32),
                &[KernelArg::Buffer(out), KernelArg::I64(5)],
            )
            .expect_err("the kernel traps")
        };
        let reference = trap(ExecEngine::Reference);
        let Value::Inst(inst) = culprit else {
            unreachable!("the builder returns instruction values")
        };
        assert_eq!(
            reference,
            ExecError::UndefinedValue { inst },
            "{}",
            f.name()
        );
        assert_eq!(trap(ExecEngine::Decoded), reference, "{}", f.name());
    }
}

/// Execute `f` under a manually decoded kernel (fused or unfused
/// superblocks), one warp of 32 lanes, with an optional injected memory
/// fault; flatten everything observable for exact comparison.
fn run_decoded_manual(
    f: &uu_ir::Function,
    spec: &KernelSpec,
    fused: bool,
    fault_after: Option<u64>,
) -> String {
    use uu_analysis::{PostDomTree, Uniformity};
    use uu_simt::{DecodedKernel, GlobalMemory, Metrics, Scratch, SectorSet, WarpGeometry};
    let mut params = GpuParams::default();
    params.max_warp_insts = 2_000_000;
    let mut mem = GlobalMemory::new(1 << 20);
    let out = mem.alloc_i64(&vec![0i64; 32]).unwrap();
    if let Some(n) = fault_after {
        mem.inject_fault_after(n);
    }
    let consts = [
        uu_ir::Constant::I64(out.addr as i64),
        uu_ir::Constant::I64(spec.bound),
        uu_ir::Constant::I64(spec.input_a),
    ];
    let pdom = PostDomTree::compute(f);
    let uni = Uniformity::compute(f);
    let k = if fused {
        DecodedKernel::decode(f, &pdom, &uni, &consts)
    } else {
        DecodedKernel::decode_unfused(f, &pdom, &uni, &consts)
    };
    let mut scratch = Scratch::new();
    let mut touched = SectorSet::new();
    touched.reset(mem.used().div_ceil(params.sector_bytes) + 1);
    let mut metrics = Metrics::default();
    let geom = WarpGeometry {
        block_idx: 0,
        block_dim: 32,
        grid_dim: 1,
        first_thread: 0,
    };
    let r = k.run_warp(&mut scratch, geom, &params, &mut mem, &mut metrics, &mut touched);
    format!(
        "result={r:?} metrics={metrics:?} sectors={} out={:?}",
        touched.len(),
        mem.read_i64(out)
    )
}

#[test]
fn superblock_fusion_is_observationally_identical_on_corpus() {
    // Fused superblock streams vs one-block-per-stream decoding of the
    // same kernels: issue cycles, metrics, outputs, errors, and the
    // fault-countdown access order must all agree exactly.
    let corpus = load_corpus();
    assert!(!corpus.is_empty(), "seed corpus must exist");
    for (name, spec) in &corpus {
        let f = build_kernel(spec);
        assert_eq!(
            run_decoded_manual(&f, spec, true, None),
            run_decoded_manual(&f, spec, false, None),
            "fusion changed behaviour on corpus spec {name}"
        );
        // Fault countdowns probe the memory access *order*, not just the
        // set: the n-th checked access must fault in both decodings.
        for fault in [1u64, 7, 40] {
            assert_eq!(
                run_decoded_manual(&f, spec, true, Some(fault)),
                run_decoded_manual(&f, spec, false, Some(fault)),
                "fusion changed fault order on corpus spec {name} (fault@{fault})"
            );
        }
    }
}

#[test]
fn superblock_fusion_is_observationally_identical_on_melded_corpus() {
    // Meld produces long straight-line regions — exactly what fusion
    // targets — so pin fused-vs-unfused agreement there too.
    let corpus = load_corpus();
    for (name, spec) in corpus.iter().take(24) {
        let mut m = uu_ir::Module::new("sbdiff");
        let id = m.add_function(build_kernel(spec));
        let out = uu_core::compile(
            &mut m,
            &uu_core::PipelineOptions {
                transform: uu_core::Transform::Meld,
                filter: uu_core::LoopFilter::All,
                ..Default::default()
            },
        );
        assert!(out.verify_error.is_none(), "meld broke corpus spec {name}");
        let f = m.function(id);
        assert_eq!(
            run_decoded_manual(f, spec, true, None),
            run_decoded_manual(f, spec, false, None),
            "fusion changed behaviour on melded corpus spec {name}"
        );
        for fault in [3u64, 25] {
            assert_eq!(
                run_decoded_manual(f, spec, true, Some(fault)),
                run_decoded_manual(f, spec, false, Some(fault)),
                "fusion changed fault order on melded spec {name} (fault@{fault})"
            );
        }
    }
}
