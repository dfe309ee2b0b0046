//! Kernel launch, scheduling, and the end-to-end timing model.
//!
//! The timing model is a roofline: compute cycles (instruction issue +
//! fetch stalls, divided across concurrently resident warps) versus memory
//! cycles (transactions over sustained DRAM sector bandwidth); kernel time
//! is the max of the two plus launch overhead. The model deliberately
//! responds to exactly the mechanisms the paper analyses:
//!
//! * fewer dynamic instructions (u&u's redundancy elimination) ⇒ fewer
//!   issue cycles ⇒ faster, with IPC rising as the paper reports;
//! * divergence (longer unmerged paths) ⇒ more partial-mask issues ⇒
//!   lower `warp_execution_efficiency`, slower when nothing was saved;
//! * code growth past the i-cache ⇒ fetch stalls (`stall_inst_fetch`),
//!   the *haccmk*/*complex* slowdown mode.

use crate::exec::{ExecError, Warp, WarpGeometry};
use crate::memory::{Buffer, GlobalMemory, MemError};
use crate::metrics::Metrics;
use crate::params::{ExecEngine, GpuParams};
use uu_analysis::{cost, PostDomTree, Uniformity};
use uu_ir::{Constant, Function, Type, Value};

/// One kernel argument.
#[derive(Debug, Clone, Copy)]
pub enum KernelArg {
    /// 32-bit integer scalar.
    I32(i32),
    /// 64-bit integer scalar.
    I64(i64),
    /// Single precision scalar.
    F32(f32),
    /// Double precision scalar.
    F64(f64),
    /// Device buffer (passed as its base address).
    Buffer(Buffer),
}

impl KernelArg {
    fn to_constant(self) -> Constant {
        match self {
            KernelArg::I32(v) => Constant::I32(v),
            KernelArg::I64(v) => Constant::I64(v),
            KernelArg::F32(v) => Constant::f32(v),
            KernelArg::F64(v) => Constant::f64(v),
            KernelArg::Buffer(b) => Constant::I64(b.addr as i64),
        }
    }
}

/// Grid geometry for a launch (1-D, which covers the evaluated kernels).
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
}

impl LaunchConfig {
    /// A convenient `<<<grid, block>>>` constructor.
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }
}

/// Result of a kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Hardware counters.
    pub metrics: Metrics,
    /// Kernel time in milliseconds.
    pub time_ms: f64,
}

/// The simulated GPU: device memory plus architectural parameters.
#[derive(Debug)]
pub struct Gpu {
    /// Device memory.
    pub mem: GlobalMemory,
    params: GpuParams,
}

impl Gpu {
    /// Create a GPU with default (V100-flavoured) parameters and 1 GiB of
    /// device memory.
    pub fn new() -> Self {
        Gpu {
            mem: GlobalMemory::new(1 << 30),
            params: GpuParams::default(),
        }
    }

    /// Create a GPU with custom parameters.
    pub fn with_params(params: GpuParams) -> Self {
        Gpu {
            mem: GlobalMemory::new(1 << 30),
            params,
        }
    }

    /// Architectural parameters.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// Allocate a buffer of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when device memory is exhausted.
    pub fn alloc(&mut self, len: u64) -> Result<Buffer, MemError> {
        self.mem.alloc(len)
    }

    /// Launch `kernel` with the given configuration and arguments.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on argument mismatches, memory faults, reads of
    /// undefined SSA values, or the per-warp instruction limit.
    pub fn launch(
        &mut self,
        kernel: &Function,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<LaunchReport, ExecError> {
        if args.len() != kernel.params().len() {
            return Err(ExecError::BadArguments(format!(
                "kernel @{} expects {} arguments, got {}",
                kernel.name(),
                kernel.params().len(),
                args.len()
            )));
        }
        for (i, (a, p)) in args.iter().zip(kernel.params()).enumerate() {
            let ok = matches!(
                (a, p.ty),
                (KernelArg::I32(_), Type::I32)
                    | (KernelArg::I64(_), Type::I64)
                    | (KernelArg::F32(_), Type::F32)
                    | (KernelArg::F64(_), Type::F64)
                    | (KernelArg::Buffer(_), Type::Ptr)
                    | (KernelArg::I64(_), Type::Ptr)
            );
            if !ok {
                return Err(ExecError::BadArguments(format!(
                    "argument {i} type mismatch for parameter `{}`",
                    p.name
                )));
            }
        }
        let consts: Vec<Constant> = args.iter().map(|a| a.to_constant()).collect();
        let code_size = cost::function_size(kernel);
        let fetch_penalty = self.params.fetch_penalty(code_size);

        // Decoded engine: the lowering (and the postdom/uniformity analyses
        // feeding it) comes from the cross-launch cache — a sweep re-launching
        // the same kernel pays for decode once per thread, not per launch.
        // The reference engines interpret the arena directly and build their
        // analyses here, per launch.
        let decoded = match self.params.engine {
            ExecEngine::Decoded => Some(crate::cache::decode_cached(kernel, &consts)),
            ExecEngine::Reference | ExecEngine::ReferenceVerifyUniform => None,
        };
        let pdom = if decoded.is_none() {
            Some(PostDomTree::compute(kernel))
        } else {
            None
        };
        let uniform_slots = match self.params.engine {
            ExecEngine::ReferenceVerifyUniform => {
                let uni = Uniformity::compute(kernel);
                Some(
                    (0..kernel.num_inst_slots())
                        .map(|i| {
                            uni.is_uniform(Value::Inst(uu_ir::InstId::from_index(i)))
                        })
                        .collect::<Vec<bool>>(),
                )
            }
            _ => None,
        };
        // Per-launch mutable state comes from the pool; the sector bitmap is
        // sized from the allocator's high-water mark (any in-bounds access
        // lands below it).
        let crate::cache::LaunchScratch {
            mut scratch,
            mut touched,
        } = crate::cache::take_launch_scratch();
        touched.reset(self.mem.used().div_ceil(self.params.sector_bytes) + 1);

        let mut metrics = Metrics::default();
        let mut issue_total: u64 = 0;
        let mut err: Option<ExecError> = None;
        let warps_per_block = cfg.block_dim.div_ceil(self.params.warp_size);
        'grid: for block in 0..cfg.grid_dim {
            for w in 0..warps_per_block {
                let geom = WarpGeometry {
                    block_idx: block,
                    block_dim: cfg.block_dim,
                    grid_dim: cfg.grid_dim,
                    first_thread: w * self.params.warp_size,
                };
                let before = metrics.warp_insts;
                let ran = match &decoded {
                    Some(k) => k.run_warp(
                        &mut scratch,
                        geom,
                        &self.params,
                        &mut self.mem,
                        &mut metrics,
                        &mut touched,
                    ),
                    None => {
                        let pdom = pdom.as_ref().expect("reference engines computed postdom");
                        let mut warp = Warp::new(kernel, &consts, geom, &self.params, pdom);
                        if let Some(slots) = &uniform_slots {
                            warp.verify_uniform(slots.clone());
                        }
                        warp.run(&mut self.mem, &mut metrics, &mut touched)
                    }
                };
                match ran {
                    Ok(issue) => issue_total += issue,
                    Err(e) => {
                        err = Some(e);
                        break 'grid;
                    }
                }
                let issued = metrics.warp_insts - before;
                metrics.fetch_stall_cycles += (issued as f64 * fetch_penalty) as u64;
                metrics.warps += 1;
            }
        }
        let dram_sectors = touched.len();
        crate::cache::put_launch_scratch(crate::cache::LaunchScratch { scratch, touched });
        if let Some(e) = err {
            return Err(e);
        }

        // Roofline combination.
        let conc = self.params.concurrency(metrics.warps);
        let compute_cycles =
            (issue_total + metrics.fetch_stall_cycles) / conc + self.params.launch_overhead;
        metrics.dram_sectors = dram_sectors;
        // Sustained DRAM sector bandwidth: ~20 sectors/cycle on the modelled
        // part (900 GB/s at 1.38 GHz / 32 B sectors). Re-references are
        // absorbed by the cache hierarchy and only pay an L2-bandwidth term.
        let sectors_per_cycle = 20.0;
        let l2_sectors_per_cycle = 80.0;
        let memory_cycles = (metrics.dram_sectors as f64 / sectors_per_cycle
            + metrics.mem_transactions as f64 / l2_sectors_per_cycle)
            as u64;
        // Exposed latency when occupancy is too low to hide DRAM trips.
        let hide = (conc as f64 / self.params.num_sms as f64).max(1.0);
        let exposed = (metrics.dram_sectors as f64 * self.params.mem_latency as f64
            / (hide * 64.0)) as u64
            / conc.max(1);
        metrics.mem_stall_cycles = memory_cycles.max(exposed);
        metrics.issue_cycles = issue_total;
        metrics.kernel_cycles = compute_cycles.max(metrics.mem_stall_cycles);
        let time_ms = metrics.kernel_cycles as f64 / (self.params.clock_ghz * 1e9) * 1e3;
        Ok(LaunchReport { metrics, time_ms })
    }
}

impl Default for Gpu {
    fn default() -> Self {
        Gpu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{CastOp, FunctionBuilder, ICmpPred, Param, Value};

    /// `out[gid] = a[gid] + b[gid]` for gid < n.
    fn vecadd() -> Function {
        let mut f = Function::new(
            "vecadd",
            vec![
                Param::new("a", Type::Ptr),
                Param::new("b", Type::Ptr),
                Param::new("out", Type::Ptr),
                Param::new("n", Type::I64),
            ],
            Type::Void,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        let gid = b.global_thread_id();
        let inb = b.icmp(ICmpPred::Slt, gid, Value::Arg(3));
        b.cond_br(inb, body, exit);
        b.switch_to(body);
        let pa = b.gep(Value::Arg(0), gid, 8);
        let pb = b.gep(Value::Arg(1), gid, 8);
        let va = b.load(Type::F64, pa);
        let vb = b.load(Type::F64, pb);
        let s = b.fadd(va, vb);
        let po = b.gep(Value::Arg(2), gid, 8);
        b.store(po, s);
        b.br(exit);
        b.switch_to(exit);
        b.ret(None);
        f
    }

    #[test]
    fn vecadd_executes_correctly() {
        let mut gpu = Gpu::new();
        let n = 100usize;
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let bvec: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        let ba = gpu.mem.alloc_f64(&a).unwrap();
        let bb = gpu.mem.alloc_f64(&bvec).unwrap();
        let bo = gpu.mem.alloc_f64(&vec![0.0; n]).unwrap();
        let f = vecadd();
        let report = gpu
            .launch(
                &f,
                LaunchConfig::new(4, 32),
                &[
                    KernelArg::Buffer(ba),
                    KernelArg::Buffer(bb),
                    KernelArg::Buffer(bo),
                    KernelArg::I64(n as i64),
                ],
            )
            .unwrap();
        let out = gpu.mem.read_f64(bo).unwrap();
        for i in 0..n {
            assert_eq!(out[i], 3.0 * i as f64);
        }
        assert!(report.time_ms > 0.0);
        assert_eq!(report.metrics.warps, 4);
        // 28 of 128 threads are out of bounds → divergence on the guard, but
        // only in the last warp... gid >= n has whole warp 4 exit; warp 3 is
        // partially active: efficiency below 100%.
        assert!(report.metrics.warp_execution_efficiency(32) < 100.0);
        assert!(report.metrics.gld_bytes >= (2 * 8 * n) as u64);
    }

    #[test]
    fn argument_checking() {
        let mut gpu = Gpu::new();
        let f = vecadd();
        let err = gpu.launch(&f, LaunchConfig::new(1, 32), &[]).unwrap_err();
        assert!(matches!(err, ExecError::BadArguments(_)));
        let err = gpu
            .launch(
                &f,
                LaunchConfig::new(1, 32),
                &[
                    KernelArg::F64(1.0),
                    KernelArg::F64(1.0),
                    KernelArg::F64(1.0),
                    KernelArg::F64(1.0),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::BadArguments(_)));
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut gpu = Gpu::new();
        let f = vecadd();
        let tiny = gpu.mem.alloc_f64(&[1.0]).unwrap();
        let err = gpu
            .launch(
                &f,
                LaunchConfig::new(2, 32),
                &[
                    KernelArg::Buffer(tiny),
                    KernelArg::Buffer(tiny),
                    KernelArg::Buffer(tiny),
                    KernelArg::I64(64),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::Mem(_)));
    }

    /// A loop whose trip count varies per lane: checks divergence handling
    /// and reconvergence correctness.
    #[test]
    fn divergent_loop_reconverges() {
        // out[tid] = sum(0..tid)
        let mut f = Function::new(
            "tri",
            vec![Param::new("out", Type::Ptr)],
            Type::Void,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        let tid = b.thread_idx();
        let tid64 = b.cast(CastOp::Sext, tid, Type::I64);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        let acc = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        b.add_phi_incoming(acc, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, tid64);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let acc1 = b.add(acc, i);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.add_phi_incoming(acc, body, acc1);
        b.br(h);
        b.switch_to(exit);
        let po = b.gep(Value::Arg(0), tid64, 8);
        b.store(po, acc);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();

        let mut gpu = Gpu::new();
        let out = gpu.mem.alloc_i64(&vec![0i64; 32]).unwrap();
        let report = gpu
            .launch(&f, LaunchConfig::new(1, 32), &[KernelArg::Buffer(out)])
            .unwrap();
        let vals = gpu.mem.read_i64(out).unwrap();
        for t in 0..32i64 {
            assert_eq!(vals[t as usize], t * (t - 1) / 2, "lane {t}");
        }
        // Lanes exit at different iterations: the warp diverges.
        assert!(report.metrics.warp_execution_efficiency(32) < 100.0);
    }

    /// Nested divergence: diamond inside a divergent branch.
    #[test]
    fn nested_divergence_is_correct() {
        // out[tid] = tid odd ? (tid > 16 ? 3 : 2) : 1
        let mut f = Function::new("nd", vec![Param::new("out", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let odd = b.create_block();
        let big = b.create_block();
        let small = b.create_block();
        let join = b.create_block();
        let fin = b.create_block();
        b.switch_to(entry);
        let tid = b.thread_idx();
        let tid64 = b.cast(CastOp::Sext, tid, Type::I64);
        let bit = b.and(tid64, Value::imm(1i64));
        let isodd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.cond_br(isodd, odd, fin);
        b.switch_to(odd);
        let gt = b.icmp(ICmpPred::Sgt, tid64, Value::imm(16i64));
        b.cond_br(gt, big, small);
        b.switch_to(big);
        b.br(join);
        b.switch_to(small);
        b.br(join);
        b.switch_to(join);
        let x = b.phi(Type::I64);
        b.add_phi_incoming(x, big, Value::imm(3i64));
        b.add_phi_incoming(x, small, Value::imm(2i64));
        b.br(fin);
        b.switch_to(fin);
        let y = b.phi(Type::I64);
        b.add_phi_incoming(y, entry, Value::imm(1i64));
        b.add_phi_incoming(y, join, x);
        let po = b.gep(Value::Arg(0), tid64, 8);
        b.store(po, y);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();

        let mut gpu = Gpu::new();
        let out = gpu.mem.alloc_i64(&vec![0i64; 32]).unwrap();
        gpu.launch(&f, LaunchConfig::new(1, 32), &[KernelArg::Buffer(out)])
            .unwrap();
        let vals = gpu.mem.read_i64(out).unwrap();
        for t in 0..32i64 {
            let expect = if t % 2 == 1 {
                if t > 16 {
                    3
                } else {
                    2
                }
            } else {
                1
            };
            assert_eq!(vals[t as usize], expect, "lane {t}");
        }
    }

    /// Barriers execute (timing-only) and are counted as sync instructions.
    #[test]
    fn syncthreads_counts_and_costs() {
        let mut f = Function::new("sy", vec![Param::new("out", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let gid = b.global_thread_id();
        b.syncthreads();
        let p = b.gep(Value::Arg(0), gid, 8);
        b.store(p, gid);
        b.ret(None);
        let mut gpu = Gpu::new();
        let buf = gpu.mem.alloc_i64(&vec![0; 64]).unwrap();
        let rep = gpu
            .launch(&f, LaunchConfig::new(1, 64), &[KernelArg::Buffer(buf)])
            .unwrap();
        assert_eq!(rep.metrics.thread_sync, 64);
        assert_eq!(gpu.mem.read_i64(buf).unwrap()[63], 63);
    }

    /// f32 loads/stores round-trip with correct widths and byte accounting.
    #[test]
    fn f32_kernels_roundtrip() {
        let mut f = Function::new("f32k", vec![Param::new("a", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let gid = b.global_thread_id();
        let p = b.gep(Value::Arg(0), gid, 4);
        let v = b.load(Type::F32, p);
        let w = b.bin(uu_ir::BinOp::FMul, v, Value::imm(2.0f32));
        b.store(p, w);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();
        let mut gpu = Gpu::new();
        let buf = gpu.mem.alloc_f32(&vec![1.5f32; 32]).unwrap();
        let rep = gpu
            .launch(&f, LaunchConfig::new(1, 32), &[KernelArg::Buffer(buf)])
            .unwrap();
        assert_eq!(gpu.mem.read_f32(buf).unwrap(), vec![3.0f32; 32]);
        assert_eq!(rep.metrics.gld_bytes, 32 * 4);
        assert_eq!(rep.metrics.gst_bytes, 32 * 4);
        // 32 lanes x 4 bytes = 128 bytes = 4 sectors per access.
        assert_eq!(rep.metrics.mem_transactions, 8);
    }

    #[test]
    fn runaway_loop_hits_step_budget() {
        let mut f = Function::new("inf", vec![], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        b.br(h);
        let mut params = GpuParams::default();
        params.max_warp_insts = 10_000;
        let mut gpu = Gpu::with_params(params);
        let err = gpu.launch(&f, LaunchConfig::new(1, 32), &[]).unwrap_err();
        assert_eq!(err, ExecError::StepBudgetExceeded { budget: 10_000 });
    }

    #[test]
    fn coalesced_vs_strided_transactions() {
        // Strided access (stride 8 elements) touches 8x the sectors of a
        // unit-stride access.
        fn kernel(stride: i64) -> Function {
            let mut f = Function::new("st", vec![Param::new("a", Type::Ptr)], Type::Void);
            let entry = f.entry();
            let mut b = FunctionBuilder::new(&mut f);
            b.switch_to(entry);
            let gid = b.global_thread_id();
            let idx = b.mul(gid, Value::imm(stride));
            let pa = b.gep(Value::Arg(0), idx, 8);
            let v = b.load(Type::F64, pa);
            let v2 = b.fadd(v, Value::imm(1.0f64));
            b.store(pa, v2);
            b.ret(None);
            f
        }
        let mut gpu = Gpu::new();
        let buf = gpu.mem.alloc_f64(&vec![0.0; 32 * 8]).unwrap();
        let r1 = gpu
            .launch(&kernel(1), LaunchConfig::new(1, 32), &[KernelArg::Buffer(buf)])
            .unwrap();
        let r8 = gpu
            .launch(&kernel(8), LaunchConfig::new(1, 32), &[KernelArg::Buffer(buf)])
            .unwrap();
        assert_eq!(r8.metrics.mem_transactions, 4 * r1.metrics.mem_transactions);
    }
}
