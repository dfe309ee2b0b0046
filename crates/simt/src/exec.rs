//! Lockstep warp execution with a reconvergence stack.
//!
//! A warp executes one instruction at a time for all *active* lanes. A
//! divergent branch pushes a frame on the SIMT stack: the taken side runs
//! first, the other side is pending, and both re-join at the immediate
//! post-dominator of the branch block — the same mechanism real NVIDIA
//! hardware uses. Divergence therefore costs exactly what it costs on a
//! GPU: both sides' instructions are issued, each under a partial mask,
//! which the metrics record as reduced `warp_execution_efficiency`.

use crate::memory::{GlobalMemory, MemError, SectorSet};
use crate::metrics::{InstClass, Metrics};
use crate::params::GpuParams;
use uu_analysis::PostDomTree;
use uu_ir::{fold, BlockId, Constant, Function, InstId, InstKind, Intrinsic, Value};

/// Errors raised during kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access fault.
    Mem(MemError),
    /// A lane read an SSA value that was never defined on its path —
    /// always a compiler bug (transform broke dominance).
    UndefinedValue {
        /// The instruction whose result was read.
        inst: InstId,
    },
    /// The per-warp dynamic step budget was exhausted — the watchdog
    /// against runaway (fuzz-generated nonterminating) kernels, which
    /// trap deterministically here instead of hanging a worker.
    StepBudgetExceeded {
        /// The budget that was exceeded
        /// ([`crate::GpuParams::max_warp_insts`]).
        budget: u64,
    },
    /// A phi had no incoming entry for the executing predecessor.
    MissingPhiIncoming {
        /// The phi instruction.
        phi: InstId,
    },
    /// Wrong number or type of kernel arguments.
    BadArguments(String),
}

impl From<MemError> for ExecError {
    fn from(e: MemError) -> Self {
        ExecError::Mem(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Mem(e) => write!(f, "memory fault: {e}"),
            ExecError::UndefinedValue { inst } => {
                write!(f, "read of undefined SSA value %{}", inst.index())
            }
            ExecError::StepBudgetExceeded { budget } => {
                write!(f, "per-warp step budget of {budget} instructions exceeded")
            }
            ExecError::MissingPhiIncoming { phi } => {
                write!(f, "phi %{} has no incoming for predecessor", phi.index())
            }
            ExecError::BadArguments(s) => write!(f, "bad kernel arguments: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Geometry context for one warp.
#[derive(Debug, Clone, Copy)]
pub struct WarpGeometry {
    /// `blockIdx.x`.
    pub block_idx: u32,
    /// `blockDim.x`.
    pub block_dim: u32,
    /// `gridDim.x`.
    pub grid_dim: u32,
    /// `threadIdx.x` of lane 0.
    pub first_thread: u32,
}

struct Frame {
    reconv: Option<BlockId>,
    pending: Vec<(BlockId, u32)>,
    joined: u32,
}

/// Issue-throughput cost of one warp instruction, in cycles. Shared by the
/// reference interpreter and the decoded engine (which precomputes it).
pub(crate) fn issue_cost(kind: &InstKind) -> u64 {
    use uu_ir::BinOp::*;
    match kind {
        InstKind::Bin { op, .. } => match op {
            SDiv | UDiv | SRem | URem => 8,
            FDiv => 8,
            FAdd | FSub | FMul => 2,
            _ => 1,
        },
        InstKind::Intr { which, .. } => match which {
            Intrinsic::Exp | Intrinsic::Log | Intrinsic::Sin | Intrinsic::Cos => 16,
            Intrinsic::Sqrt => 8,
            Intrinsic::Syncthreads => 4,
            _ => 1,
        },
        InstKind::Load { .. } | InstKind::Store { .. } => 2,
        _ => 1,
    }
}

/// Metrics class of one instruction; shared with the decoded engine.
pub(crate) fn classify(kind: &InstKind) -> InstClass {
    match kind {
        InstKind::Bin { .. } | InstKind::ICmp { .. } | InstKind::FCmp { .. } => InstClass::Arith,
        InstKind::Intr { which, .. } => match which {
            Intrinsic::Syncthreads => InstClass::Sync,
            _ => InstClass::Arith,
        },
        InstKind::Load { .. } => InstClass::Load,
        InstKind::Store { .. } => InstClass::Store,
        InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. } => InstClass::Control,
        InstKind::Select { .. } | InstKind::Cast { .. } | InstKind::Gep { .. }
        | InstKind::Phi { .. } => InstClass::Misc,
    }
}

/// Per-warp reference interpreter.
///
/// This is the semantic baseline the decoded engine
/// ([`crate::DecodedKernel`]) is differentially tested against; launches use
/// it when [`crate::ExecEngine::Reference`] is selected.
pub struct Warp<'a> {
    func: &'a Function,
    args: &'a [Constant],
    geom: WarpGeometry,
    params: &'a GpuParams,
    pdom: &'a PostDomTree,
    regs: Vec<Vec<Option<Constant>>>,
    /// Per-lane predecessor block for phi resolution; `None` until the lane
    /// executes its first branch.
    prev: Vec<Option<BlockId>>,
    executed: u64,
    /// Distinct sectors of the current memory op (≤ warp_size entries, so
    /// a linear scan beats a `HashSet`); reused across ops so the
    /// interpreter does not allocate per memory instruction.
    sectors: Vec<u64>,
    /// When set, every write of an instruction marked `true` is asserted
    /// identical across active lanes (the scalarization oracle).
    verify_uniform: Option<Vec<bool>>,
}

impl<'a> Warp<'a> {
    /// Create a warp executor. `args` are the resolved kernel arguments
    /// (buffers as `I64` device addresses).
    pub fn new(
        func: &'a Function,
        args: &'a [Constant],
        geom: WarpGeometry,
        params: &'a GpuParams,
        pdom: &'a PostDomTree,
    ) -> Self {
        let slots = func.num_inst_slots();
        let ws = params.warp_size as usize;
        Warp {
            func,
            args,
            geom,
            params,
            pdom,
            regs: vec![vec![None; slots]; ws],
            prev: vec![None; ws],
            executed: 0,
            sectors: Vec::new(),
            verify_uniform: None,
        }
    }

    /// Arm the uniformity oracle: `slots[i]` marks instruction slot `i` as
    /// warp-uniform per `uu_analysis::Uniformity`; any register write where
    /// active lanes disagree on such a slot panics with a diagnostic.
    pub fn verify_uniform(&mut self, slots: Vec<bool>) {
        assert_eq!(slots.len(), self.func.num_inst_slots());
        self.verify_uniform = Some(slots);
    }

    /// Watchdog: error out once the warp exceeds its dynamic step budget.
    fn check_step_budget(&self) -> Result<(), ExecError> {
        if self.executed > self.params.max_warp_insts {
            return Err(ExecError::StepBudgetExceeded {
                budget: self.params.max_warp_insts,
            });
        }
        Ok(())
    }

    /// Oracle check after `id` was written under `mask`: all active lanes
    /// must agree if the uniformity analysis claims the value is uniform.
    fn assert_uniform_write(&self, id: InstId, mask: u32) {
        let Some(slots) = &self.verify_uniform else {
            return;
        };
        if !slots[id.index()] {
            return;
        }
        let mut first: Option<(usize, Option<Constant>)> = None;
        for lane in self.lanes(mask) {
            let v = self.regs[lane][id.index()];
            match first {
                None => first = Some((lane, v)),
                Some((l0, v0)) => assert_eq!(
                    v0,
                    v,
                    "uniformity violation in @{}: %{} differs between lane {} ({:?}) and lane {} ({:?})",
                    self.func.name(),
                    id.index(),
                    l0,
                    v0,
                    lane,
                    v
                ),
            }
        }
    }

    fn eval(&self, lane: usize, v: Value) -> Result<Constant, ExecError> {
        match v {
            Value::Const(c) => Ok(c),
            Value::Arg(i) => self
                .args
                .get(i as usize)
                .copied()
                .ok_or_else(|| ExecError::BadArguments(format!("missing argument {i}"))),
            Value::Inst(id) => self.regs[lane][id.index()]
                .ok_or(ExecError::UndefinedValue { inst: id }),
        }
    }

    fn lanes(&self, mask: u32) -> impl Iterator<Item = usize> + '_ {
        (0..self.params.warp_size as usize).filter(move |l| mask & (1 << l) != 0)
    }

    /// Run the warp to completion, accumulating metrics and returning the
    /// issue cycles consumed. `touched` collects the distinct memory sectors
    /// referenced across the launch (the DRAM working set).
    pub fn run(
        &mut self,
        mem: &mut GlobalMemory,
        m: &mut Metrics,
        touched: &mut SectorSet,
    ) -> Result<u64, ExecError> {
        let mut cur = self.func.entry();
        let mut mask: u32 = if self.params.warp_size == 32 {
            u32::MAX
        } else {
            (1u32 << self.params.warp_size) - 1
        };
        // Deactivate lanes beyond blockDim.
        for l in 0..self.params.warp_size {
            if self.geom.first_thread + l >= self.geom.block_dim {
                mask &= !(1 << l);
            }
        }
        let mut stack: Vec<Frame> = Vec::new();
        let mut issue: u64 = 0;

        'run: loop {
            // Drain reconvergence arrivals and dead masks before executing.
            loop {
                if mask == 0 {
                    match stack.last_mut() {
                        None => break 'run,
                        Some(top) => {
                            if let Some((b, m2)) = top.pending.pop() {
                                cur = b;
                                mask = m2;
                                continue;
                            }
                            let joined = top.joined;
                            let reconv = top.reconv;
                            stack.pop();
                            if joined != 0 {
                                mask = joined;
                                cur = reconv
                                    .expect("joined lanes require a reconvergence block");
                            }
                            continue;
                        }
                    }
                }
                match stack.last_mut() {
                    Some(top) if top.reconv == Some(cur) => {
                        top.joined |= mask;
                        if let Some((b, m2)) = top.pending.pop() {
                            cur = b;
                            mask = m2;
                        } else {
                            mask = top.joined;
                            stack.pop();
                        }
                        continue;
                    }
                    _ => break,
                }
            }

            // Execute block `cur` under `mask`.
            let insts = &self.func.block(cur).insts;
            // Phase 1: evaluate phis as a parallel copy.
            let mut phi_writes: Vec<(InstId, Vec<(usize, Constant)>)> = Vec::new();
            let mut ip = 0;
            while ip < insts.len() {
                let id = insts[ip];
                let inst = self.func.inst(id);
                let InstKind::Phi { incomings } = &inst.kind else {
                    break;
                };
                let mut writes = Vec::new();
                for lane in self.lanes(mask) {
                    let v = self
                        .prev[lane]
                        .and_then(|pred| {
                            incomings.iter().find(|(p, _)| *p == pred).map(|(_, v)| *v)
                        })
                        .ok_or(ExecError::MissingPhiIncoming { phi: id })?;
                    writes.push((lane, self.eval(lane, v)?));
                }
                m.count(InstClass::Misc, mask.count_ones());
                issue += 1;
                self.executed += 1;
                phi_writes.push((id, writes));
                ip += 1;
            }
            for (id, writes) in phi_writes {
                for (lane, c) in writes {
                    self.regs[lane][id.index()] = Some(c);
                }
                self.assert_uniform_write(id, mask);
            }
            self.check_step_budget()?;

            // Phase 2: straight-line instructions and the terminator.
            let mut next: Option<(BlockId, u32)> = None;
            for &id in &insts[ip..] {
                let inst = self.func.inst(id).clone();
                let active = mask.count_ones();
                m.count(classify(&inst.kind), active);
                issue += issue_cost(&inst.kind);
                self.executed += 1;
                self.check_step_budget()?;
                match &inst.kind {
                    InstKind::Load { ptr } => {
                        let mut sectors = std::mem::take(&mut self.sectors);
                        sectors.clear();
                        let width = inst.ty.size_bytes();
                        let mut rem = mask;
                        while rem != 0 {
                            let lane = rem.trailing_zeros() as usize;
                            rem &= rem - 1;
                            let addr = self.eval(lane, *ptr)?.as_i64().ok_or(
                                ExecError::BadArguments("non-integer address".into()),
                            )? as u64;
                            let c = mem.read_scalar(addr, inst.ty)?;
                            self.regs[lane][id.index()] = Some(c);
                            let sector = addr / self.params.sector_bytes;
                            if !sectors.contains(&sector) {
                                sectors.push(sector);
                                touched.insert(sector);
                            }
                            m.gld_bytes += width;
                        }
                        self.assert_uniform_write(id, mask);
                        let tx = sectors.len() as u64;
                        self.sectors = sectors;
                        m.mem_transactions += tx;
                        issue += tx * self.params.mem_tx_cycles;
                        // Cache-hit latency on the warp's critical path.
                        // Divergent sub-warps' loads are independent and
                        // overlap in the load pipeline (memory-level
                        // parallelism), so the charge is sublinear in the
                        // active fraction — the §V mechanism by which u&u
                        // raises IPC even as warp efficiency drops.
                        let frac = active as f64 / self.params.warp_size as f64;
                        issue += (self.params.l1_latency as f64 * frac.powf(1.5)) as u64;
                    }
                    InstKind::Store { ptr, value } => {
                        let mut sectors = std::mem::take(&mut self.sectors);
                        sectors.clear();
                        let width = self.func.value_type(*value).size_bytes();
                        let mut rem = mask;
                        while rem != 0 {
                            let lane = rem.trailing_zeros() as usize;
                            rem &= rem - 1;
                            let addr = self.eval(lane, *ptr)?.as_i64().ok_or(
                                ExecError::BadArguments("non-integer address".into()),
                            )? as u64;
                            let v = self.eval(lane, *value)?;
                            mem.write_scalar(addr, v)?;
                            let sector = addr / self.params.sector_bytes;
                            if !sectors.contains(&sector) {
                                sectors.push(sector);
                                touched.insert(sector);
                            }
                            m.gst_bytes += width;
                        }
                        let tx = sectors.len() as u64;
                        self.sectors = sectors;
                        m.mem_transactions += tx;
                        issue += tx * self.params.mem_tx_cycles;
                    }
                    InstKind::Br { target } => {
                        self.set_prev(mask, cur);
                        next = Some((*target, mask));
                    }
                    InstKind::Ret { .. } => {
                        // Lanes retire; prev untouched.
                        next = Some((cur, 0)); // mask 0 triggers stack drain
                    }
                    InstKind::CondBr {
                        cond,
                        if_true,
                        if_false,
                    } => {
                        let mut tmask = 0u32;
                        let mut rem = mask;
                        while rem != 0 {
                            let lane = rem.trailing_zeros() as usize;
                            rem &= rem - 1;
                            let c = self.eval(lane, *cond)?.as_bool().ok_or(
                                ExecError::BadArguments("non-boolean condition".into()),
                            )?;
                            if c {
                                tmask |= 1 << lane;
                            }
                        }
                        let fmask = mask & !tmask;
                        self.set_prev(mask, cur);
                        if if_true == if_false || fmask == 0 {
                            next = Some((*if_true, mask));
                        } else if tmask == 0 {
                            next = Some((*if_false, mask));
                        } else {
                            // Divergence: run the taken side first; park the
                            // other until the immediate post-dominator.
                            stack.push(Frame {
                                reconv: self.pdom.ipdom(cur),
                                pending: vec![(*if_false, fmask)],
                                joined: 0,
                            });
                            next = Some((*if_true, tmask));
                        }
                    }
                    kind => {
                        let mut rem = mask;
                        while rem != 0 {
                            let lane = rem.trailing_zeros() as usize;
                            rem &= rem - 1;
                            let c = self.eval_pure(lane, id, kind, inst.ty)?;
                            self.regs[lane][id.index()] = Some(c);
                        }
                        self.assert_uniform_write(id, mask);
                    }
                }
            }
            let (nb, nm) = next.expect("block must end in a terminator");
            cur = nb;
            mask = nm;
        }
        Ok(issue)
    }

    fn set_prev(&mut self, mask: u32, block: BlockId) {
        for l in 0..self.params.warp_size as usize {
            if mask & (1 << l) != 0 {
                self.prev[l] = Some(block);
            }
        }
    }

    fn eval_pure(
        &self,
        lane: usize,
        id: InstId,
        kind: &InstKind,
        ty: uu_ir::Type,
    ) -> Result<Constant, ExecError> {
        let bad = || ExecError::UndefinedValue { inst: id };
        match kind {
            InstKind::Bin { op, lhs, rhs } => {
                fold::fold_bin(*op, self.eval(lane, *lhs)?, self.eval(lane, *rhs)?)
                    .ok_or_else(bad)
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                fold::fold_icmp(*pred, self.eval(lane, *lhs)?, self.eval(lane, *rhs)?)
                    .ok_or_else(bad)
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                fold::fold_fcmp(*pred, self.eval(lane, *lhs)?, self.eval(lane, *rhs)?)
                    .ok_or_else(bad)
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                let c = self
                    .eval(lane, *cond)?
                    .as_bool()
                    .ok_or_else(bad)?;
                self.eval(lane, if c { *on_true } else { *on_false })
            }
            InstKind::Cast { op, value } => {
                fold::fold_cast(*op, self.eval(lane, *value)?, ty).ok_or_else(bad)
            }
            InstKind::Gep { base, index, scale } => {
                fold::fold_gep(self.eval(lane, *base)?, self.eval(lane, *index)?, *scale)
                    .ok_or_else(bad)
            }
            InstKind::Intr { which, args } => match which {
                Intrinsic::ThreadIdxX => {
                    Ok(Constant::I32((self.geom.first_thread + lane as u32) as i32))
                }
                Intrinsic::BlockIdxX => Ok(Constant::I32(self.geom.block_idx as i32)),
                Intrinsic::BlockDimX => Ok(Constant::I32(self.geom.block_dim as i32)),
                Intrinsic::GridDimX => Ok(Constant::I32(self.geom.grid_dim as i32)),
                Intrinsic::Syncthreads => Ok(Constant::I1(false)), // void; never read
                _ => {
                    let mut consts = Vec::with_capacity(args.len());
                    for a in args {
                        consts.push(self.eval(lane, *a)?);
                    }
                    fold::fold_intrinsic(*which, &consts, ty).ok_or_else(bad)
                }
            },
            _ => unreachable!("handled in run()"),
        }
    }
}
