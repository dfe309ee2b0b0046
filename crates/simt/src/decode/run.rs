//! Execution of a [`DecodedKernel`]: the reusable per-warp state
//! ([`Scratch`]) and the warp loop ([`DecodedKernel::run_warp`]) with its
//! warp-at-a-time evaluator. The parent module documents the engine as a
//! whole and the contract with the reference interpreter.

use super::{DInst, DOp, DecodedKernel, Dest, Operand, NO_BLOCK};
use crate::exec::{ExecError, WarpGeometry};
use crate::memory::{GlobalMemory, SectorSet};
use crate::metrics::{InstClass, Metrics};
use crate::params::GpuParams;
use std::cell::Cell;
use uu_ir::word::{self, Word, TAG_F32, TAG_F64, TAG_I1, TAG_I32, TAG_I64, TAG_UNDEF};
use uu_ir::{Intrinsic, Type};

/// Lanes per vector register row. Lane masks are `u32`, so no warp is
/// wider; a fixed row width lets the lane loops index rows without a
/// bounds check per access.
const LANES: usize = 32;

/// SIMT stack frame of the decoded engine. `pending` is a single slot: the
/// interpreter only ever parks one (block, mask) side per divergence.
#[derive(Debug, Clone, Copy)]
struct DFrame {
    /// Reconvergence block arena index, `NO_BLOCK` if the branch has no
    /// post-dominator.
    reconv: u32,
    /// The not-yet-run side of the divergence.
    pending: Option<(u32, u32)>,
    joined: u32,
}

/// Reusable per-warp mutable state. One `Scratch` serves every warp of a
/// launch; [`DecodedKernel::run_warp`] resets it without reallocating.
///
/// Register payloads and their type tags live in parallel arrays; only the
/// tag arrays are cleared between warps (tag 0 = undefined), so a stale
/// payload is never observable.
#[derive(Debug, Default)]
pub struct Scratch {
    sreg_bits: Vec<u64>,
    sreg_tag: Vec<u8>,
    /// Vector file: one [`LANES`]-wide row per vector slot, then one
    /// **staging row** (row `num_vregs`) that `eval_warp` targets when the
    /// destination is warp-uniform, so scalar and vector destinations share
    /// one evaluator.
    vreg_bits: Vec<u64>,
    vreg_tag: Vec<u8>,
    /// Per-lane predecessor block arena index (`NO_BLOCK` before the first
    /// branch) for phi resolution.
    prev: Vec<u32>,
    stack: Vec<DFrame>,
    /// Distinct sectors of the current memory op (≤ warp_size entries, so a
    /// linear scan beats a `HashSet`).
    sectors: Vec<u64>,
    /// Parallel-copy staging for scalar phis `(slot, tag, payload)`.
    phi_s: Vec<(u32, u8, u64)>,
    /// Parallel-copy staging for vector phis `(slot, lane, tag, payload)`.
    phi_v: Vec<(u32, u32, u8, u64)>,
}

impl Scratch {
    /// Create an empty scratch; it sizes itself to the kernel on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    fn reset(&mut self, k: &DecodedKernel, warp_size: u32) {
        let ws = warp_size as usize;
        let vrows = k.num_vregs as usize + 1;
        self.sreg_bits.resize(k.num_sregs as usize, 0);
        self.sreg_tag.clear();
        self.sreg_tag.resize(k.num_sregs as usize, TAG_UNDEF);
        self.vreg_bits.resize(vrows * LANES, 0);
        self.vreg_tag.clear();
        self.vreg_tag.resize(vrows * LANES, TAG_UNDEF);
        self.prev.clear();
        self.prev.resize(ws, NO_BLOCK);
        self.stack.clear();
    }

    /// Record `block` as the predecessor of every active lane.
    fn set_prev(&mut self, mask: u32, block: u32) {
        for lane in lanes(mask) {
            self.prev[lane] = block;
        }
    }

    /// The base address if vector register `r` holds unit-stride integer
    /// addresses (`base + lane * width`) in every lane of the warp — the
    /// probe of the coalesced load and store fast paths.
    fn unit_stride_base(&self, r: u32, ws: usize, width: u64) -> Option<u64> {
        let row = r as usize * LANES..r as usize * LANES + ws;
        if !self.vreg_tag[row.clone()].iter().all(|&t| word::is_int(t)) {
            return None;
        }
        let addrs = &self.vreg_bits[row];
        let base = *addrs.first()?;
        let mut expect = base;
        for &a in addrs {
            if a != expect {
                return None;
            }
            expect = expect.wrapping_add(width);
        }
        Some(base)
    }
}

/// The active lanes of `mask`, ascending.
#[inline(always)]
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Decode `width` raw little-endian bytes at `win[off..]` into the word a
/// load of type `ty` produces. Mirrors `GlobalMemory::read_scalar` +
/// [`word::encode`] exactly.
#[inline]
fn decode_mem(ty: Type, win: &[u8], off: usize) -> Word {
    match ty {
        Type::I1 => (TAG_I1, (win[off] != 0) as u64),
        Type::I32 => (
            TAG_I32,
            i32::from_le_bytes(win[off..off + 4].try_into().unwrap()) as i64 as u64,
        ),
        Type::I64 | Type::Ptr => (
            TAG_I64,
            u64::from_le_bytes(win[off..off + 8].try_into().unwrap()),
        ),
        Type::F32 => (
            TAG_F32,
            u32::from_le_bytes(win[off..off + 4].try_into().unwrap()) as u64,
        ),
        Type::F64 => (
            TAG_F64,
            u64::from_le_bytes(win[off..off + 8].try_into().unwrap()),
        ),
        Type::Void => unreachable!("void loads are rejected by the verifier"),
    }
}

/// One operand of a pure instruction, resolved once per warp by
/// [`DecodedKernel::eval_warp`] so the per-lane loop does no `Operand`
/// dispatch: reading a lane is one (perfectly predicted) variant match
/// and at most two loads.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// Lane-invariant value: a constant or a scalar register. An operand
    /// whose read fails on every lane (undefined scalar register, missing
    /// argument, unlinked value) is a splat of [`TAG_UNDEF`].
    Splat(Word),
    /// A vector register's `(tags, payloads)` rows, indexed by lane. The
    /// rows are shared cells because nothing stops unverified IR from
    /// naming an instruction's own result as its operand: the destination
    /// row may be an operand row too.
    Row(&'a [Cell<u8>; LANES], &'a [Cell<u64>; LANES]),
}

impl Src<'_> {
    /// Read the operand for `lane`. A [`TAG_UNDEF`] tag means the read
    /// failed.
    #[inline(always)]
    fn get(self, lane: usize) -> Word {
        match self {
            Src::Splat(w) => w,
            Src::Row(tags, bits) => (tags[lane].get(), bits[lane].get()),
        }
    }
}

/// A memory operand as an address.
#[inline]
fn address(w: Word) -> Result<u64, ExecError> {
    match word::as_i64(w) {
        Some(a) => Ok(a as u64),
        None => Err(ExecError::BadArguments("non-integer address".into())),
    }
}

/// A branch operand as a condition.
#[inline]
fn condition(w: Word) -> Result<bool, ExecError> {
    word::as_bool(w).ok_or_else(|| ExecError::BadArguments("non-boolean condition".into()))
}

impl DecodedKernel {
    /// Read an operand for `lane`.
    #[inline]
    fn read(&self, s: &Scratch, lane: usize, op: Operand) -> Result<Word, ExecError> {
        let w = match op {
            Operand::Const(tag, bits) => (tag, bits),
            Operand::SReg(r) => (s.sreg_tag[r as usize], s.sreg_bits[r as usize]),
            Operand::VReg(r) => {
                let at = r as usize * LANES + lane;
                (s.vreg_tag[at], s.vreg_bits[at])
            }
            Operand::BadArg(_) | Operand::Undef(_) => (TAG_UNDEF, 0),
        };
        self.defined(w, op)
    }

    /// `w`, read from `op`, if it holds a value.
    #[inline(always)]
    fn defined(&self, w: Word, op: Operand) -> Result<Word, ExecError> {
        if w.0 == TAG_UNDEF {
            return Err(self.unreadable(op));
        }
        Ok(w)
    }

    /// The reference interpreter's error for reading `op` when it holds no
    /// value.
    #[cold]
    fn unreadable(&self, op: Operand) -> ExecError {
        match op {
            Operand::SReg(r) => ExecError::UndefinedValue {
                inst: self.sreg_inst[r as usize],
            },
            Operand::VReg(r) => ExecError::UndefinedValue {
                inst: self.vreg_inst[r as usize],
            },
            Operand::BadArg(i) => ExecError::BadArguments(format!("missing argument {i}")),
            Operand::Undef(id) => ExecError::UndefinedValue { inst: id },
            Operand::Const(..) => unreachable!("constants always hold a value"),
        }
    }

    /// Evaluate one pure instruction warp-at-a-time: the opcode and
    /// operand dispatch happen once, then a tight ascending-lane loop
    /// reads, computes, and writes. A vector destination is evaluated for
    /// every active lane of `mask`; a warp-uniform one for the first
    /// active lane only, through the staging row into the scalar file.
    /// Observable behaviour is the reference interpreter's per-lane
    /// evaluation in ascending lane order — same results, same errors,
    /// same error order (reads before conversions, operand order per
    /// instruction).
    fn eval_warp(
        &self,
        scratch: &mut Scratch,
        geom: &WarpGeometry,
        mask: u32,
        inst: &DInst,
    ) -> Result<(), ExecError> {
        let (row, mask) = match inst.dest {
            Some(Dest::V(slot)) => (slot as usize, mask),
            // Lowest set bit: the first active lane stands for the warp.
            Some(Dest::S(_)) => (self.num_vregs as usize, mask & mask.wrapping_neg()),
            None => unreachable!("pure instructions produce a value"),
        };
        let bad = || ExecError::UndefinedValue { inst: inst.id };
        let Scratch {
            sreg_tag,
            sreg_bits,
            vreg_tag,
            vreg_bits,
            ..
        } = scratch;
        let vtags = Cell::from_mut(&mut vreg_tag[..]).as_slice_of_cells();
        let vbits = Cell::from_mut(&mut vreg_bits[..]).as_slice_of_cells();
        let rows = |r: usize| -> (&[Cell<u8>; LANES], &[Cell<u64>; LANES]) {
            let row = r * LANES..(r + 1) * LANES;
            let tags = vtags[row.clone()].try_into().expect("a whole row");
            (tags, vbits[row].try_into().expect("a whole row"))
        };
        let src = |op: Operand| -> Src {
            match op {
                Operand::Const(tag, bits) => Src::Splat((tag, bits)),
                Operand::SReg(r) => Src::Splat((sreg_tag[r as usize], sreg_bits[r as usize])),
                Operand::VReg(r) => {
                    let (tags, bits) = rows(r as usize);
                    Src::Row(tags, bits)
                }
                Operand::BadArg(_) | Operand::Undef(_) => Src::Splat((TAG_UNDEF, 0)),
            }
        };
        // Read `op` (resolved to `s`) for one lane.
        let rd = |s: Src, op: Operand, lane: usize| self.defined(s.get(lane), op);
        let (dtags, dbits) = rows(row);
        let put = |lane: usize, (tag, bits): Word| {
            dtags[lane].set(tag);
            dbits[lane].set(bits);
        };
        match &inst.op {
            DOp::Bin(op, a, b) => {
                let (sa, sb) = (src(*a), src(*b));
                for lane in lanes(mask) {
                    let l = rd(sa, *a, lane)?;
                    let r = rd(sb, *b, lane)?;
                    put(lane, word::bin(*op, l, r).ok_or_else(bad)?);
                }
            }
            DOp::ICmp(pred, a, b) => {
                let (sa, sb) = (src(*a), src(*b));
                for lane in lanes(mask) {
                    let l = rd(sa, *a, lane)?;
                    let r = rd(sb, *b, lane)?;
                    put(lane, word::icmp(*pred, l, r).ok_or_else(bad)?);
                }
            }
            DOp::FCmp(pred, a, b) => {
                let (sa, sb) = (src(*a), src(*b));
                for lane in lanes(mask) {
                    let l = rd(sa, *a, lane)?;
                    let r = rd(sb, *b, lane)?;
                    put(lane, word::fcmp(*pred, l, r).ok_or_else(bad)?);
                }
            }
            DOp::Select(c, t, e) => {
                let (sc, st, se) = (src(*c), src(*t), src(*e));
                for lane in lanes(mask) {
                    let cond = word::as_bool(rd(sc, *c, lane)?).ok_or_else(bad)?;
                    // Only the chosen side is read (the other may be
                    // undefined without consequence, as in the reference).
                    let (sv, ov) = if cond { (st, *t) } else { (se, *e) };
                    put(lane, rd(sv, ov, lane)?);
                }
            }
            DOp::Cast(op, v) => {
                let sv = src(*v);
                for lane in lanes(mask) {
                    let w = rd(sv, *v, lane)?;
                    put(lane, word::cast(*op, w, inst.ty).ok_or_else(bad)?);
                }
            }
            DOp::Gep(base, index, scale) => {
                let (sb, si) = (src(*base), src(*index));
                for lane in lanes(mask) {
                    let b = rd(sb, *base, lane)?;
                    let i = rd(si, *index, lane)?;
                    put(lane, word::gep(b, i, *scale).ok_or_else(bad)?);
                }
            }
            DOp::Geom(which) => {
                let i32_word = |v: u32| (TAG_I32, v as i32 as i64 as u64);
                let uniform = match which {
                    Intrinsic::ThreadIdxX => None,
                    Intrinsic::BlockIdxX => Some(i32_word(geom.block_idx)),
                    Intrinsic::BlockDimX => Some(i32_word(geom.block_dim)),
                    Intrinsic::GridDimX => Some(i32_word(geom.grid_dim)),
                    Intrinsic::Syncthreads => Some((TAG_I1, 0)), // void; never read
                    _ => unreachable!("decoded as Math"),
                };
                for lane in lanes(mask) {
                    put(
                        lane,
                        uniform.unwrap_or_else(|| i32_word(geom.first_thread + lane as u32)),
                    );
                }
            }
            DOp::Math(which, ops, n) => {
                let n = *n as usize;
                let srcs = [src(ops[0]), src(ops[1])];
                for lane in lanes(mask) {
                    let mut vals = [(TAG_UNDEF, 0); 2];
                    for (k, v) in vals[..n].iter_mut().enumerate() {
                        *v = rd(srcs[k], ops[k], lane)?;
                    }
                    put(
                        lane,
                        word::intrinsic(*which, &vals[..n], inst.ty).ok_or_else(bad)?,
                    );
                }
            }
            DOp::Load(..)
            | DOp::Store(..)
            | DOp::Br(..)
            | DOp::Fall(_)
            | DOp::CondBr { .. }
            | DOp::Ret => {
                unreachable!("handled in run_warp()")
            }
        }
        if let Some(Dest::S(slot)) = inst.dest {
            let lane = mask.trailing_zeros() as usize;
            sreg_tag[slot as usize] = dtags[lane].get();
            sreg_bits[slot as usize] = dbits[lane].get();
        }
        Ok(())
    }

    /// Execute one warp to completion — the decoded counterpart of
    /// [`crate::Warp::run`], with identical observable behaviour. Returns
    /// the issue cycles consumed.
    ///
    /// # Errors
    ///
    /// Exactly the reference interpreter's errors, in the same order.
    pub fn run_warp(
        &self,
        scratch: &mut Scratch,
        geom: WarpGeometry,
        params: &GpuParams,
        mem: &mut GlobalMemory,
        m: &mut Metrics,
        touched: &mut SectorSet,
    ) -> Result<u64, ExecError> {
        scratch.reset(self, params.warp_size);
        let ws = params.warp_size as usize;
        let mut cur = self.entry;
        let full_mask: u32 = if params.warp_size == 32 {
            u32::MAX
        } else {
            (1u32 << params.warp_size) - 1
        };
        let mut mask = full_mask;
        for l in 0..params.warp_size {
            if geom.first_thread + l >= geom.block_dim {
                mask &= !(1 << l);
            }
        }
        let mut issue: u64 = 0;
        let mut executed: u64 = 0;
        let budget = params.max_warp_insts;

        'run: loop {
            // Drain reconvergence arrivals and dead masks before executing.
            loop {
                if mask == 0 {
                    match scratch.stack.last_mut() {
                        None => break 'run,
                        Some(top) => {
                            if let Some((b, m2)) = top.pending.take() {
                                cur = b;
                                mask = m2;
                                continue;
                            }
                            let joined = top.joined;
                            let reconv = top.reconv;
                            scratch.stack.pop();
                            if joined != 0 {
                                mask = joined;
                                assert!(
                                    reconv != NO_BLOCK,
                                    "joined lanes require a reconvergence block"
                                );
                                cur = reconv;
                            }
                            continue;
                        }
                    }
                }
                match scratch.stack.last_mut() {
                    Some(top) if top.reconv == cur => {
                        top.joined |= mask;
                        if let Some((b, m2)) = top.pending.take() {
                            cur = b;
                            mask = m2;
                        } else {
                            mask = top.joined;
                            scratch.stack.pop();
                        }
                        continue;
                    }
                    _ => break,
                }
            }

            let blk = &self.blocks[cur as usize];

            // Phase 1: phis as a parallel copy via the staging buffers.
            if !blk.phis.is_empty() {
                scratch.phi_s.clear();
                scratch.phi_v.clear();
                for (pix, phi) in blk.phis.iter().enumerate() {
                    let row = pix * blk.npreds;
                    let incoming = |prev: u32| -> Result<Operand, ExecError> {
                        // The last position of a repeated predecessor, as
                        // both edges of a two-way branch to one block.
                        blk.preds
                            .iter()
                            .rposition(|&p| p == prev)
                            .and_then(|pos| blk.phi_inc[row + pos])
                            .ok_or(ExecError::MissingPhiIncoming { phi: phi.id })
                    };
                    match phi.dest {
                        Dest::S(slot) => {
                            // Uniform phi: prev and the incoming value are
                            // identical across active lanes — read once via
                            // the first active lane.
                            let lane = mask.trailing_zeros() as usize;
                            let op = incoming(scratch.prev[lane])?;
                            let (tag, bits) = self.read(scratch, lane, op)?;
                            scratch.phi_s.push((slot, tag, bits));
                        }
                        Dest::V(slot) => {
                            // Hoist the incoming-table resolution when all
                            // active lanes arrived from the same
                            // predecessor (uniform branches and fused
                            // fall-throughs — the common case). Error
                            // identity and order are unchanged: a missing
                            // incoming is the same error for every lane.
                            let p0 = scratch.prev[mask.trailing_zeros() as usize];
                            if lanes(mask).all(|lane| scratch.prev[lane] == p0) {
                                let op = incoming(p0)?;
                                for lane in lanes(mask) {
                                    let (tag, bits) = self.read(scratch, lane, op)?;
                                    scratch.phi_v.push((slot, lane as u32, tag, bits));
                                }
                            } else {
                                for lane in lanes(mask) {
                                    let op = incoming(scratch.prev[lane])?;
                                    let (tag, bits) = self.read(scratch, lane, op)?;
                                    scratch.phi_v.push((slot, lane as u32, tag, bits));
                                }
                            }
                        }
                    }
                    m.count(InstClass::Misc, mask.count_ones());
                    issue += 1;
                    executed += 1;
                }
                for &(slot, tag, bits) in &scratch.phi_s {
                    scratch.sreg_bits[slot as usize] = bits;
                    scratch.sreg_tag[slot as usize] = tag;
                }
                for &(slot, lane, tag, bits) in &scratch.phi_v {
                    let at = slot as usize * LANES + lane as usize;
                    scratch.vreg_bits[at] = bits;
                    scratch.vreg_tag[at] = tag;
                }
            }
            if executed > budget {
                return Err(ExecError::StepBudgetExceeded { budget });
            }

            // Phase 2: the block's superblock stream — its own non-phi
            // instructions, any fused straight-line successors, and the
            // real terminator.
            let code = &self.code[blk.code as usize..(blk.code + blk.code_len) as usize];
            let mut next: Option<(u32, u32)> = None;
            let mut ip = 0usize;
            while ip < code.len() {
                let inst = &code[ip];
                if inst.run >= 2 {
                    // Fused run of pure vector instructions: dispatch each
                    // instruction once for the whole warp (`eval_warp`
                    // hoists opcode/operand dispatch out of the lane loop)
                    // with step-budget and metrics bookkeeping amortized
                    // over the run. Errors surface in instruction-major,
                    // lane-ascending order — exactly the reference
                    // interpreter's — and evaluation errors inside the
                    // allowed budget beat the budget error, which fires
                    // before the first over-budget instruction would
                    // execute. Metrics and issue cycles commit only on
                    // success (error-path metrics are discarded with the
                    // warp). The defensive `min` keeps a malformed
                    // (terminator-less) block from running past its
                    // stream.
                    let len = (inst.run as usize).min(code.len() - ip);
                    let exec_n = (budget.saturating_sub(executed) as usize).min(len);
                    for ri in &code[ip..ip + exec_n] {
                        self.eval_warp(scratch, &geom, mask, ri)?;
                    }
                    if exec_n < len {
                        return Err(ExecError::StepBudgetExceeded { budget });
                    }
                    let active = mask.count_ones();
                    for ri in &code[ip..ip + len] {
                        m.count(ri.class, active);
                        issue += ri.cost;
                    }
                    executed += len as u64;
                    ip += len;
                    continue;
                }
                let active = mask.count_ones();
                m.count(inst.class, active);
                issue += inst.cost;
                executed += 1;
                if executed > budget {
                    return Err(ExecError::StepBudgetExceeded { budget });
                }
                match &inst.op {
                    DOp::Load(ptr, width) => {
                        scratch.sectors.clear();
                        let mut done = false;
                        match (inst.dest, ptr) {
                            (Some(Dest::S(slot)), p) if !matches!(p, Operand::VReg(_)) => {
                                // Uniform load: one address serves the
                                // warp, so one windowed access replaces
                                // the per-lane re-reads whenever no fault
                                // injection is armed and the range is in
                                // bounds.
                                let lane = mask.trailing_zeros() as usize;
                                let addr = address(self.read(scratch, lane, *p)?)?;
                                if let Some(win) = mem.read_window(addr, *width) {
                                    let (tag, bits) = decode_mem(inst.ty, win, 0);
                                    scratch.sreg_bits[slot as usize] = bits;
                                    scratch.sreg_tag[slot as usize] = tag;
                                    let sector = addr / params.sector_bytes;
                                    scratch.sectors.push(sector);
                                    touched.insert(sector);
                                    m.gld_bytes += *width * active as u64;
                                    done = true;
                                }
                            }
                            (Some(Dest::V(slot)), Operand::VReg(r)) if mask == full_mask => {
                                // Coalesced load: all lanes active with
                                // unit-stride integer addresses is one
                                // bounds check and one contiguous copy.
                                // Any irregularity (bad tag, stride, OOB,
                                // armed fault countdown) falls back to the
                                // exact per-lane path.
                                if let Some(base) = scratch.unit_stride_base(*r, ws, *width) {
                                    if let Some(win) = mem.read_window(base, ws as u64 * *width) {
                                        let wid = *width as usize;
                                        for lane in 0..ws {
                                            let (tag, bits) = decode_mem(inst.ty, win, lane * wid);
                                            let at = slot as usize * LANES + lane;
                                            scratch.vreg_bits[at] = bits;
                                            scratch.vreg_tag[at] = tag;
                                            let sector =
                                                (base + lane as u64 * *width) / params.sector_bytes;
                                            // Addresses ascend, so a
                                            // last-entry check is an exact
                                            // dedupe.
                                            if scratch.sectors.last() != Some(&sector) {
                                                scratch.sectors.push(sector);
                                                touched.insert(sector);
                                            }
                                        }
                                        m.gld_bytes += *width * ws as u64;
                                        done = true;
                                    }
                                }
                            }
                            _ => {}
                        }
                        if !done {
                            for lane in lanes(mask) {
                                let addr = address(self.read(scratch, lane, *ptr)?)?;
                                let c = mem.read_scalar(addr, inst.ty)?;
                                let (tag, bits) = word::encode(c);
                                match inst.dest {
                                    Some(Dest::S(slot)) => {
                                        scratch.sreg_bits[slot as usize] = bits;
                                        scratch.sreg_tag[slot as usize] = tag;
                                    }
                                    Some(Dest::V(slot)) => {
                                        let at = slot as usize * LANES + lane;
                                        scratch.vreg_bits[at] = bits;
                                        scratch.vreg_tag[at] = tag;
                                    }
                                    None => {}
                                }
                                let sector = addr / params.sector_bytes;
                                if !scratch.sectors.contains(&sector) {
                                    scratch.sectors.push(sector);
                                    // Only a new sector can change the
                                    // launch-wide distinct-sector set.
                                    touched.insert(sector);
                                }
                                m.gld_bytes += width;
                            }
                        }
                        let tx = scratch.sectors.len() as u64;
                        m.mem_transactions += tx;
                        issue += tx * params.mem_tx_cycles;
                        // Sublinear cache-hit latency charge; see the
                        // reference interpreter for the model rationale.
                        let frac = active as f64 / params.warp_size as f64;
                        issue += (params.l1_latency as f64 * frac.powf(1.5)) as u64;
                    }
                    DOp::Store(ptr, value, width) => {
                        scratch.sectors.clear();
                        let mut done = false;
                        if mask == full_mask {
                            if let Operand::VReg(r) = ptr {
                                // Coalesced store: same unit-stride probe
                                // as the load fast path. Value reads are
                                // side-effect-free and a bail-out only
                                // leaves writes the per-lane path redoes
                                // identically, so falling back mid-loop is
                                // unobservable (gst_bytes commits at the
                                // end).
                                if let Some(base) = scratch.unit_stride_base(*r, ws, *width) {
                                    if let Some(win) = mem.write_window(base, ws as u64 * *width) {
                                        let wid = *width as usize;
                                        let mut ok = true;
                                        for lane in 0..ws {
                                            let (vtag, vbits) = self.read(scratch, lane, *value)?;
                                            let off = lane * wid;
                                            match (vtag, wid) {
                                                (TAG_I1, 1) => win[off] = (vbits != 0) as u8,
                                                (TAG_I32, 4) => win[off..off + 4].copy_from_slice(
                                                    &(vbits as i64 as i32).to_le_bytes(),
                                                ),
                                                (TAG_F32, 4) => win[off..off + 4]
                                                    .copy_from_slice(&(vbits as u32).to_le_bytes()),
                                                (TAG_I64, 8) | (TAG_F64, 8) => win[off..off + 8]
                                                    .copy_from_slice(&vbits.to_le_bytes()),
                                                _ => ok = false,
                                            }
                                            if !ok {
                                                break;
                                            }
                                            let sector =
                                                (base + lane as u64 * *width) / params.sector_bytes;
                                            if scratch.sectors.last() != Some(&sector) {
                                                scratch.sectors.push(sector);
                                                touched.insert(sector);
                                            }
                                        }
                                        if ok {
                                            m.gst_bytes += *width * ws as u64;
                                            done = true;
                                        }
                                    }
                                }
                            }
                        }
                        if !done {
                            scratch.sectors.clear();
                            for lane in lanes(mask) {
                                let addr = address(self.read(scratch, lane, *ptr)?)?;
                                let value = self.read(scratch, lane, *value)?;
                                mem.write_scalar(addr, word::decode(value))?;
                                let sector = addr / params.sector_bytes;
                                if !scratch.sectors.contains(&sector) {
                                    scratch.sectors.push(sector);
                                    touched.insert(sector);
                                }
                                m.gst_bytes += width;
                            }
                        }
                        let tx = scratch.sectors.len() as u64;
                        m.mem_transactions += tx;
                        issue += tx * params.mem_tx_cycles;
                    }
                    DOp::Br(target, owner) => {
                        scratch.set_prev(mask, *owner);
                        next = Some((*target, mask));
                    }
                    DOp::Fall(owner) => {
                        // Fused `Br`: account for it like the branch it
                        // replaces (done above), update phi provenance,
                        // and fall through to the successor's
                        // instructions, which follow immediately.
                        scratch.set_prev(mask, *owner);
                    }
                    DOp::Ret => {
                        next = Some((cur, 0)); // mask 0 triggers stack drain
                    }
                    DOp::CondBr {
                        cond,
                        if_true,
                        if_false,
                        uniform,
                        owner,
                        reconv,
                    } => {
                        let mut tmask = 0u32;
                        if *uniform {
                            // One evaluation decides the whole warp.
                            let lane = mask.trailing_zeros() as usize;
                            if condition(self.read(scratch, lane, *cond)?)? {
                                tmask = mask;
                            }
                        } else {
                            for lane in lanes(mask) {
                                if condition(self.read(scratch, lane, *cond)?)? {
                                    tmask |= 1 << lane;
                                }
                            }
                        }
                        let fmask = mask & !tmask;
                        scratch.set_prev(mask, *owner);
                        if if_true == if_false || fmask == 0 {
                            next = Some((*if_true, mask));
                        } else if tmask == 0 {
                            next = Some((*if_false, mask));
                        } else {
                            scratch.stack.push(DFrame {
                                reconv: *reconv,
                                pending: Some((*if_false, fmask)),
                                joined: 0,
                            });
                            next = Some((*if_true, tmask));
                        }
                    }
                    _ => self.eval_warp(scratch, &geom, mask, inst)?,
                }
                ip += 1;
            }
            let (nb, nm) = next.expect("block must end in a terminator");
            cur = nb;
            mask = nm;
        }
        Ok(issue)
    }
}
