//! Decode-once warp execution engine with warp-uniform scalarization:
//! lowering and superblock formation.
//!
//! The reference interpreter ([`crate::Warp`]) walks the `Function` arena
//! for every dynamic instruction of every warp: it re-fetches and clones
//! each [`uu_ir::Inst`] (heap traffic for phi/intrinsic operand vectors),
//! searches phi incoming lists linearly, allocates a fresh sector `HashSet`
//! and lane `Vec` per memory operation, and evaluates every value once per
//! lane even when all 32 lanes compute the same thing. Since each launch
//! runs the *same* function over hundreds of warps, this module instead
//! lowers the function once per launch into a dense [`DecodedKernel`]:
//!
//! * contiguous per-block instruction arrays (`DInst`) with the issue
//!   cost and metrics class precomputed;
//! * operands pre-resolved to `Operand` — an encoded constant (kernel
//!   arguments are baked in, since a decode is per launch) or a compact
//!   register slot (no arena lookups at run time);
//! * registers hold [`uu_ir::word`] tagged words — a raw 64-bit payload
//!   plus a one-byte runtime type tag — instead of `Option<Constant>`, and
//!   evaluation calls the `uu_ir::word` arithmetic cores (the ones
//!   [`uu_ir::fold`] wraps) directly on them: no enum boxing or unboxing
//!   per lane, and no second copy of the semantics;
//! * phi incomings pre-indexed by predecessor position, so a phi read is
//!   one table lookup instead of a list search;
//! * **warp-uniform scalarization**: values `uu_analysis::Uniformity`
//!   proves identical across lanes live in a scalar register file and are
//!   evaluated once per warp instead of once per lane.
//!
//! All warps of a launch share the decoded kernel immutably; the mutable
//! per-warp state lives in a [`crate::Scratch`] that is reused across warps
//! without reallocation. Execution (`DecodedKernel::run_warp`) lives in
//! the sibling `run` module.
//!
//! On top of the per-instruction lowering, decode builds **superblocks**:
//! an unconditional branch to a single-predecessor, phi-free block is
//! rewritten into a fall-through (`DOp::Fall`), so a straight-line chain
//! of blocks becomes one contiguous `DInst` stream executed without
//! bouncing through the dispatch loop. This is sound because such a
//! target can never be a reconvergence point: a frame's reconvergence
//! block is the *immediate* post-dominator of a divergent branch, and if
//! it had a single predecessor that predecessor would be a closer
//! post-dominator. Every chain member's stream is a suffix of its head's
//! stream, so entering mid-chain (from a branch or reconvergence) stays
//! well-defined. Within a stream, maximal runs of pure vector-register
//! instructions are dispatched as a unit — step-budget and metrics
//! bookkeeping amortize over the run — and every pure instruction is
//! evaluated warp-at-a-time by `eval_warp`, which hoists the opcode and
//! operand dispatch out of the lane loop: one `Operand` resolution per
//! operand per instruction, then a tight ascending-lane loop of loads,
//! arithmetic, and stores.
//!
//! Decoding itself is cached across launches — see [`crate::cache`].
//!
//! The engine is observationally identical to the reference interpreter:
//! same results, same [`crate::Metrics`], same issue cycles, same memory
//! access order (uniform loads/stores still perform one checked access per
//! active lane, so fault injection counts match), same errors in the same
//! order. Both engines evaluate through the one arithmetic core, so they
//! cannot disagree on a value; the differential oracle
//! (`tests/engine_differential.rs` and the uu-check corpus) pins
//! everything around it — operand and error order, masks, metrics. The
//! only permitted difference is host speed.

use crate::exec::{classify, issue_cost};
use crate::metrics::InstClass;
use uu_analysis::{PostDomTree, Uniformity};
use uu_ir::word::{encode, TAG_I1};
use uu_ir::{
    BinOp, CastOp, Constant, FCmpPred, Function, ICmpPred, InstId, InstKind, Intrinsic, Type, Value,
};

mod run;
pub use run::Scratch;

/// Reserved "no block" encoding for predecessor bookkeeping (the decoded
/// replacement for the reference interpreter's old sentinel block id).
const NO_BLOCK: u32 = u32::MAX;

/// A pre-resolved operand: everything `Warp::eval` decides per dynamic
/// instruction is decided once at decode time. Kernel arguments are baked
/// into `Const` because a [`DecodedKernel`] is built per launch, where the
/// argument constants are already known.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// An encoded constant (IR constant or kernel argument).
    Const(u8, u64),
    /// Scalar (warp-uniform) register slot.
    SReg(u32),
    /// Vector (per-lane) register slot.
    VReg(u32),
    /// Argument index that is out of range for this launch; reading it
    /// reproduces the reference interpreter's `BadArguments` error.
    BadArg(u32),
    /// An instruction result that is never defined (the instruction is in
    /// no linked block). Reading it reproduces the reference interpreter's
    /// `UndefinedValue` error for the recorded instruction.
    Undef(InstId),
}

/// Destination register of a value-producing instruction.
#[derive(Debug, Clone, Copy)]
enum Dest {
    /// Warp-uniform: evaluated once into the scalar file.
    S(u32),
    /// Lane-varying: evaluated per active lane into the vector file.
    V(u32),
}

/// Decoded instruction payload.
#[derive(Debug, Clone)]
enum DOp {
    /// Binary arithmetic.
    Bin(BinOp, Operand, Operand),
    /// Integer compare.
    ICmp(ICmpPred, Operand, Operand),
    /// Float compare.
    FCmp(FCmpPred, Operand, Operand),
    /// Predicated select.
    Select(Operand, Operand, Operand),
    /// Type conversion.
    Cast(CastOp, Operand),
    /// `base + index * scale`, scale pre-cast to `i64`.
    Gep(Operand, Operand, i64),
    /// Geometry intrinsic (threadIdx/blockIdx/blockDim/gridDim) or
    /// `__syncthreads`; no operands.
    Geom(Intrinsic),
    /// Math intrinsic with pre-resolved args (max arity 2, stored inline).
    Math(Intrinsic, [Operand; 2], u8),
    /// Load; the width is the decoded type's size in bytes.
    Load(Operand, u64),
    /// Store of (ptr, value, width).
    Store(Operand, Operand, u64),
    /// Unconditional branch `(target, owner)`; `owner` is the arena index
    /// of the block the branch belongs to (needed for phi `prev` tracking
    /// once blocks share a superblock stream).
    Br(u32, u32),
    /// A `Br` whose target was fused into this stream: the successor's
    /// instructions follow immediately, so execution falls through after
    /// updating `prev` to the owner block. Costs exactly what the `Br` it
    /// replaces cost (class/cost are carried by the surrounding `DInst`).
    Fall(u32),
    /// Conditional branch; `uniform` records whether the condition is
    /// warp-uniform (no lane split possible), `owner` the containing
    /// block's arena index, and `reconv` that block's immediate
    /// post-dominator (the reconvergence point on divergence).
    CondBr {
        cond: Operand,
        if_true: u32,
        if_false: u32,
        uniform: bool,
        owner: u32,
        reconv: u32,
    },
    /// Return (lane retirement).
    Ret,
}

/// One decoded non-phi instruction.
#[derive(Debug, Clone)]
struct DInst {
    op: DOp,
    /// Metrics class, precomputed.
    class: InstClass,
    /// Issue cost in cycles, precomputed.
    cost: u64,
    /// Where the result goes, if the instruction produces a value.
    dest: Option<Dest>,
    /// Result type (load width / cast target / intrinsic result pick).
    ty: Type,
    /// Originating instruction, for error reporting parity with the
    /// reference interpreter.
    id: InstId,
    /// Length of the maximal run of pure vector-destination instructions
    /// starting here (0 if this instruction does not start one). Runs are
    /// dispatched as a unit (one budget check, batched metrics); they
    /// never span a terminator, so they never cross block or stream
    /// boundaries.
    run: u32,
}

/// One decoded phi.
#[derive(Debug, Clone)]
struct DPhi {
    dest: Dest,
    id: InstId,
}

/// A decoded basic block.
#[derive(Debug, Clone, Default)]
struct DBlock {
    /// Leading phis, in program order.
    phis: Vec<DPhi>,
    /// Phi incomings as a dense `phis.len() × npreds` row-major table:
    /// `phi_inc[p * npreds + k]` is phi `p`'s value when entering from the
    /// k-th predecessor; `None` reproduces `MissingPhiIncoming`.
    phi_inc: Vec<Option<Operand>>,
    /// Number of CFG predecessors (row stride of `phi_inc`).
    npreds: usize,
    /// Arena index of the k-th predecessor, for blocks with phis (empty
    /// otherwise): phi entry searches it for the lane's previous block.
    preds: Vec<u32>,
    /// Start of this block's instruction stream in [`DecodedKernel::code`].
    /// The stream covers the block's own non-phi instructions plus any
    /// fused straight-line successors (a chain member's stream is a suffix
    /// of its head's stream).
    code: u32,
    /// Stream length in instructions.
    code_len: u32,
    /// Immediate post-dominator (reconvergence point of a divergent branch
    /// in this block), `NO_BLOCK` if none.
    ipdom: u32,
}

/// A function lowered for execution: built once per launch by
/// [`DecodedKernel::decode`], then shared immutably by every warp.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    blocks: Vec<DBlock>,
    /// All instruction streams, concatenated; blocks index into this via
    /// `code`/`code_len`.
    code: Vec<DInst>,
    entry: u32,
    num_sregs: u32,
    num_vregs: u32,
    /// Scalar slot → defining instruction (for `UndefinedValue` parity).
    sreg_inst: Vec<InstId>,
    /// Vector slot → defining instruction.
    vreg_inst: Vec<InstId>,
}

impl DecodedKernel {
    /// Lower `f` for execution with the launch arguments `args` (baked into
    /// operands). `uni` decides which values are scalarized; `pdom` provides
    /// the reconvergence points. Both are computed from the same `f` by the
    /// caller (the launch path).
    pub fn decode(f: &Function, pdom: &PostDomTree, uni: &Uniformity, args: &[Constant]) -> Self {
        Self::decode_inner(f, pdom, uni, args, true)
    }

    /// [`DecodedKernel::decode`] with superblock fusion disabled: every
    /// block keeps its own stream and every `Br` stays a dispatch. Used by
    /// the differential tests to pin fused execution against unfused.
    pub fn decode_unfused(
        f: &Function,
        pdom: &PostDomTree,
        uni: &Uniformity,
        args: &[Constant],
    ) -> Self {
        Self::decode_inner(f, pdom, uni, args, false)
    }

    fn decode_inner(
        f: &Function,
        pdom: &PostDomTree,
        uni: &Uniformity,
        args: &[Constant],
        fuse: bool,
    ) -> Self {
        let nslots = f.num_inst_slots();
        // Pass 1: allocate a register slot for every linked value-producing
        // instruction. Conservative and simple: every non-terminator,
        // non-store instruction gets a slot (the reference interpreter also
        // writes a register for void intrinsic results).
        let mut dest: Vec<Option<Dest>> = vec![None; nslots];
        let mut sreg_inst = Vec::new();
        let mut vreg_inst = Vec::new();
        for (id, inst) in f.iter_insts() {
            if matches!(
                inst.kind,
                InstKind::Store { .. }
                    | InstKind::Br { .. }
                    | InstKind::CondBr { .. }
                    | InstKind::Ret { .. }
            ) {
                continue;
            }
            let d = if uni.is_uniform(Value::Inst(id)) {
                let s = sreg_inst.len() as u32;
                sreg_inst.push(id);
                Dest::S(s)
            } else {
                let v = vreg_inst.len() as u32;
                vreg_inst.push(id);
                Dest::V(v)
            };
            dest[id.index()] = Some(d);
        }

        let resolve = |v: Value| -> Operand {
            match v {
                Value::Const(c) => {
                    let (tag, bits) = encode(c);
                    Operand::Const(tag, bits)
                }
                Value::Arg(i) => match args.get(i as usize) {
                    Some(c) => {
                        let (tag, bits) = encode(*c);
                        Operand::Const(tag, bits)
                    }
                    None => Operand::BadArg(i),
                },
                Value::Inst(id) => match dest[id.index()] {
                    Some(Dest::S(s)) => Operand::SReg(s),
                    Some(Dest::V(r)) => Operand::VReg(r),
                    // Defined in no linked block: reading it is always an
                    // undefined-value error, as in the reference.
                    None => Operand::Undef(id),
                },
            }
        };
        let uniform_op = |o: &Operand| !matches!(o, Operand::VReg(_));

        // Pass 2: lower blocks into per-block buffers (arena-indexed;
        // unlinked slots stay empty). Stream assembly below moves these
        // into the shared `code` array.
        let preds = f.predecessors();
        let nblocks = preds.len();
        let mut blocks = vec![DBlock::default(); nblocks];
        let mut lowered: Vec<Vec<DInst>> = vec![Vec::new(); nblocks];
        for &b in f.layout() {
            let bi = b.index();
            let db = &mut blocks[bi];
            let bpreds = &preds[bi];
            db.npreds = bpreds.len();
            db.ipdom = match pdom.ipdom(b) {
                Some(r) => r.index() as u32,
                None => NO_BLOCK,
            };
            for &id in &f.block(b).insts {
                let inst = f.inst(id);
                if let InstKind::Phi { incomings } = &inst.kind {
                    // Phis lead the block (verifier-enforced); index their
                    // incomings by predecessor position.
                    debug_assert!(lowered[bi].is_empty());
                    if db.preds.is_empty() {
                        db.preds = bpreds.iter().map(|p| p.index() as u32).collect();
                    }
                    for p in bpreds {
                        let inc = incomings
                            .iter()
                            .find(|(pb, _)| pb == p)
                            .map(|(_, v)| resolve(*v));
                        db.phi_inc.push(inc);
                    }
                    db.phis.push(DPhi {
                        dest: dest[id.index()].expect("phi produces a value"),
                        id,
                    });
                    continue;
                }
                let op = match &inst.kind {
                    InstKind::Bin { op, lhs, rhs } => DOp::Bin(*op, resolve(*lhs), resolve(*rhs)),
                    InstKind::ICmp { pred, lhs, rhs } => {
                        DOp::ICmp(*pred, resolve(*lhs), resolve(*rhs))
                    }
                    InstKind::FCmp { pred, lhs, rhs } => {
                        DOp::FCmp(*pred, resolve(*lhs), resolve(*rhs))
                    }
                    InstKind::Select {
                        cond,
                        on_true,
                        on_false,
                    } => DOp::Select(resolve(*cond), resolve(*on_true), resolve(*on_false)),
                    InstKind::Cast { op, value } => DOp::Cast(*op, resolve(*value)),
                    InstKind::Gep { base, index, scale } => {
                        DOp::Gep(resolve(*base), resolve(*index), *scale as i64)
                    }
                    InstKind::Load { ptr } => DOp::Load(resolve(*ptr), inst.ty.size_bytes()),
                    InstKind::Store { ptr, value } => DOp::Store(
                        resolve(*ptr),
                        resolve(*value),
                        f.value_type(*value).size_bytes(),
                    ),
                    InstKind::Intr { which, args: iargs } => match which {
                        Intrinsic::ThreadIdxX
                        | Intrinsic::BlockIdxX
                        | Intrinsic::BlockDimX
                        | Intrinsic::GridDimX
                        | Intrinsic::Syncthreads => DOp::Geom(*which),
                        _ => {
                            let mut ops = [Operand::Const(TAG_I1, 0); 2];
                            for (k, a) in iargs.iter().enumerate() {
                                ops[k] = resolve(*a);
                            }
                            DOp::Math(*which, ops, iargs.len() as u8)
                        }
                    },
                    InstKind::Br { target } => DOp::Br(target.index() as u32, bi as u32),
                    InstKind::CondBr {
                        cond,
                        if_true,
                        if_false,
                    } => {
                        let c = resolve(*cond);
                        let uniform = uniform_op(&c);
                        DOp::CondBr {
                            cond: c,
                            if_true: if_true.index() as u32,
                            if_false: if_false.index() as u32,
                            uniform,
                            owner: bi as u32,
                            reconv: db.ipdom,
                        }
                    }
                    InstKind::Ret { .. } => DOp::Ret,
                    InstKind::Phi { .. } => unreachable!("handled above"),
                };
                lowered[bi].push(DInst {
                    class: classify(&inst.kind),
                    cost: issue_cost(&inst.kind),
                    dest: dest[id.index()],
                    ty: inst.ty,
                    id,
                    op,
                    run: 0,
                });
            }
        }

        // Superblock formation. A block is fused into its predecessor's
        // stream iff it has exactly one predecessor, no phis, is not the
        // entry, and that predecessor ends in an unconditional `Br` to it.
        // Such a block can never be a reconvergence target (see the module
        // docs), so skipping the dispatch loop between predecessor and
        // block is unobservable.
        let entry_ix = f.entry().index();
        let mut fused = vec![false; nblocks];
        if fuse {
            for &t in f.layout() {
                let ti = t.index();
                if ti == entry_ix || blocks[ti].npreds != 1 || !blocks[ti].phis.is_empty() {
                    continue;
                }
                let p = preds[ti][0].index();
                if p == ti {
                    continue;
                }
                if let Some(DInst {
                    op: DOp::Br(tt, _), ..
                }) = lowered[p].last()
                {
                    if *tt as usize == ti {
                        fused[ti] = true;
                    }
                }
            }
        }

        // Stream assembly: every unfused block heads a chain; intermediate
        // `Br`s become `Fall`s and each chain member's stream is the suffix
        // of the head's stream starting at its own instructions, so any
        // branch or reconvergence entering mid-chain stays well-defined.
        let mut code: Vec<DInst> = Vec::new();
        let mut assigned = vec![false; nblocks];
        let mut chain: Vec<usize> = Vec::new();
        for &h in f.layout() {
            let hi = h.index();
            if fused[hi] || assigned[hi] {
                continue;
            }
            chain.clear();
            let mut b = hi;
            loop {
                assigned[b] = true;
                chain.push(b);
                blocks[b].code = code.len() as u32;
                let had = !lowered[b].is_empty();
                code.append(&mut lowered[b]);
                if !had {
                    // Malformed (terminator-less) block: leave the stream
                    // empty so running it panics exactly like the
                    // reference ("block must end in a terminator").
                    break;
                }
                let last = code.last_mut().expect("just appended");
                match last.op {
                    DOp::Br(t, owner) if fused[t as usize] && !assigned[t as usize] => {
                        last.op = DOp::Fall(owner);
                        b = t as usize;
                    }
                    _ => break,
                }
            }
            let end = code.len() as u32;
            for &cb in &chain {
                blocks[cb].code_len = end - blocks[cb].code;
            }
        }
        // Fully-fused cycles (only possible in unreachable code) never get
        // a head above; give each member its own stream so dispatch stays
        // well-defined if one is ever entered.
        for &b in f.layout() {
            let bi = b.index();
            if assigned[bi] {
                continue;
            }
            blocks[bi].code = code.len() as u32;
            code.append(&mut lowered[bi]);
            blocks[bi].code_len = code.len() as u32 - blocks[bi].code;
        }

        // Run lengths for lane-major execution: `run` = length of the
        // maximal run of pure vector-destination instructions starting at
        // each position. Terminators are never pure, so runs cannot cross
        // block (or stream) boundaries.
        for i in (0..code.len()).rev() {
            let pure_v = matches!(code[i].dest, Some(Dest::V(_)))
                && !matches!(
                    code[i].op,
                    DOp::Load(..)
                        | DOp::Store(..)
                        | DOp::Br(..)
                        | DOp::Fall(_)
                        | DOp::CondBr { .. }
                        | DOp::Ret
                );
            if pure_v {
                code[i].run = 1 + if i + 1 < code.len() { code[i + 1].run } else { 0 };
            }
        }

        DecodedKernel {
            blocks,
            code,
            entry: f.entry().index() as u32,
            num_sregs: sreg_inst.len() as u32,
            num_vregs: vreg_inst.len() as u32,
            sreg_inst,
            vreg_inst,
        }
    }
}
