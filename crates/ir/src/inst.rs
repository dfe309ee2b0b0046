//! Instructions: opcodes, operand access, and classification.

use crate::constant::Constant;
use crate::entities::{BlockId, Value};
use crate::types::Type;
use std::fmt;

/// Binary arithmetic / bitwise opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Signed integer division. Division by zero yields zero in the
    /// simulator (GPU semantics are undefined; we pick a total behaviour).
    SDiv,
    /// Unsigned integer division.
    UDiv,
    /// Signed remainder.
    SRem,
    /// Unsigned remainder.
    URem,
    /// Shift left.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
}

impl BinOp {
    /// Whether the operation is commutative (used for value-numbering
    /// canonicalization).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// Whether the operation works on floats.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Integer comparison predicates (LLVM `icmp` subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ICmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
    /// Unsigned less than.
    Ult,
    /// Unsigned less or equal.
    Ule,
    /// Unsigned greater than.
    Ugt,
    /// Unsigned greater or equal.
    Uge,
}

impl ICmpPred {
    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> Self {
        match self {
            ICmpPred::Eq => ICmpPred::Eq,
            ICmpPred::Ne => ICmpPred::Ne,
            ICmpPred::Slt => ICmpPred::Sgt,
            ICmpPred::Sle => ICmpPred::Sge,
            ICmpPred::Sgt => ICmpPred::Slt,
            ICmpPred::Sge => ICmpPred::Sle,
            ICmpPred::Ult => ICmpPred::Ugt,
            ICmpPred::Ule => ICmpPred::Uge,
            ICmpPred::Ugt => ICmpPred::Ult,
            ICmpPred::Uge => ICmpPred::Ule,
        }
    }

    /// The logical negation of the predicate (`!(a < b)` ⇔ `a >= b`).
    pub fn inverted(self) -> Self {
        match self {
            ICmpPred::Eq => ICmpPred::Ne,
            ICmpPred::Ne => ICmpPred::Eq,
            ICmpPred::Slt => ICmpPred::Sge,
            ICmpPred::Sle => ICmpPred::Sgt,
            ICmpPred::Sgt => ICmpPred::Sle,
            ICmpPred::Sge => ICmpPred::Slt,
            ICmpPred::Ult => ICmpPred::Uge,
            ICmpPred::Ule => ICmpPred::Ugt,
            ICmpPred::Ugt => ICmpPred::Ule,
            ICmpPred::Uge => ICmpPred::Ult,
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmpPred::Eq => "eq",
            ICmpPred::Ne => "ne",
            ICmpPred::Slt => "slt",
            ICmpPred::Sle => "sle",
            ICmpPred::Sgt => "sgt",
            ICmpPred::Sge => "sge",
            ICmpPred::Ult => "ult",
            ICmpPred::Ule => "ule",
            ICmpPred::Ugt => "ugt",
            ICmpPred::Uge => "uge",
        }
    }
}

impl fmt::Display for ICmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Float comparison predicates. All are "ordered" (false on NaN) except
/// [`FCmpPred::Une`], matching how C comparisons lower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpPred {
    /// Ordered equal.
    Oeq,
    /// Unordered not-equal (true if either operand is NaN).
    Une,
    /// Ordered less than.
    Olt,
    /// Ordered less or equal.
    Ole,
    /// Ordered greater than.
    Ogt,
    /// Ordered greater or equal.
    Oge,
}

impl FCmpPred {
    /// The predicate with operands swapped.
    pub fn swapped(self) -> Self {
        match self {
            FCmpPred::Oeq => FCmpPred::Oeq,
            FCmpPred::Une => FCmpPred::Une,
            FCmpPred::Olt => FCmpPred::Ogt,
            FCmpPred::Ole => FCmpPred::Oge,
            FCmpPred::Ogt => FCmpPred::Olt,
            FCmpPred::Oge => FCmpPred::Ole,
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmpPred::Oeq => "oeq",
            FCmpPred::Une => "une",
            FCmpPred::Olt => "olt",
            FCmpPred::Ole => "ole",
            FCmpPred::Ogt => "ogt",
            FCmpPred::Oge => "oge",
        }
    }
}

impl fmt::Display for FCmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Conversion opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Sign-extend a narrower integer.
    Sext,
    /// Zero-extend a narrower integer.
    Zext,
    /// Truncate a wider integer.
    Trunc,
    /// Signed integer to float.
    SiToFp,
    /// Float to signed integer (round toward zero).
    FpToSi,
    /// `f32` ↔ `f64` conversion.
    FpCast,
    /// Reinterpret an integer as a pointer (no-op in the simulator).
    IntToPtr,
    /// Reinterpret a pointer as an integer (no-op in the simulator).
    PtrToInt,
}

impl CastOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Sext => "sext",
            CastOp::Zext => "zext",
            CastOp::Trunc => "trunc",
            CastOp::SiToFp => "sitofp",
            CastOp::FpToSi => "fptosi",
            CastOp::FpCast => "fpcast",
            CastOp::IntToPtr => "inttoptr",
            CastOp::PtrToInt => "ptrtoint",
        }
    }
}

impl fmt::Display for CastOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// GPU and math intrinsics.
///
/// Thread geometry intrinsics mirror CUDA special registers.
/// [`Intrinsic::Syncthreads`] is *convergent*: it must not be made
/// control-dependent on additional conditions, which is exactly why the u&u
/// pass refuses to transform loops containing it (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `threadIdx.x`.
    ThreadIdxX,
    /// `blockIdx.x`.
    BlockIdxX,
    /// `blockDim.x`.
    BlockDimX,
    /// `gridDim.x`.
    GridDimX,
    /// `__syncthreads()` barrier — convergent.
    Syncthreads,
    /// Square root.
    Sqrt,
    /// Absolute value (float).
    Fabs,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Float minimum.
    FMin,
    /// Float maximum.
    FMax,
    /// Signed integer minimum.
    SMin,
    /// Signed integer maximum.
    SMax,
}

impl Intrinsic {
    /// Whether the intrinsic is convergent (cannot be duplicated onto
    /// divergent paths).
    pub fn is_convergent(self) -> bool {
        matches!(self, Intrinsic::Syncthreads)
    }

    /// Whether the intrinsic reads thread geometry (`threadIdx` etc.) — the
    /// taint sources for divergence analysis.
    pub fn is_thread_id(self) -> bool {
        matches!(self, Intrinsic::ThreadIdxX)
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::ThreadIdxX
            | Intrinsic::BlockIdxX
            | Intrinsic::BlockDimX
            | Intrinsic::GridDimX
            | Intrinsic::Syncthreads => 0,
            Intrinsic::Sqrt
            | Intrinsic::Fabs
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::Sin
            | Intrinsic::Cos => 1,
            Intrinsic::FMin | Intrinsic::FMax | Intrinsic::SMin | Intrinsic::SMax => 2,
        }
    }

    /// Result type of the intrinsic given float width `fw` (`F32` or `F64`)
    /// for the math intrinsics.
    pub fn result_type(self, fw: Type) -> Type {
        match self {
            Intrinsic::ThreadIdxX
            | Intrinsic::BlockIdxX
            | Intrinsic::BlockDimX
            | Intrinsic::GridDimX => Type::I32,
            Intrinsic::Syncthreads => Type::Void,
            Intrinsic::SMin | Intrinsic::SMax => fw,
            _ => fw,
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Intrinsic::ThreadIdxX => "thread.idx.x",
            Intrinsic::BlockIdxX => "block.idx.x",
            Intrinsic::BlockDimX => "block.dim.x",
            Intrinsic::GridDimX => "grid.dim.x",
            Intrinsic::Syncthreads => "syncthreads",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::FMin => "fmin",
            Intrinsic::FMax => "fmax",
            Intrinsic::SMin => "smin",
            Intrinsic::SMax => "smax",
        }
    }
}

impl fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The payload of an instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Binary arithmetic: `op lhs, rhs`.
    Bin {
        /// Opcode.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Integer comparison producing `i1`.
    ICmp {
        /// Predicate.
        pred: ICmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Float comparison producing `i1`.
    FCmp {
        /// Predicate.
        pred: FCmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Predicated select: `cond ? on_true : on_false` (PTX `selp`).
    Select {
        /// `i1` condition.
        cond: Value,
        /// Value if the condition is true.
        on_true: Value,
        /// Value if the condition is false.
        on_false: Value,
    },
    /// Type conversion.
    Cast {
        /// Conversion opcode.
        op: CastOp,
        /// Source value.
        value: Value,
    },
    /// Load from global memory. The instruction's type is the loaded type.
    Load {
        /// Byte address.
        ptr: Value,
    },
    /// Store to global memory.
    Store {
        /// Byte address.
        ptr: Value,
        /// Value stored; its type determines the access width.
        value: Value,
    },
    /// Address computation: `base + index * scale` (a flattened GEP).
    Gep {
        /// Base pointer.
        base: Value,
        /// Element index (i32 or i64; sign extended).
        index: Value,
        /// Element size in bytes.
        scale: u64,
    },
    /// SSA phi node.
    Phi {
        /// `(predecessor block, incoming value)` pairs.
        incomings: Vec<(BlockId, Value)>,
    },
    /// Intrinsic call.
    Intr {
        /// Which intrinsic.
        which: Intrinsic,
        /// Arguments (arity checked by the verifier).
        args: Vec<Value>,
    },
    /// Unconditional branch.
    Br {
        /// Destination block.
        target: BlockId,
    },
    /// Two-way conditional branch.
    CondBr {
        /// `i1` condition.
        cond: Value,
        /// Taken when the condition is true.
        if_true: BlockId,
        /// Taken when the condition is false.
        if_false: BlockId,
    },
    /// Return from the kernel/function.
    Ret {
        /// Returned value, if the function returns one.
        value: Option<Value>,
    },
}

impl InstKind {
    /// Whether this instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. }
        )
    }

    /// Whether this instruction is a phi node.
    pub fn is_phi(&self) -> bool {
        matches!(self, InstKind::Phi { .. })
    }

    /// Whether this instruction has side effects that forbid removal even if
    /// the result is unused.
    pub fn has_side_effects(&self) -> bool {
        match self {
            InstKind::Store { .. } | InstKind::Ret { .. } => true,
            InstKind::Br { .. } | InstKind::CondBr { .. } => true,
            InstKind::Intr { which, .. } => which.is_convergent(),
            _ => false,
        }
    }

    /// Whether the instruction reads memory.
    pub fn reads_memory(&self) -> bool {
        matches!(self, InstKind::Load { .. })
    }

    /// Whether the instruction writes memory.
    pub fn writes_memory(&self) -> bool {
        matches!(self, InstKind::Store { .. })
    }

    /// Whether the instruction is convergent.
    pub fn is_convergent(&self) -> bool {
        matches!(self, InstKind::Intr { which, .. } if which.is_convergent())
    }

    /// Collect all value operands, in a fixed order.
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(*v));
        out
    }

    /// Visit every value operand by shared reference.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Value)) {
        match self {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            InstKind::Cast { value, .. } => f(value),
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            InstKind::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    f(v);
                }
            }
            InstKind::Intr { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => f(cond),
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
        }
    }

    /// Visit every value operand by mutable reference.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            InstKind::Cast { value, .. } => f(value),
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            InstKind::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    f(v);
                }
            }
            InstKind::Intr { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => f(cond),
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
        }
    }

    /// Successor blocks if this is a terminator (empty otherwise).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            InstKind::Br { target } => vec![*target],
            InstKind::CondBr {
                if_true, if_false, ..
            } => vec![*if_true, *if_false],
            _ => Vec::new(),
        }
    }

    /// Replace every reference to block `from` with `to` in branch targets
    /// and phi incoming labels.
    pub fn replace_block(&mut self, from: BlockId, to: BlockId) {
        match self {
            InstKind::Br { target }
                if *target == from => {
                    *target = to;
                }
            InstKind::CondBr {
                if_true, if_false, ..
            } => {
                if *if_true == from {
                    *if_true = to;
                }
                if *if_false == from {
                    *if_false = to;
                }
            }
            InstKind::Phi { incomings } => {
                for (b, _) in incomings {
                    if *b == from {
                        *b = to;
                    }
                }
            }
            _ => {}
        }
    }
}

/// An instruction: its opcode payload plus its result type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Opcode and operands.
    pub kind: InstKind,
    /// Result type ([`Type::Void`] for instructions without a result).
    pub ty: Type,
}

impl Inst {
    /// Construct an instruction.
    pub fn new(kind: InstKind, ty: Type) -> Self {
        Inst { kind, ty }
    }

    /// Constant-fold this instruction if all operands are constants.
    ///
    /// Returns `None` when the instruction cannot be folded (non-constant
    /// operands, memory or control instructions).
    pub fn fold(&self) -> Option<Constant> {
        crate::fold::fold_inst(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_invert_and_swap() {
        assert_eq!(ICmpPred::Slt.inverted(), ICmpPred::Sge);
        assert_eq!(ICmpPred::Slt.swapped(), ICmpPred::Sgt);
        assert_eq!(ICmpPred::Eq.swapped(), ICmpPred::Eq);
        for p in [
            ICmpPred::Eq,
            ICmpPred::Ne,
            ICmpPred::Slt,
            ICmpPred::Sle,
            ICmpPred::Sgt,
            ICmpPred::Sge,
            ICmpPred::Ult,
            ICmpPred::Ule,
            ICmpPred::Ugt,
            ICmpPred::Uge,
        ] {
            assert_eq!(p.inverted().inverted(), p);
            assert_eq!(p.swapped().swapped(), p);
        }
        assert_eq!(FCmpPred::Olt.swapped(), FCmpPred::Ogt);
    }

    #[test]
    fn classification() {
        let br = InstKind::Br {
            target: BlockId::from_index(0),
        };
        assert!(br.is_terminator());
        assert!(br.has_side_effects());
        assert!(!br.is_phi());

        let sync = InstKind::Intr {
            which: Intrinsic::Syncthreads,
            args: vec![],
        };
        assert!(sync.is_convergent());
        assert!(sync.has_side_effects());

        let tid = InstKind::Intr {
            which: Intrinsic::ThreadIdxX,
            args: vec![],
        };
        assert!(!tid.is_convergent());
        assert!(!tid.has_side_effects());

        let ld = InstKind::Load {
            ptr: Value::Arg(0),
        };
        assert!(ld.reads_memory() && !ld.writes_memory());
        let st = InstKind::Store {
            ptr: Value::Arg(0),
            value: Value::imm(1i32),
        };
        assert!(st.writes_memory() && !st.reads_memory());
    }

    #[test]
    fn operand_iteration_and_mutation() {
        let mut k = InstKind::Select {
            cond: Value::Arg(0),
            on_true: Value::Arg(1),
            on_false: Value::imm(2i32),
        };
        assert_eq!(k.operands().len(), 3);
        k.for_each_operand_mut(|v| {
            if *v == Value::Arg(1) {
                *v = Value::imm(9i32);
            }
        });
        assert_eq!(
            k.operands()[1].as_const().and_then(|c| c.as_i64()),
            Some(9)
        );
    }

    #[test]
    fn successors_and_replace_block() {
        let b0 = BlockId::from_index(0);
        let b1 = BlockId::from_index(1);
        let b2 = BlockId::from_index(2);
        let mut cb = InstKind::CondBr {
            cond: Value::Arg(0),
            if_true: b0,
            if_false: b1,
        };
        assert_eq!(cb.successors(), vec![b0, b1]);
        cb.replace_block(b1, b2);
        assert_eq!(cb.successors(), vec![b0, b2]);

        let mut phi = InstKind::Phi {
            incomings: vec![(b0, Value::Arg(0)), (b1, Value::Arg(1))],
        };
        phi.replace_block(b0, b2);
        match &phi {
            InstKind::Phi { incomings } => assert_eq!(incomings[0].0, b2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn intrinsic_metadata() {
        assert!(Intrinsic::Syncthreads.is_convergent());
        assert!(!Intrinsic::Sqrt.is_convergent());
        assert!(Intrinsic::ThreadIdxX.is_thread_id());
        assert_eq!(Intrinsic::FMin.arity(), 2);
        assert_eq!(Intrinsic::Sqrt.arity(), 1);
        assert_eq!(Intrinsic::Syncthreads.arity(), 0);
        assert_eq!(Intrinsic::ThreadIdxX.result_type(Type::F64), Type::I32);
        assert_eq!(Intrinsic::Sqrt.result_type(Type::F64), Type::F64);
    }
}
