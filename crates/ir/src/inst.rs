//! Instructions: opcodes, operand access, and classification.

use crate::constant::Constant;
use crate::entities::{BlockId, Value};
use crate::types::Type;
use std::fmt;

/// Declare an opcode enum together with its one mnemonic table: the
/// variants, `ALL` (every variant, in declaration order), `mnemonic()` and
/// `Display`. The printer writes `mnemonic()` and the parser searches `ALL`
/// for it, so a variant added here is printable and parseable at once.
macro_rules! opcodes {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $mnemonic:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// Mnemonic used by the printer and the parser.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$variant => $mnemonic,)*
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.mnemonic())
            }
        }
    };
}

opcodes! {
    /// Binary arithmetic / bitwise opcodes.
    pub enum BinOp {
        /// Integer addition (wrapping).
        Add => "add",
        /// Integer subtraction (wrapping).
        Sub => "sub",
        /// Integer multiplication (wrapping).
        Mul => "mul",
        /// Signed integer division. Division by zero yields zero in the
        /// simulator (GPU semantics are undefined; we pick a total behaviour).
        SDiv => "sdiv",
        /// Unsigned integer division.
        UDiv => "udiv",
        /// Signed remainder.
        SRem => "srem",
        /// Unsigned remainder.
        URem => "urem",
        /// Shift left.
        Shl => "shl",
        /// Logical shift right.
        LShr => "lshr",
        /// Arithmetic shift right.
        AShr => "ashr",
        /// Bitwise and.
        And => "and",
        /// Bitwise or.
        Or => "or",
        /// Bitwise xor.
        Xor => "xor",
        /// Float addition.
        FAdd => "fadd",
        /// Float subtraction.
        FSub => "fsub",
        /// Float multiplication.
        FMul => "fmul",
        /// Float division.
        FDiv => "fdiv",
    }
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
}

opcodes! {
    /// Integer comparison predicates (LLVM `icmp` subset).
    pub enum ICmpPred {
        /// Equal.
        Eq => "eq",
        /// Not equal.
        Ne => "ne",
        /// Signed less than.
        Slt => "slt",
        /// Signed less or equal.
        Sle => "sle",
        /// Signed greater than.
        Sgt => "sgt",
        /// Signed greater or equal.
        Sge => "sge",
        /// Unsigned less than.
        Ult => "ult",
        /// Unsigned less or equal.
        Ule => "ule",
        /// Unsigned greater than.
        Ugt => "ugt",
        /// Unsigned greater or equal.
        Uge => "uge",
    }
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
}

opcodes! {
    /// Float comparison predicates. All are "ordered" (false on NaN) except
    /// [`FCmpPred::Une`], matching how C comparisons lower.
    pub enum FCmpPred {
        /// Ordered equal.
        Oeq => "oeq",
        /// Unordered not-equal (true if either operand is NaN).
        Une => "une",
        /// Ordered less than.
        Olt => "olt",
        /// Ordered less or equal.
        Ole => "ole",
        /// Ordered greater than.
        Ogt => "ogt",
        /// Ordered greater or equal.
        Oge => "oge",
    }
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
}

opcodes! {
    /// Conversion opcodes.
    pub enum CastOp {
        /// Sign-extend a narrower integer.
        Sext => "sext",
        /// Zero-extend a narrower integer.
        Zext => "zext",
        /// Truncate a wider integer.
        Trunc => "trunc",
        /// Signed integer to float.
        SiToFp => "sitofp",
        /// Float to signed integer (round toward zero).
        FpToSi => "fptosi",
        /// `f32` ↔ `f64` conversion.
        FpCast => "fpcast",
        /// Reinterpret an integer as a pointer (no-op in the simulator).
        IntToPtr => "inttoptr",
        /// Reinterpret a pointer as an integer (no-op in the simulator).
        PtrToInt => "ptrtoint",
    }
}

opcodes! {
    /// GPU and math intrinsics.
    ///
    /// Thread geometry intrinsics mirror CUDA special registers.
    /// [`Intrinsic::Syncthreads`] is *convergent*: it must not be made
    /// control-dependent on additional conditions, which is exactly why the u&u
    /// pass refuses to transform loops containing it (paper §III-C).
    pub enum Intrinsic {
        /// `threadIdx.x`.
        ThreadIdxX => "thread.idx.x",
        /// `blockIdx.x`.
        BlockIdxX => "block.idx.x",
        /// `blockDim.x`.
        BlockDimX => "block.dim.x",
        /// `gridDim.x`.
        GridDimX => "grid.dim.x",
        /// `__syncthreads()` barrier — convergent.
        Syncthreads => "syncthreads",
        /// Square root.
        Sqrt => "sqrt",
        /// Absolute value (float).
        Fabs => "fabs",
        /// Natural exponential.
        Exp => "exp",
        /// Natural logarithm.
        Log => "log",
        /// Sine.
        Sin => "sin",
        /// Cosine.
        Cos => "cos",
        /// Float minimum.
        FMin => "fmin",
        /// Float maximum.
        FMax => "fmax",
        /// Signed integer minimum.
        SMin => "smin",
        /// Signed integer maximum.
        SMax => "smax",
    }
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
