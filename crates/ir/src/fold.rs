//! Constant folding of individual instructions.
//!
//! This module is the single source of truth for the *evaluation semantics*
//! of pure instructions: the optimizer's SCCP pass and the SIMT simulator
//! both delegate here, so a folded program cannot diverge from an executed
//! one. The arithmetic itself lives in [`crate::word`], on tagged machine
//! words; the `fold_*` functions are its `Constant`-level entry points
//! (`encode → core → decode`), and the simulator's decoded engine calls
//! the same cores on its register words directly.

use crate::constant::Constant;
use crate::inst::{BinOp, CastOp, FCmpPred, ICmpPred, Inst, InstKind, Intrinsic};
use crate::types::Type;
use crate::word::{self, decode, encode};

/// Evaluate a binary operation over two constants.
///
/// Returns `None` on type mismatch. Integer division/remainder by zero
/// evaluates to zero (a total semantics chosen for the simulator; real GPUs
/// leave it undefined).
#[inline]
pub fn fold_bin(op: BinOp, lhs: Constant, rhs: Constant) -> Option<Constant> {
    word::bin(op, encode(lhs), encode(rhs)).map(decode)
}

/// Evaluate an integer comparison over two constants.
#[inline]
pub fn fold_icmp(pred: ICmpPred, lhs: Constant, rhs: Constant) -> Option<Constant> {
    word::icmp(pred, encode(lhs), encode(rhs)).map(decode)
}

/// Evaluate a float comparison over two constants.
#[inline]
pub fn fold_fcmp(pred: FCmpPred, lhs: Constant, rhs: Constant) -> Option<Constant> {
    word::fcmp(pred, encode(lhs), encode(rhs)).map(decode)
}

/// Evaluate a cast over a constant, producing a value of `to` type.
#[inline]
pub fn fold_cast(op: CastOp, value: Constant, to: Type) -> Option<Constant> {
    word::cast(op, encode(value), to).map(decode)
}

/// Evaluate an address computation `base + index * scale` over constants.
#[inline]
pub fn fold_gep(base: Constant, index: Constant, scale: u64) -> Option<Constant> {
    word::gep(encode(base), encode(index), scale as i64).map(decode)
}

/// Evaluate a pure math intrinsic over constant arguments.
///
/// Returns `None` for non-pure intrinsics (thread geometry, barriers) — those
/// depend on execution context.
#[inline]
pub fn fold_intrinsic(which: Intrinsic, args: &[Constant], ty: Type) -> Option<Constant> {
    // No foldable intrinsic reads past its second argument.
    let mut words = [(word::TAG_UNDEF, 0); 2];
    let n = args.len().min(words.len());
    for (w, &a) in words.iter_mut().zip(args) {
        *w = encode(a);
    }
    word::intrinsic(which, &words[..n], ty).map(decode)
}

/// Fold a whole instruction if every operand is constant.
pub(crate) fn fold_inst(inst: &Inst) -> Option<Constant> {
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => fold_bin(*op, lhs.as_const()?, rhs.as_const()?),
        InstKind::ICmp { pred, lhs, rhs } => fold_icmp(*pred, lhs.as_const()?, rhs.as_const()?),
        InstKind::FCmp { pred, lhs, rhs } => fold_fcmp(*pred, lhs.as_const()?, rhs.as_const()?),
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => {
            let c = cond.as_const()?.as_bool()?;
            if c {
                on_true.as_const()
            } else {
                on_false.as_const()
            }
        }
        InstKind::Cast { op, value } => fold_cast(*op, value.as_const()?, inst.ty),
        InstKind::Gep { base, index, scale } => {
            fold_gep(base.as_const()?, index.as_const()?, *scale)
        }
        InstKind::Intr { which, args } => {
            let consts: Option<Vec<Constant>> = args.iter().map(|a| a.as_const()).collect();
            fold_intrinsic(*which, &consts?, inst.ty)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::Value;

    #[test]
    fn int_arith() {
        let c = |v: i64| Constant::I64(v);
        assert_eq!(fold_bin(BinOp::Add, c(2), c(3)), Some(c(5)));
        assert_eq!(fold_bin(BinOp::Sub, c(2), c(3)), Some(c(-1)));
        assert_eq!(fold_bin(BinOp::Mul, c(4), c(3)), Some(c(12)));
        assert_eq!(fold_bin(BinOp::SDiv, c(7), c(2)), Some(c(3)));
        assert_eq!(fold_bin(BinOp::SDiv, c(7), c(0)), Some(c(0)));
        assert_eq!(fold_bin(BinOp::SRem, c(7), c(3)), Some(c(1)));
        assert_eq!(fold_bin(BinOp::URem, c(7), c(0)), Some(c(0)));
        assert_eq!(fold_bin(BinOp::Shl, c(1), c(4)), Some(c(16)));
        assert_eq!(fold_bin(BinOp::LShr, c(16), c(2)), Some(c(4)));
        assert_eq!(fold_bin(BinOp::AShr, c(-8), c(1)), Some(c(-4)));
        assert_eq!(fold_bin(BinOp::And, c(6), c(3)), Some(c(2)));
        assert_eq!(fold_bin(BinOp::Or, c(6), c(3)), Some(c(7)));
        assert_eq!(fold_bin(BinOp::Xor, c(6), c(3)), Some(c(5)));
    }

    #[test]
    fn i32_wraps() {
        let c = |v: i32| Constant::I32(v);
        assert_eq!(fold_bin(BinOp::Add, c(i32::MAX), c(1)), Some(c(i32::MIN)));
        assert_eq!(
            fold_bin(BinOp::LShr, c(-1), c(1)),
            Some(c(((u32::MAX) >> 1) as i32))
        );
    }

    #[test]
    fn float_arith() {
        let c = Constant::f64;
        assert_eq!(fold_bin(BinOp::FAdd, c(1.5), c(2.0)), Some(c(3.5)));
        assert_eq!(fold_bin(BinOp::FDiv, c(1.0), c(4.0)), Some(c(0.25)));
        // f32 rounds through f32 precision.
        assert_eq!(
            fold_bin(BinOp::FMul, Constant::f32(0.5), Constant::f32(3.0)),
            Some(Constant::f32(1.5))
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            fold_icmp(ICmpPred::Slt, Constant::I64(-1), Constant::I64(1)),
            Some(Constant::I1(true))
        );
        assert_eq!(
            fold_icmp(ICmpPred::Ult, Constant::I64(-1), Constant::I64(1)),
            Some(Constant::I1(false))
        );
        assert_eq!(
            fold_fcmp(FCmpPred::Ogt, Constant::f64(2.0), Constant::f64(1.0)),
            Some(Constant::I1(true))
        );
        assert_eq!(
            fold_fcmp(FCmpPred::Olt, Constant::f64(f64::NAN), Constant::f64(1.0)),
            Some(Constant::I1(false))
        );
        assert_eq!(
            fold_fcmp(FCmpPred::Une, Constant::f64(f64::NAN), Constant::f64(1.0)),
            Some(Constant::I1(true))
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            fold_cast(CastOp::Sext, Constant::I32(-1), Type::I64),
            Some(Constant::I64(-1))
        );
        assert_eq!(
            fold_cast(CastOp::Zext, Constant::I32(-1), Type::I64),
            Some(Constant::I64(u32::MAX as i64))
        );
        assert_eq!(
            fold_cast(CastOp::Sext, Constant::I1(true), Type::I32),
            Some(Constant::I32(-1))
        );
        assert_eq!(
            fold_cast(CastOp::Zext, Constant::I1(true), Type::I32),
            Some(Constant::I32(1))
        );
        assert_eq!(
            fold_cast(CastOp::Trunc, Constant::I64(0x1_0000_0001), Type::I32),
            Some(Constant::I32(1))
        );
        assert_eq!(
            fold_cast(CastOp::SiToFp, Constant::I64(3), Type::F64),
            Some(Constant::f64(3.0))
        );
        assert_eq!(
            fold_cast(CastOp::FpToSi, Constant::f64(3.9), Type::I64),
            Some(Constant::I64(3))
        );
        assert_eq!(
            fold_cast(CastOp::FpCast, Constant::f64(0.5), Type::F32),
            Some(Constant::f32(0.5))
        );
    }

    #[test]
    fn intrinsics() {
        assert_eq!(
            fold_intrinsic(Intrinsic::Sqrt, &[Constant::f64(9.0)], Type::F64),
            Some(Constant::f64(3.0))
        );
        assert_eq!(
            fold_intrinsic(
                Intrinsic::SMin,
                &[Constant::I64(2), Constant::I64(-5)],
                Type::I64
            ),
            Some(Constant::I64(-5))
        );
        assert_eq!(
            fold_intrinsic(Intrinsic::ThreadIdxX, &[], Type::I32),
            None,
            "thread geometry is context dependent and must not fold"
        );
    }

    #[test]
    fn whole_inst_fold() {
        let add = Inst::new(
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::imm(2i64),
                rhs: Value::imm(3i64),
            },
            Type::I64,
        );
        assert_eq!(add.fold(), Some(Constant::I64(5)));

        let gep = Inst::new(
            InstKind::Gep {
                base: Value::imm(100i64),
                index: Value::imm(3i64),
                scale: 8,
            },
            Type::Ptr,
        );
        assert_eq!(gep.fold(), Some(Constant::I64(124)));

        let sel = Inst::new(
            InstKind::Select {
                cond: Value::imm(true),
                on_true: Value::imm(1i32),
                on_false: Value::imm(2i32),
            },
            Type::I32,
        );
        assert_eq!(sel.fold(), Some(Constant::I32(1)));

        let unfoldable = Inst::new(
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::Arg(0),
                rhs: Value::imm(3i64),
            },
            Type::I64,
        );
        assert_eq!(unfoldable.fold(), None);
    }
}
