//! Tagged machine words and the arithmetic cores that evaluate on them.
//!
//! A [`Word`] is a [`Constant`] flattened to `(type tag, 64-bit payload)`:
//! integers are stored sign-extended to `i64` (what [`Constant::as_i64`]
//! returns), floats as their raw bits. The five cores below — [`bin`],
//! [`icmp`], [`fcmp`], [`cast`], [`intrinsic`] — are the workspace's only
//! definition of each arithmetic rule. [`crate::fold`] wraps them as
//! `encode → core → decode` for the optimizer and the reference
//! interpreter; the decoded simulator engine keeps its register files as
//! words and calls the cores directly, with no `Constant` boxing per lane.
//!
//! Every core returns `None` when an operand has the wrong kind of type
//! for the operation (an integer where a float is required, or
//! [`TAG_UNDEF`]).

use crate::constant::Constant;
use crate::inst::{BinOp, CastOp, FCmpPred, ICmpPred, Intrinsic};
use crate::types::Type;

/// `(type tag, payload)`.
pub type Word = (u8, u64);

/// Tag of a never-written register. Zero, so zeroing a tag array marks
/// every register undefined; no [`Constant`] encodes to it.
pub const TAG_UNDEF: u8 = 0;
/// Tag of an `i1` word (payload 0 or 1).
pub const TAG_I1: u8 = 1;
/// Tag of an `i32` word (payload sign-extended).
pub const TAG_I32: u8 = 2;
/// Tag of an `i64` (or pointer) word.
pub const TAG_I64: u8 = 3;
/// Tag of an `f32` word (payload = raw bits, zero-extended).
pub const TAG_F32: u8 = 4;
/// Tag of an `f64` word (payload = raw bits).
pub const TAG_F64: u8 = 5;

/// Encode a [`Constant`] as a word.
#[inline]
pub fn encode(c: Constant) -> Word {
    match c {
        Constant::I1(b) => (TAG_I1, b as u64),
        Constant::I32(v) => (TAG_I32, v as i64 as u64),
        Constant::I64(v) => (TAG_I64, v as u64),
        Constant::F32Bits(b) => (TAG_F32, b as u64),
        Constant::F64Bits(b) => (TAG_F64, b),
    }
}

/// Decode a word back into a [`Constant`]; the inverse of [`encode`].
///
/// # Panics
///
/// Panics on [`TAG_UNDEF`] (or any other non-tag byte): callers reject
/// undefined registers before they decode.
#[inline]
pub fn decode((tag, bits): Word) -> Constant {
    match tag {
        TAG_I1 => Constant::I1(bits != 0),
        TAG_I32 => Constant::I32(bits as i64 as i32),
        TAG_I64 => Constant::I64(bits as i64),
        TAG_F32 => Constant::F32Bits(bits as u32),
        TAG_F64 => Constant::F64Bits(bits),
        _ => unreachable!("read of an undefined register is rejected earlier"),
    }
}

/// Whether `tag` is one of the integer tags.
#[inline]
pub fn is_int(tag: u8) -> bool {
    (TAG_I1..=TAG_I64).contains(&tag)
}

/// [`Constant::as_i64`] on a word.
#[inline]
pub fn as_i64((tag, bits): Word) -> Option<i64> {
    is_int(tag).then_some(bits as i64)
}

/// [`Constant::as_f64`] on a word.
#[inline]
pub fn as_f64((tag, bits): Word) -> Option<f64> {
    match tag {
        TAG_F32 => Some(f32::from_bits(bits as u32) as f64),
        TAG_F64 => Some(f64::from_bits(bits)),
        _ => None,
    }
}

/// [`Constant::as_bool`] on a word.
#[inline]
pub fn as_bool((tag, bits): Word) -> Option<bool> {
    (tag == TAG_I1).then_some(bits != 0)
}

/// [`Type::int_bits`] on a runtime tag.
#[inline]
fn int_bits(tag: u8) -> Option<u32> {
    match tag {
        TAG_I1 => Some(1),
        TAG_I32 => Some(32),
        TAG_I64 => Some(64),
        _ => None,
    }
}

/// The low `bits` bits of `v` (the unsigned view of a sign-extended payload).
#[inline]
fn low_bits(v: i64, bits: u32) -> u64 {
    let umask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (v as u64) & umask
}

/// An integer result of static type `ty`, truncated to that width and
/// stored sign-extended. Anything but `i1`/`i32` is 64 bits wide.
#[inline]
fn int_word(ty: Type, v: i64) -> Word {
    match ty {
        Type::I1 => (TAG_I1, (v & 1 != 0) as u64),
        Type::I32 => (TAG_I32, v as i32 as i64 as u64),
        _ => (TAG_I64, v as u64),
    }
}

/// An integer result that is an `i32` when `ty` says so and an `i64`
/// (or pointer) otherwise.
#[inline]
fn i32_or_i64(ty: Type, v: i64) -> Word {
    int_word(if ty == Type::I32 { ty } else { Type::I64 }, v)
}

/// A float result: rounded through `f32` when `single`, else an `f64`.
#[inline]
fn float_word(single: bool, v: f64) -> Word {
    if single {
        (TAG_F32, (v as f32).to_bits() as u64)
    } else {
        (TAG_F64, v.to_bits())
    }
}

/// Evaluate a binary operation. The result takes the lhs type.
///
/// Integer division/remainder by zero evaluates to zero (a total
/// semantics chosen for the simulator; real GPUs leave it undefined).
#[inline(always)]
pub fn bin(op: BinOp, lhs: Word, rhs: Word) -> Option<Word> {
    let ltag = lhs.0;
    if op.is_float() {
        let a = as_f64(lhs)?;
        let b = as_f64(rhs)?;
        let r = match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            _ => unreachable!(),
        };
        return Some(float_word(ltag == TAG_F32, r));
    }
    let a = as_i64(lhs)?;
    let b = as_i64(rhs)?;
    let bits = int_bits(ltag)?;
    let ua = low_bits(a, bits);
    let ub = low_bits(b, bits);
    let shamt = (ub % bits as u64) as u32;
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::UDiv => {
            if ub == 0 {
                0
            } else {
                (ua / ub) as i64
            }
        }
        BinOp::SRem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::URem => {
            if ub == 0 {
                0
            } else {
                (ua % ub) as i64
            }
        }
        BinOp::Shl => (ua << shamt) as i64,
        BinOp::LShr => (ua >> shamt) as i64,
        BinOp::AShr => match ltag {
            TAG_I32 => ((a as i32) >> shamt) as i64,
            _ => a >> shamt,
        },
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        _ => unreachable!(),
    };
    // Truncate to the lhs width.
    Some(match ltag {
        TAG_I1 => int_word(Type::I1, r),
        TAG_I32 => int_word(Type::I32, r),
        _ => int_word(Type::I64, r),
    })
}

/// Evaluate an integer comparison; unsigned predicates compare at the
/// lhs width.
#[inline(always)]
pub fn icmp(pred: ICmpPred, lhs: Word, rhs: Word) -> Option<Word> {
    let a = as_i64(lhs)?;
    let b = as_i64(rhs)?;
    let bits = int_bits(lhs.0)?;
    let ua = low_bits(a, bits);
    let ub = low_bits(b, bits);
    let r = match pred {
        ICmpPred::Eq => a == b,
        ICmpPred::Ne => a != b,
        ICmpPred::Slt => a < b,
        ICmpPred::Sle => a <= b,
        ICmpPred::Sgt => a > b,
        ICmpPred::Sge => a >= b,
        ICmpPred::Ult => ua < ub,
        ICmpPred::Ule => ua <= ub,
        ICmpPred::Ugt => ua > ub,
        ICmpPred::Uge => ua >= ub,
    };
    Some((TAG_I1, r as u64))
}

/// Evaluate a float comparison (ordered, except `Une`).
#[inline(always)]
pub fn fcmp(pred: FCmpPred, lhs: Word, rhs: Word) -> Option<Word> {
    let a = as_f64(lhs)?;
    let b = as_f64(rhs)?;
    let r = match pred {
        FCmpPred::Oeq => a == b,
        FCmpPred::Une => a != b || a.is_nan() || b.is_nan(),
        FCmpPred::Olt => a < b,
        FCmpPred::Ole => a <= b,
        FCmpPred::Ogt => a > b,
        FCmpPred::Oge => a >= b,
    };
    Some((TAG_I1, r as u64))
}

/// Evaluate a cast, producing a value of type `to`.
#[inline(always)]
pub fn cast(op: CastOp, value: Word, to: Type) -> Option<Word> {
    match op {
        CastOp::Sext => {
            let v = as_i64(value)?;
            // LLVM `sext i1 true` is -1; the payload holds +1.
            let v = if value.0 == TAG_I1 && v == 1 { -1 } else { v };
            Some(i32_or_i64(to, v))
        }
        CastOp::Zext => {
            let v = low_bits(as_i64(value)?, int_bits(value.0)?) as i64;
            Some(i32_or_i64(to, v))
        }
        CastOp::Trunc => Some(int_word(to, as_i64(value)?)),
        CastOp::SiToFp => {
            let v = as_i64(value)?;
            Some(match to {
                Type::F32 => (TAG_F32, (v as f32).to_bits() as u64),
                _ => (TAG_F64, (v as f64).to_bits()),
            })
        }
        CastOp::FpToSi => {
            // `as` saturates; NaN converts to zero.
            let v = as_f64(value)?;
            Some(match to {
                Type::I32 => int_word(to, v as i32 as i64),
                _ => int_word(Type::I64, v as i64),
            })
        }
        CastOp::FpCast => Some(float_word(to == Type::F32, as_f64(value)?)),
        CastOp::IntToPtr | CastOp::PtrToInt => Some(int_word(Type::I64, as_i64(value)?)),
    }
}

/// Evaluate a pure math intrinsic of result type `ty`.
///
/// Returns `None` for the context-dependent intrinsics (thread geometry,
/// barriers) and when an argument is missing.
#[inline(always)]
pub fn intrinsic(which: Intrinsic, args: &[Word], ty: Type) -> Option<Word> {
    let f = |k: usize| args.get(k).copied().and_then(as_f64);
    let i = |k: usize| args.get(k).copied().and_then(as_i64);
    let fout = |v: f64| Some(float_word(ty == Type::F32, v));
    let iout = |v: i64| Some(i32_or_i64(ty, v));
    match which {
        Intrinsic::Sqrt => fout(f(0)?.sqrt()),
        Intrinsic::Fabs => fout(f(0)?.abs()),
        Intrinsic::Exp => fout(f(0)?.exp()),
        Intrinsic::Log => fout(f(0)?.ln()),
        Intrinsic::Sin => fout(f(0)?.sin()),
        Intrinsic::Cos => fout(f(0)?.cos()),
        Intrinsic::FMin => fout(f(0)?.min(f(1)?)),
        Intrinsic::FMax => fout(f(0)?.max(f(1)?)),
        Intrinsic::SMin => iout(i(0)?.min(i(1)?)),
        Intrinsic::SMax => iout(i(0)?.max(i(1)?)),
        Intrinsic::ThreadIdxX
        | Intrinsic::BlockIdxX
        | Intrinsic::BlockDimX
        | Intrinsic::GridDimX
        | Intrinsic::Syncthreads => None,
    }
}
