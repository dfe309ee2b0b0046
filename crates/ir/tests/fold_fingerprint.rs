//! Semantics fingerprint of `uu_ir::fold`: the printed result of every
//! foldable operation over a table of edge-case operands, hashed per
//! operation against `tests/golden/fold.fnv`.
//!
//! The golden file was produced by the `fold.rs` that predates the shared
//! word cores (`uu_ir::word`) and is committed unchanged, so it pins the
//! refactor to the old evaluator bit for bit. Both entry points are walked
//! — the `Constant`-level `fold_*` wrappers and the word cores the decoded
//! simulator engine calls — and must agree entry by entry, `None` included.
//!
//! An intended semantics change re-blesses with
//! `UU_UPDATE_GOLDEN=1 cargo test -p uu-ir --test fold_fingerprint`.

use std::fmt::Write as _;
use std::path::PathBuf;
use uu_ir::word::{self, decode, encode, Word};
use uu_ir::{fnv1a, fold, BinOp, CastOp, Constant, FCmpPred, ICmpPred, Intrinsic, Type};

const TYPES: [Type; 7] = [
    Type::I1,
    Type::I32,
    Type::I64,
    Type::F32,
    Type::F64,
    Type::Ptr,
    Type::Void,
];

/// Edge-case operands of every type. Binary operations walk the full
/// cross product, so mismatched-type pairs (which must give `None` or the
/// lhs-typed result, whichever the parent gave) are covered by construction.
fn operands() -> Vec<Constant> {
    let mut v = vec![Constant::I1(false), Constant::I1(true)];
    // 0, ±1, min, max, shift amounts around the width, a sign-bit pattern.
    v.extend([0, 1, -1, i32::MIN, i32::MAX, 7, 31, 32, 33, 0x4000_0001].map(Constant::I32));
    v.extend(
        [
            0,
            1,
            -1,
            i64::MIN,
            i64::MAX,
            7,
            63,
            64,
            65,
            0x1_0000_0001,
            -0x8000_0001,
        ]
        .map(Constant::I64),
    );
    v.extend(
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            3.9,
            -3.9,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::MAX,
            3.0e9,
        ]
        .map(Constant::f32),
    );
    v.extend(
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            3.9,
            -3.9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0e300,
            -1.0e19,
            3.0e9,
        ]
        .map(Constant::f64),
    );
    v
}

/// One evaluator under test.
struct Sem {
    bin: fn(BinOp, Constant, Constant) -> Option<Constant>,
    icmp: fn(ICmpPred, Constant, Constant) -> Option<Constant>,
    fcmp: fn(FCmpPred, Constant, Constant) -> Option<Constant>,
    cast: fn(CastOp, Constant, Type) -> Option<Constant>,
    intrinsic: fn(Intrinsic, &[Constant], Type) -> Option<Constant>,
}

const CONSTANTS: Sem = Sem {
    bin: fold::fold_bin,
    icmp: fold::fold_icmp,
    fcmp: fold::fold_fcmp,
    cast: fold::fold_cast,
    intrinsic: fold::fold_intrinsic,
};

/// The cores the decoded simulator engine calls, on encoded operands.
const WORDS: Sem = Sem {
    bin: |op, a, b| word::bin(op, encode(a), encode(b)).map(decode),
    icmp: |pred, a, b| word::icmp(pred, encode(a), encode(b)).map(decode),
    fcmp: |pred, a, b| word::fcmp(pred, encode(a), encode(b)).map(decode),
    cast: |op, v, to| word::cast(op, encode(v), to).map(decode),
    intrinsic: |which, args, ty| {
        let words: Vec<Word> = args.iter().map(|&a| encode(a)).collect();
        word::intrinsic(which, &words, ty).map(decode)
    },
};

/// Walk every operation; one `(label, entries)` group per operation, one
/// `operands -> result` line per entry.
fn walk(sem: &Sem) -> Vec<(String, String)> {
    let ops = operands();
    let mut groups = Vec::new();
    let mut pairs = |label: String, eval: &dyn Fn(Constant, Constant) -> Option<Constant>| {
        let mut text = String::new();
        for &a in &ops {
            for &b in &ops {
                writeln!(text, "{a:?} {b:?} -> {:?}", eval(a, b)).unwrap();
            }
        }
        groups.push((label, text));
    };
    for &op in BinOp::ALL {
        pairs(format!("bin {op:?}"), &|a, b| (sem.bin)(op, a, b));
    }
    for &pred in ICmpPred::ALL {
        pairs(format!("icmp {pred:?}"), &|a, b| (sem.icmp)(pred, a, b));
    }
    for &pred in FCmpPred::ALL {
        pairs(format!("fcmp {pred:?}"), &|a, b| (sem.fcmp)(pred, a, b));
    }
    for &op in CastOp::ALL {
        let mut text = String::new();
        for to in TYPES {
            for &v in &ops {
                writeln!(text, "{v:?} to {to:?} -> {:?}", (sem.cast)(op, v, to)).unwrap();
            }
        }
        groups.push((format!("cast {op:?}"), text));
    }
    // Every intrinsic, the context-dependent ones included: those must
    // print `None` for every input.
    for &which in Intrinsic::ALL {
        let mut text = String::new();
        for ty in TYPES {
            // Arity 0, 1 and 2: a missing argument must give `None`.
            writeln!(text, "{ty:?} () -> {:?}", (sem.intrinsic)(which, &[], ty)).unwrap();
            for &a in &ops {
                let r = (sem.intrinsic)(which, &[a], ty);
                writeln!(text, "{ty:?} ({a:?}) -> {r:?}").unwrap();
                for &b in &ops {
                    let r = (sem.intrinsic)(which, &[a, b], ty);
                    writeln!(text, "{ty:?} ({a:?}, {b:?}) -> {r:?}").unwrap();
                }
            }
        }
        groups.push((format!("intrinsic {which:?}"), text));
    }
    groups
}

fn fingerprint(groups: &[(String, String)]) -> String {
    groups
        .iter()
        .map(|(label, text)| format!("{:016x} {label}\n", fnv1a(text.as_bytes())))
        .collect()
}

#[test]
fn fold_semantics_match_the_blessed_fingerprint() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fold.fnv");
    let groups = walk(&CONSTANTS);
    for ((label, folded), (_, cores)) in groups.iter().zip(walk(&WORDS)) {
        if let Some((f, c)) = folded.lines().zip(cores.lines()).find(|(f, c)| f != c) {
            panic!("{label}: fold says `{f}`, the word core says `{c}`");
        }
    }
    let got = fingerprint(&groups);
    if std::env::var_os("UU_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty()) {
        std::fs::write(&path, &got).expect("write fold.fnv");
        return;
    }
    let blessed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let moved: Vec<(&str, &str)> = got
        .lines()
        .zip(blessed.lines())
        .filter(|(g, b)| g != b)
        .collect();
    assert!(
        moved.is_empty() && got.lines().count() == blessed.lines().count(),
        "evaluation semantics moved (got, blessed): {moved:#?}"
    );
}
