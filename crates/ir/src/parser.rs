//! Parser for the textual IR syntax emitted by [`printer`](crate::printer).
//!
//! The printed and parsed forms round-trip: `parse(print(f))` produces a
//! function that prints identically. This makes test fixtures and example
//! kernels writable as text:
//!
//! ```
//! let f = uu_ir::parse_function(r#"
//! fn @count(i64 %n) -> i64 {
//! bb0:
//!   br bb1
//! bb1:
//!   %1 = phi i64 [0, bb0], [%3, bb2]
//!   %2 = icmp slt i64 %1, %n
//!   br i1 %2, bb2, bb3
//! bb2:
//!   %3 = add i64 %1, 1
//!   br bb1
//! bb3:
//!   ret i64 %1
//! }
//! "#).unwrap();
//! uu_ir::verify_function(&f).unwrap();
//! ```

use crate::{
    BinOp, BlockId, CastOp, Constant, FCmpPred, Function, ICmpPred, Inst, InstId, InstKind,
    Intrinsic, Param, Type, Value,
};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// A parse failure, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the input.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Symbolic operand before resolution.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// `%3` — an instruction result by textual id.
    InstRef(u32),
    /// `%name` — a parameter reference.
    ParamRef(String),
    /// A literal constant of the annotated type.
    Lit(String),
}

fn parse_tok(s: &str) -> Tok {
    if let Some(rest) = s.strip_prefix('%') {
        if let Ok(n) = rest.parse::<u32>() {
            Tok::InstRef(n)
        } else {
            Tok::ParamRef(rest.to_string())
        }
    } else {
        Tok::Lit(s.to_string())
    }
}

fn parse_type(s: &str, line: usize) -> Result<Type, ParseError> {
    match s {
        "i1" => Ok(Type::I1),
        "i32" => Ok(Type::I32),
        "i64" => Ok(Type::I64),
        "f32" => Ok(Type::F32),
        "f64" => Ok(Type::F64),
        "ptr" => Ok(Type::Ptr),
        "void" => Ok(Type::Void),
        other => err(line, format!("unknown type `{other}`")),
    }
}

fn parse_const(s: &str, ty: Type, line: usize) -> Result<Constant, ParseError> {
    let c = match ty {
        Type::I1 => match s {
            "true" => Constant::I1(true),
            "false" => Constant::I1(false),
            _ => return err(line, format!("bad i1 literal `{s}`")),
        },
        Type::I32 => Constant::I32(
            s.parse()
                .map_err(|_| ParseError {
                    line,
                    message: format!("bad i32 literal `{s}`"),
                })?,
        ),
        Type::I64 | Type::Ptr => Constant::I64(
            s.parse()
                .map_err(|_| ParseError {
                    line,
                    message: format!("bad i64 literal `{s}`"),
                })?,
        ),
        Type::F32 => Constant::f32(s.parse().map_err(|_| ParseError {
            line,
            message: format!("bad f32 literal `{s}`"),
        })?),
        Type::F64 => Constant::f64(s.parse().map_err(|_| ParseError {
            line,
            message: format!("bad f64 literal `{s}`"),
        })?),
        Type::Void => return err(line, "void literal"),
    };
    Ok(c)
}

fn binop_of(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "sdiv" => BinOp::SDiv,
        "udiv" => BinOp::UDiv,
        "srem" => BinOp::SRem,
        "urem" => BinOp::URem,
        "shl" => BinOp::Shl,
        "lshr" => BinOp::LShr,
        "ashr" => BinOp::AShr,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "fadd" => BinOp::FAdd,
        "fsub" => BinOp::FSub,
        "fmul" => BinOp::FMul,
        "fdiv" => BinOp::FDiv,
        _ => return None,
    })
}

fn icmp_of(s: &str) -> Option<ICmpPred> {
    Some(match s {
        "eq" => ICmpPred::Eq,
        "ne" => ICmpPred::Ne,
        "slt" => ICmpPred::Slt,
        "sle" => ICmpPred::Sle,
        "sgt" => ICmpPred::Sgt,
        "sge" => ICmpPred::Sge,
        "ult" => ICmpPred::Ult,
        "ule" => ICmpPred::Ule,
        "ugt" => ICmpPred::Ugt,
        "uge" => ICmpPred::Uge,
        _ => return None,
    })
}

fn fcmp_of(s: &str) -> Option<FCmpPred> {
    Some(match s {
        "oeq" => FCmpPred::Oeq,
        "une" => FCmpPred::Une,
        "olt" => FCmpPred::Olt,
        "ole" => FCmpPred::Ole,
        "ogt" => FCmpPred::Ogt,
        "oge" => FCmpPred::Oge,
        _ => return None,
    })
}

fn cast_of(s: &str) -> Option<CastOp> {
    Some(match s {
        "sext" => CastOp::Sext,
        "zext" => CastOp::Zext,
        "trunc" => CastOp::Trunc,
        "sitofp" => CastOp::SiToFp,
        "fptosi" => CastOp::FpToSi,
        "fpcast" => CastOp::FpCast,
        "inttoptr" => CastOp::IntToPtr,
        "ptrtoint" => CastOp::PtrToInt,
        _ => return None,
    })
}

fn intrinsic_of(s: &str) -> Option<Intrinsic> {
    Some(match s {
        "thread.idx.x" => Intrinsic::ThreadIdxX,
        "block.idx.x" => Intrinsic::BlockIdxX,
        "block.dim.x" => Intrinsic::BlockDimX,
        "grid.dim.x" => Intrinsic::GridDimX,
        "syncthreads" => Intrinsic::Syncthreads,
        "sqrt" => Intrinsic::Sqrt,
        "fabs" => Intrinsic::Fabs,
        "exp" => Intrinsic::Exp,
        "log" => Intrinsic::Log,
        "sin" => Intrinsic::Sin,
        "cos" => Intrinsic::Cos,
        "fmin" => Intrinsic::FMin,
        "fmax" => Intrinsic::FMax,
        "smin" => Intrinsic::SMin,
        "smax" => Intrinsic::SMax,
        _ => None?,
    })
}

/// One parsed-but-unresolved instruction.
#[derive(Debug)]
struct PendingInst {
    text_id: Option<u32>,
    line: usize,
    kind: PendingKind,
    /// Index of the containing block's label, in textual order.
    block: usize,
}

#[derive(Debug)]
enum PendingKind {
    Bin(BinOp, Type, Tok, Tok),
    ICmp(ICmpPred, Type, Tok, Tok),
    FCmp(FCmpPred, Type, Tok, Tok),
    Select(Type, Tok, Tok, Tok),
    Cast(CastOp, Type, Tok, Type),
    Load(Type, Tok),
    Store(Type, Tok, Tok),
    Gep(Tok, Tok, u64),
    Phi(Type, Vec<(String, Tok)>),
    Intr(Type, Intrinsic, Vec<Tok>),
    Br(String),
    CondBr(Tok, String, String),
    RetVoid,
    Ret(Type, Tok),
}

/// Parse one function from the printer's textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for malformed input.
/// Parsing does not run the verifier; call
/// [`verify_function`](crate::verify_function) on the result if structural
/// validity matters.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with(';'));

    // Header: fn @name(params) -> ty {
    let (hline, header) = lines
        .next()
        .ok_or(ParseError {
            line: 0,
            message: "empty input".into(),
        })?;
    let header = header
        .strip_prefix("fn @")
        .ok_or(ParseError {
            line: hline,
            message: "expected `fn @name(...)`".into(),
        })?;
    let open = header.find('(').ok_or(ParseError {
        line: hline,
        message: "missing `(`".into(),
    })?;
    let close = header.rfind(')').ok_or(ParseError {
        line: hline,
        message: "missing `)`".into(),
    })?;
    let name = &header[..open];
    let mut params = Vec::new();
    let plist = &header[open + 1..close];
    if !plist.trim().is_empty() {
        for p in plist.split(',') {
            let mut it = p.split_whitespace();
            let ty = parse_type(it.next().unwrap_or(""), hline)?;
            // Optional `restrict` qualifier between the type and the name
            // (`ptr restrict %x`) — aliasing facts are optimizer-visible,
            // so the round trip must carry them.
            let mut tok = it.next();
            let restrict = tok == Some("restrict");
            if restrict {
                tok = it.next();
            }
            let pname = tok.and_then(|s| s.strip_prefix('%')).ok_or(ParseError {
                line: hline,
                message: format!("bad parameter `{p}`"),
            })?;
            params.push(if restrict {
                Param::restrict(pname, ty)
            } else {
                Param::new(pname, ty)
            });
        }
    }
    let ret = header[close + 1..]
        .trim()
        .strip_prefix("->")
        .map(|s| s.trim().trim_end_matches('{').trim())
        .ok_or(ParseError {
            line: hline,
            message: "missing `-> ty {`".into(),
        })?;
    let ret_ty = parse_type(ret, hline)?;

    let mut f = Function::new(name, params.clone(), ret_ty);
    let param_ix: HashMap<String, u32> = params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i as u32))
        .collect();

    // Pass 1: collect block labels (in textual order) and pending
    // instructions.
    let mut labels: Vec<&str> = Vec::new();
    let mut label_ix: HashMap<&str, usize> = HashMap::new();
    let mut pendings: Vec<PendingInst> = Vec::new();
    let mut current: Option<usize> = None;
    for (lno, line) in lines {
        if line == "}" {
            break;
        }
        if let Some(label) = line.strip_suffix(':') {
            current = Some(*label_ix.entry(label).or_insert_with(|| {
                labels.push(label);
                labels.len() - 1
            }));
            continue;
        }
        let block = current.ok_or(ParseError {
            line: lno,
            message: "instruction before first block label".into(),
        })?;
        let (text_id, body) = match line.strip_prefix('%') {
            Some(rest) if rest.contains('=') => {
                let eq = rest.find('=').unwrap();
                let id: u32 = rest[..eq].trim().parse().map_err(|_| ParseError {
                    line: lno,
                    message: "bad result id".into(),
                })?;
                (Some(id), rest[eq + 1..].trim())
            }
            _ => (None, line),
        };
        let kind = parse_body(body, lno)?;
        pendings.push(PendingInst {
            text_id,
            line: lno,
            kind,
            block,
        });
    }

    // Blocks: honor the printed numbering. The printer labels a block
    // `bb<BlockId>`, and an optimized function's layout has holes (removed
    // blocks) and its own order, so when every label has that shape the
    // block keeps its number — holes become unlinked arena blocks — and
    // the layout is the textual order. Any other labelling (hand-written
    // names, or numbers too sparse to be a printer's) numbers the blocks
    // by first appearance.
    let printed: Option<Vec<u32>> = labels
        .iter()
        .map(|l| {
            let digits = l.strip_prefix("bb")?;
            let canonical = digits == "0" || !digits.starts_with(['0', '+']);
            digits.parse::<u32>().ok().filter(|_| canonical)
        })
        .collect();
    let block_of: Vec<BlockId> = match printed {
        Some(nums) if !nums.is_empty() && fits(&nums) => {
            // Nothing is unlinked yet, so the layout counts the arena.
            while f.num_blocks() <= *nums.iter().max().expect("non-empty") as usize {
                f.add_block();
            }
            let ids: Vec<BlockId> = nums.iter().map(|&n| BlockId::from_index(n as usize)).collect();
            f.set_layout(ids.clone());
            ids
        }
        _ => (0..labels.len())
            // Block 0 already exists from Function::new.
            .map(|i| if i == 0 { f.entry() } else { f.add_block() })
            .collect(),
    };

    // Pre-create all instructions so forward references resolve — and
    // honor the printed ids while doing it. The printer emits raw
    // `InstId` indices, so the text carries the original numbering of
    // every *valued* instruction; void instructions print no id and are
    // slotted into the unused numbers in textual order, and numbers that
    // are still unused after that (an optimized function's deleted
    // instructions) become unlinked arena slots. Preserving the numbering
    // matters beyond aesthetics: it makes print → parse → print a fixpoint
    // for *any* printed module, which is what lets `module_hash` be a hash
    // of wire bytes, and id order is observable by optimizer tie-breaks,
    // so a module that round-trips through text — a disk artifact, a wire
    // body — must re-optimize exactly like the original. (Ids too sparse
    // to be a printer's are kept by rank instead: a hostile `%4000000000`
    // must not buy a four-billion-slot arena.)
    let mut taken: HashSet<u32> = HashSet::new();
    for p in &pendings {
        if let Some(t) = p.text_id {
            if !taken.insert(t) {
                return err(p.line, format!("duplicate result id %{t}"));
            }
        }
    }
    let mut free = (0u32..).filter(|n| !taken.contains(n));
    let targets: Vec<u32> = pendings
        .iter()
        .map(|p| p.text_id.unwrap_or_else(|| free.next().expect("u32 space")))
        .collect();
    let exact = fits(&targets);
    // Dense `InstId`s are allocation-ordered, so creating placeholders
    // in ascending target order reproduces the numbering; blocks are
    // then filled in textual order, which is the original layout.
    let placeholder = |ty| Inst::new(InstKind::Ret { value: None }, ty);
    let mut order: Vec<usize> = (0..pendings.len()).collect();
    order.sort_by_key(|&i| targets[i]);
    let mut ids_by_pending: Vec<Option<InstId>> = vec![None; pendings.len()];
    for &i in &order {
        while exact && f.num_inst_slots() < targets[i] as usize {
            f.create_inst(placeholder(Type::Void));
        }
        let id = f.create_inst(placeholder(pending_type(&pendings[i].kind)));
        ids_by_pending[i] = Some(id);
    }
    let ids: Vec<InstId> = ids_by_pending
        .into_iter()
        .map(|id| id.expect("every pending instruction was created"))
        .collect();
    let mut text_map: HashMap<u32, InstId> = HashMap::new();
    for (p, &id) in pendings.iter().zip(&ids) {
        f.block_mut(block_of[p.block]).insts.push(id);
        if let Some(t) = p.text_id {
            text_map.insert(t, id);
        }
    }

    // Pass 2: resolve operands.
    let resolve = |tok: &Tok, ty: Type, line: usize| -> Result<Value, ParseError> {
        match tok {
            Tok::InstRef(n) => text_map
                .get(n)
                .map(|i| Value::Inst(*i))
                .ok_or(ParseError {
                    line,
                    message: format!("undefined value %{n}"),
                }),
            Tok::ParamRef(name) => param_ix
                .get(name)
                .map(|i| Value::Arg(*i))
                .ok_or(ParseError {
                    line,
                    message: format!("unknown parameter %{name}"),
                }),
            Tok::Lit(s) => Ok(Value::Const(parse_const(s, ty, line)?)),
        }
    };
    let block_ref = |label: &str, line: usize| -> Result<BlockId, ParseError> {
        label_ix.get(label).map(|&i| block_of[i]).ok_or(ParseError {
            line,
            message: format!("unknown block `{label}`"),
        })
    };

    for (p, &id) in pendings.iter().zip(&ids) {
        let l = p.line;
        let kind = match &p.kind {
            PendingKind::Bin(op, ty, a, b) => InstKind::Bin {
                op: *op,
                lhs: resolve(a, *ty, l)?,
                rhs: resolve(b, *ty, l)?,
            },
            PendingKind::ICmp(pr, ty, a, b) => InstKind::ICmp {
                pred: *pr,
                lhs: resolve(a, *ty, l)?,
                rhs: resolve(b, *ty, l)?,
            },
            PendingKind::FCmp(pr, ty, a, b) => InstKind::FCmp {
                pred: *pr,
                lhs: resolve(a, *ty, l)?,
                rhs: resolve(b, *ty, l)?,
            },
            PendingKind::Select(ty, c, a, b) => InstKind::Select {
                cond: resolve(c, Type::I1, l)?,
                on_true: resolve(a, *ty, l)?,
                on_false: resolve(b, *ty, l)?,
            },
            PendingKind::Cast(op, from, v, _to) => InstKind::Cast {
                op: *op,
                value: resolve(v, *from, l)?,
            },
            PendingKind::Load(_ty, ptr) => InstKind::Load {
                ptr: resolve(ptr, Type::Ptr, l)?,
            },
            PendingKind::Store(vty, v, ptr) => InstKind::Store {
                ptr: resolve(ptr, Type::Ptr, l)?,
                value: resolve(v, *vty, l)?,
            },
            PendingKind::Gep(base, ix, scale) => InstKind::Gep {
                base: resolve(base, Type::Ptr, l)?,
                index: resolve(ix, Type::I64, l)?,
                scale: *scale,
            },
            PendingKind::Phi(ty, incomings) => {
                let mut inc = Vec::new();
                for (label, v) in incomings {
                    inc.push((block_ref(label, l)?, resolve(v, *ty, l)?));
                }
                InstKind::Phi { incomings: inc }
            }
            PendingKind::Intr(fw, which, args) => {
                let mut a = Vec::new();
                for t in args {
                    a.push(resolve(t, *fw, l)?);
                }
                InstKind::Intr { which: *which, args: a }
            }
            PendingKind::Br(label) => InstKind::Br {
                target: block_ref(label, l)?,
            },
            PendingKind::CondBr(c, t, e) => InstKind::CondBr {
                cond: resolve(c, Type::I1, l)?,
                if_true: block_ref(t, l)?,
                if_false: block_ref(e, l)?,
            },
            PendingKind::RetVoid => InstKind::Ret { value: None },
            PendingKind::Ret(ty, v) => InstKind::Ret {
                value: Some(resolve(v, *ty, l)?),
            },
        };
        f.inst_mut(id).kind = kind;
    }
    Ok(f)
}

/// Whether the printed `numbers` of a function's live instructions (or
/// blocks) are dense enough to honor exactly, the holes becoming dead arena
/// slots. Optimized IR keeps a few dead slots per live one (43 at most over
/// the benchmark sweep); the slack is generous for that and still bounds
/// what a frame of hostile text can make the parser allocate.
fn fits(numbers: &[u32]) -> bool {
    numbers
        .iter()
        .max()
        .is_none_or(|&m| (m as usize) < 64 * numbers.len() + 4096)
}

fn pending_type(k: &PendingKind) -> Type {
    match k {
        PendingKind::Bin(_, ty, _, _) => *ty,
        PendingKind::ICmp(..) | PendingKind::FCmp(..) => Type::I1,
        PendingKind::Select(ty, ..) => *ty,
        PendingKind::Cast(_, _, _, to) => *to,
        PendingKind::Load(ty, _) => *ty,
        PendingKind::Phi(ty, _) => *ty,
        PendingKind::Intr(ty, which, _) => which.result_type(*ty),
        PendingKind::Gep(..) => Type::Ptr,
        _ => Type::Void,
    }
}

fn split_args(s: &str) -> Vec<String> {
    s.split(',').map(|x| x.trim().to_string()).collect()
}

fn parse_body(body: &str, line: usize) -> Result<PendingKind, ParseError> {
    let mut words = body.split_whitespace();
    let head = words.next().ok_or(ParseError {
        line,
        message: "empty instruction".into(),
    })?;
    let rest = body[head.len()..].trim();
    if let Some(op) = binop_of(head) {
        // add i64 a, b
        let mut it = rest.splitn(2, ' ');
        let ty = parse_type(it.next().unwrap_or(""), line)?;
        let args = split_args(it.next().unwrap_or(""));
        if args.len() != 2 {
            return err(line, "binop expects two operands");
        }
        return Ok(PendingKind::Bin(op, ty, parse_tok(&args[0]), parse_tok(&args[1])));
    }
    match head {
        "icmp" | "fcmp" => {
            // icmp slt i64 a, b
            let mut it = rest.splitn(3, ' ');
            let pred = it.next().unwrap_or("");
            let ty = parse_type(it.next().unwrap_or(""), line)?;
            let args = split_args(it.next().unwrap_or(""));
            if args.len() != 2 {
                return err(line, "cmp expects two operands");
            }
            if head == "icmp" {
                let p = icmp_of(pred).ok_or(ParseError {
                    line,
                    message: format!("bad icmp predicate `{pred}`"),
                })?;
                Ok(PendingKind::ICmp(p, ty, parse_tok(&args[0]), parse_tok(&args[1])))
            } else {
                let p = fcmp_of(pred).ok_or(ParseError {
                    line,
                    message: format!("bad fcmp predicate `{pred}`"),
                })?;
                Ok(PendingKind::FCmp(p, ty, parse_tok(&args[0]), parse_tok(&args[1])))
            }
        }
        "select" => {
            // select ty c, a, b
            let mut it = rest.splitn(2, ' ');
            let ty = parse_type(it.next().unwrap_or(""), line)?;
            let args = split_args(it.next().unwrap_or(""));
            if args.len() != 3 {
                return err(line, "select expects three operands");
            }
            Ok(PendingKind::Select(
                ty,
                parse_tok(&args[0]),
                parse_tok(&args[1]),
                parse_tok(&args[2]),
            ))
        }
        "load" => {
            // load ty, ptr
            let args = split_args(rest);
            if args.len() != 2 {
                return err(line, "load expects `ty, ptr`");
            }
            Ok(PendingKind::Load(parse_type(&args[0], line)?, parse_tok(&args[1])))
        }
        "store" => {
            // store ty v, ptr
            let mut it = rest.splitn(2, ' ');
            let ty = parse_type(it.next().unwrap_or(""), line)?;
            let args = split_args(it.next().unwrap_or(""));
            if args.len() != 2 {
                return err(line, "store expects `ty v, ptr`");
            }
            Ok(PendingKind::Store(ty, parse_tok(&args[0]), parse_tok(&args[1])))
        }
        "gep" => {
            // gep base, index xSCALE
            let args = split_args(rest);
            if args.len() != 2 {
                return err(line, "gep expects `base, index xN`");
            }
            let mut it = args[1].split_whitespace();
            let ix = parse_tok(it.next().unwrap_or(""));
            let scale = it
                .next()
                .and_then(|s| s.strip_prefix('x'))
                .and_then(|s| s.parse().ok())
                .ok_or(ParseError {
                    line,
                    message: "gep scale must be `xN`".into(),
                })?;
            Ok(PendingKind::Gep(parse_tok(&args[0]), ix, scale))
        }
        "phi" => {
            // phi ty [v, bbN], [v, bbM]
            let mut it = rest.splitn(2, ' ');
            let ty = parse_type(it.next().unwrap_or(""), line)?;
            let mut incomings = Vec::new();
            for part in it.next().unwrap_or("").split("],") {
                let part = part.trim().trim_start_matches('[').trim_end_matches(']');
                if part.is_empty() {
                    continue;
                }
                let mut kv = part.splitn(2, ',');
                let v = parse_tok(kv.next().unwrap_or("").trim());
                let label = kv.next().unwrap_or("").trim().to_string();
                if label.is_empty() {
                    return err(line, "phi incoming missing block label");
                }
                incomings.push((label, v));
            }
            Ok(PendingKind::Phi(ty, incomings))
        }
        "call" => {
            // call ty @name(args)
            let mut it = rest.splitn(2, ' ');
            let ty = parse_type(it.next().unwrap_or(""), line)?;
            let callee = it.next().unwrap_or("").trim();
            let open = callee.find('(').ok_or(ParseError {
                line,
                message: "call missing `(`".into(),
            })?;
            let name = callee[..open].trim().strip_prefix('@').ok_or(ParseError {
                line,
                message: "call missing `@`".into(),
            })?;
            let which = intrinsic_of(name).ok_or(ParseError {
                line,
                message: format!("unknown intrinsic `@{name}`"),
            })?;
            let inner = callee[open + 1..].trim_end_matches(')');
            let args = if inner.trim().is_empty() {
                Vec::new()
            } else {
                split_args(inner).iter().map(|a| parse_tok(a)).collect()
            };
            Ok(PendingKind::Intr(ty, which, args))
        }
        "br" => {
            if let Some(rest) = rest.strip_prefix("i1 ") {
                let args = split_args(rest);
                if args.len() != 3 {
                    return err(line, "conditional br expects `i1 c, bbT, bbF`");
                }
                Ok(PendingKind::CondBr(
                    parse_tok(&args[0]),
                    args[1].clone(),
                    args[2].clone(),
                ))
            } else {
                Ok(PendingKind::Br(rest.to_string()))
            }
        }
        "ret" => {
            if rest == "void" {
                Ok(PendingKind::RetVoid)
            } else {
                let mut it = rest.splitn(2, ' ');
                let ty = parse_type(it.next().unwrap_or(""), line)?;
                Ok(PendingKind::Ret(ty, parse_tok(it.next().unwrap_or("").trim())))
            }
        }
        other => {
            // Casts: `sext i32 %v to i64`
            if let Some(op) = cast_of(other) {
                let mut it = rest.splitn(2, ' ');
                let from = parse_type(it.next().unwrap_or(""), line)?;
                let tail = it.next().unwrap_or("");
                let mut kv = tail.splitn(2, " to ");
                let v = parse_tok(kv.next().unwrap_or("").trim());
                let to = parse_type(kv.next().unwrap_or("").trim(), line)?;
                return Ok(PendingKind::Cast(op, from, v, to));
            }
            err(line, format!("unknown instruction `{other}`"))
        }
    }
}

/// Parse a whole module: a sequence of functions, with optional
/// `; module NAME` header comment (as the printer emits).
///
/// # Errors
///
/// Returns the first function's [`ParseError`] (line numbers are relative
/// to each function's own text).
pub fn parse_module(text: &str) -> Result<crate::Module, ParseError> {
    let mut name = "module";
    for line in text.lines() {
        let l = line.trim();
        if let Some(rest) = l.strip_prefix("; module ") {
            name = rest.trim();
            break;
        }
        if !l.is_empty() && !l.starts_with(';') {
            break;
        }
    }
    let mut m = crate::Module::new(name);
    // Split on function headers.
    let mut starts: Vec<usize> = Vec::new();
    for (ix, _) in text.match_indices("fn @") {
        starts.push(ix);
    }
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(text.len());
        let chunk = &text[start..end];
        // Trim the chunk to its closing brace.
        let body_end = chunk
            .rfind('}')
            .map(|p| p + 1)
            .unwrap_or(chunk.len());
        m.add_function(parse_function(&chunk[..body_end])?);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_function, FunctionBuilder};

    #[test]
    fn parses_counting_loop_and_verifies() {
        let f = parse_function(
            r#"
fn @count(i64 %n) -> i64 {
bb0:
  br bb1
bb1:
  %1 = phi i64 [0, bb0], [%3, bb2]
  %2 = icmp slt i64 %1, %n
  br i1 %2, bb2, bb3
bb2:
  %3 = add i64 %1, 1
  br bb1
bb3:
  ret i64 %1
}
"#,
        )
        .unwrap();
        verify_function(&f).unwrap();
        assert_eq!(f.name(), "count");
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    fn roundtrips_printer_output() {
        // Build with the builder, print, parse, print again: identical.
        let mut f = Function::new(
            "rt",
            vec![Param::new("p", Type::Ptr), Param::new("c", Type::I1)],
            Type::Void,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let j = b.create_block();
        b.switch_to(entry);
        let x = b.load(Type::F64, Value::Arg(0));
        let g = b.gep(Value::Arg(0), Value::imm(2i64), 8);
        let tid = b.thread_idx();
        let w = b.cast(CastOp::Sext, tid, Type::I64);
        let s = b.select(Value::Arg(1), w, Value::imm(0i64));
        let cmp = b.icmp(ICmpPred::Sgt, s, Value::imm(1i64));
        b.cond_br(cmp, t, j);
        b.switch_to(t);
        let y = b.fadd(x, Value::imm(1.5f64));
        b.store(g, y);
        b.br(j);
        b.switch_to(j);
        let m = b.phi(Type::F64);
        b.add_phi_incoming(m, entry, x);
        b.add_phi_incoming(m, t, y);
        let q = b.intr(Intrinsic::Sqrt, vec![m], Type::F64);
        b.store(Value::Arg(0), q);
        b.ret(None);
        verify_function(&f).unwrap();
        let printed = f.to_string();
        let reparsed = parse_function(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        verify_function(&reparsed).unwrap();
        assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn parses_fcmp_and_float_literals() {
        let f = parse_function(
            r#"
fn @fc(f64 %x) -> i1 {
bb0:
  %1 = fcmp ogt f64 %x, 2.5
  ret i1 %1
}
"#,
        )
        .unwrap();
        verify_function(&f).unwrap();
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let e = parse_function("fn @x() -> void {\nbb0:\n  frobnicate\n}\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));

        let e = parse_function("fn @x() -> void {\nbb0:\n  br bb9\n}\n").unwrap_err();
        assert!(e.message.contains("unknown block"));

        let e = parse_function("nonsense").unwrap_err();
        assert!(e.message.contains("fn @name"));
    }

    #[test]
    fn parses_whole_module() {
        let m = parse_module(
            "; module demo\n\nfn @a() -> void {\nbb0:\n  ret void\n}\n\nfn @b(i64 %x) -> i64 {\nbb0:\n  ret i64 %x\n}\n",
        )
        .unwrap();
        assert_eq!(m.name(), "demo");
        assert_eq!(m.num_functions(), 2);
        assert!(m.find("a").is_some());
        assert!(m.find("b").is_some());
        crate::verify_module(&m).unwrap();
        // Round-trip the printed module.
        let printed = m.to_string();
        let again = parse_module(&printed).unwrap();
        assert_eq!(again.to_string(), printed);
    }

    #[test]
    fn forward_references_resolve() {
        // The phi uses %3 before it is defined.
        let f = parse_function(
            r#"
fn @fwd(i64 %n) -> void {
bb0:
  br bb1
bb1:
  %1 = phi i64 [0, bb0], [%3, bb1]
  %2 = icmp slt i64 %1, %n
  %3 = add i64 %1, 1
  br i1 %2, bb1, bb2
bb2:
  ret void
}
"#,
        )
        .unwrap();
        verify_function(&f).unwrap();
    }

    #[test]
    fn gapped_ids_and_removed_blocks_round_trip_exactly() {
        // The shape optimized IR has: instruction ids with holes (deleted
        // instructions), block numbers with holes, layout out of numeric
        // order. Parsing keeps every printed number.
        let text = "fn @g(i64 %n) -> i64 {\nbb0:\n  %7 = add i64 %n, 1\n  br bb9\nbb9:\n  %40 = phi i64 [%7, bb0], [%12, bb4]\n  %3 = icmp slt i64 %40, %n\n  br i1 %3, bb4, bb6\nbb4:\n  %12 = add i64 %40, 2\n  br bb9\nbb6:\n  ret i64 %40\n}\n";
        let f = parse_function(text).unwrap();
        verify_function(&f).unwrap();
        assert_eq!(f.to_string(), text);
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 8);
        assert_eq!(f.num_inst_slots(), 41, "holes are dead arena slots");
        assert_eq!(f.layout()[1].index(), 9);
        // Void instructions took the lowest unused numbers, in order.
        assert_eq!(f.terminator(f.entry()).unwrap().index(), 0);
    }

    #[test]
    fn ids_too_sparse_to_be_a_printers_are_kept_by_rank() {
        let f = parse_function(
            "fn @h(i64 %n) -> i64 {\nbb4000000000:\n  %4000000000 = add i64 %n, 1\n  ret i64 %4000000000\n}\n",
        )
        .unwrap();
        verify_function(&f).unwrap();
        assert_eq!(f.num_inst_slots(), 2);
        assert_eq!(f.to_string(), "fn @h(i64 %n) -> i64 {\nbb0:\n  %1 = add i64 %n, 1\n  ret i64 %1\n}\n");
    }

    #[test]
    fn named_labels_number_blocks_by_first_appearance() {
        let f = parse_function(
            "fn @l() -> void {\nentry:\n  br exit\nexit:\n  ret void\n}\n",
        )
        .unwrap();
        verify_function(&f).unwrap();
        assert_eq!(f.to_string(), "fn @l() -> void {\nbb0:\n  br bb1\nbb1:\n  ret void\n}\n");
    }
}
