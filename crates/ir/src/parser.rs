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
//!
//! One pass over the lines builds each instruction as a real [`Inst`],
//! resolving what its own line can: a literal with the type the line
//! states, `%name` to its parameter. `%N` and block labels, which may point
//! forward, stay temporary — the printed number, the label's index — until
//! one fix-up numbers instructions and blocks and rewrites them.

use crate::{
    BinOp, Block, BlockId, CastOp, Constant, FCmpPred, Function, ICmpPred, Inst, InstId, InstKind,
    Intrinsic, Param, Type, Value,
};
use std::collections::HashMap;
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

fn bad(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(bad(line, message))
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

/// A literal of type `ty` (pointer literals are `i64` addresses).
fn parse_const(s: &str, ty: Type, line: usize) -> Result<Constant, ParseError> {
    let c = match ty {
        Type::I1 => match s {
            "true" => Some(Constant::I1(true)),
            "false" => Some(Constant::I1(false)),
            _ => None,
        },
        Type::I32 => s.parse().ok().map(Constant::I32),
        Type::I64 | Type::Ptr => s.parse().ok().map(Constant::I64),
        Type::F32 => s.parse().ok().map(Constant::f32),
        Type::F64 => s.parse().ok().map(Constant::f64),
        Type::Void => return err(line, "void literal"),
    };
    let ty = if ty == Type::Ptr { Type::I64 } else { ty };
    c.ok_or_else(|| bad(line, format!("bad {ty} literal `{s}`")))
}

/// The variant of an opcode enum whose mnemonic is `s`.
fn by_mnemonic<T: Copy>(all: &[T], mnemonic: fn(T) -> &'static str, s: &str) -> Option<T> {
    all.iter().copied().find(|&op| mnemonic(op) == s)
}

/// `s` split at its first space: the first word and the rest.
fn word(s: &str) -> (&str, &str) {
    s.split_once(' ').unwrap_or((s, ""))
}

/// `s` split at commas into exactly `N` trimmed parts.
fn parts<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut it = s.split(',');
    let mut out = [""; N];
    for part in &mut out {
        *part = it.next()?.trim();
    }
    it.next().is_none().then_some(out)
}

/// One instruction line, read: the instruction with temporary ids, its
/// printed result number if it has one, and where it stands.
struct Written {
    inst: Inst,
    id: Option<u32>,
    line: usize,
    /// The containing block's label index.
    block: usize,
}

/// What operands resolve against while a body is read.
struct Scope<'p, 'a> {
    params: &'p [Param],
    /// The line being read, for errors.
    line: usize,
    /// Every label mentioned so far, in order of first mention, and whether
    /// its `label:` line has been read. A block reference holds its label's
    /// index here until the blocks are numbered.
    labels: Vec<(&'a str, bool)>,
    label_ix: HashMap<&'a str, u32>,
}

impl<'a> Scope<'_, 'a> {
    /// The temporary id of the block labelled `label`.
    fn label(&mut self, label: &'a str) -> BlockId {
        let labels = &mut self.labels;
        let ix = *self.label_ix.entry(label).or_insert_with(|| {
            labels.push((label, false));
            labels.len() as u32 - 1
        });
        BlockId::from_index(ix as usize)
    }

    /// One operand: `%N` (an instruction, by its printed number for now),
    /// `%name` (a parameter; a repeated name means the last one) or a
    /// literal of type `ty`.
    fn value(&self, s: &str, ty: Type) -> Result<Value, ParseError> {
        let Some(name) = s.strip_prefix('%') else {
            return parse_const(s, ty, self.line).map(Value::Const);
        };
        if let Ok(n) = name.parse::<u32>() {
            return Ok(Value::Inst(InstId::from_index(n as usize)));
        }
        match self.params.iter().rposition(|p| p.name == name) {
            Some(i) => Ok(Value::Arg(i as u32)),
            None => err(self.line, format!("unknown parameter %{name}")),
        }
    }
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
    let (hline, header) = lines.next().ok_or_else(|| bad(0, "empty input"))?;
    let header = header
        .strip_prefix("fn @")
        .ok_or_else(|| bad(hline, "expected `fn @name(...)`"))?;
    let open = header.find('(').ok_or_else(|| bad(hline, "missing `(`"))?;
    let close = header
        .rfind(')')
        .filter(|&close| close > open)
        .ok_or_else(|| bad(hline, "missing `)`"))?;
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
            let pname = tok
                .and_then(|s| s.strip_prefix('%'))
                .ok_or_else(|| bad(hline, format!("bad parameter `{p}`")))?;
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
        .ok_or_else(|| bad(hline, "missing `-> ty {`"))?;
    let ret_ty = parse_type(ret, hline)?;

    // The body, in one pass: labels in the order they are defined (the
    // layout) and every instruction, built with temporary ids.
    let mut scope = Scope {
        params: &params,
        line: hline,
        labels: Vec::new(),
        label_ix: HashMap::new(),
    };
    let mut layout: Vec<usize> = Vec::new();
    let mut body: Vec<Written> = Vec::new();
    let mut current = None;
    for (lno, line) in lines {
        if line == "}" {
            break;
        }
        scope.line = lno;
        if let Some(label) = line.strip_suffix(':') {
            let b = scope.label(label).index();
            if !std::mem::replace(&mut scope.labels[b].1, true) {
                layout.push(b);
            }
            current = Some(b);
            continue;
        }
        let block = current.ok_or_else(|| bad(lno, "instruction before first block label"))?;
        let (id, text) = match line.strip_prefix('%').and_then(|l| l.split_once('=')) {
            Some((id, text)) => {
                let id = id.trim().parse().map_err(|_| bad(lno, "bad result id"))?;
                (Some(id), text.trim())
            }
            None => (None, line),
        };
        body.push(Written {
            inst: parse_body(text, &mut scope)?,
            id,
            line: lno,
            block,
        });
    }
    let labels = scope.labels;

    // Blocks: honor the printed numbering. The printer labels a block
    // `bb<BlockId>`, and an optimized function's layout has holes (removed
    // blocks) and its own order, so when every label has that shape the
    // block keeps its number — holes become unlinked arena blocks — and
    // the layout is the textual order. Any other labelling (hand-written
    // names, or numbers too sparse to be a printer's) numbers the blocks
    // by definition order.
    let printed: Option<Vec<u32>> = layout
        .iter()
        .map(|&b| {
            let digits = labels[b].0.strip_prefix("bb")?;
            let canonical = digits == "0" || !digits.starts_with(['0', '+']);
            digits.parse::<u32>().ok().filter(|_| canonical)
        })
        .collect();
    let numbers = match printed {
        Some(nums) if fits(&nums) => nums,
        _ => (0..layout.len() as u32).collect(),
    };
    let mut block_of: Vec<Option<BlockId>> = vec![None; labels.len()];
    for (&b, &n) in layout.iter().zip(&numbers) {
        block_of[b] = Some(BlockId::from_index(n as usize));
    }
    // A function always has an entry block, if only an empty `bb0`.
    let numbers = if numbers.is_empty() { vec![0] } else { numbers };
    let mut blocks = vec![Block::default(); *numbers.iter().max().expect("non-empty") as usize + 1];

    // Instructions: honor the printed ids too. The printer emits raw
    // `InstId` indices, so the text carries the original numbering of
    // every *valued* instruction; void instructions print no id and take
    // the unused numbers in textual order, and numbers that are still
    // unused after that (an optimized function's deleted instructions)
    // become unlinked arena slots. Preserving the numbering matters beyond
    // aesthetics: it makes print → parse → print a fixpoint for *any*
    // printed module, which is what lets `module_hash` be a hash of wire
    // bytes, and id order is observable by optimizer tie-breaks, so a
    // module that round-trips through text — a disk artifact, a wire body
    // — must re-optimize exactly like the original. (Ids too sparse to be
    // a printer's are kept by rank instead: a hostile `%4000000000` must
    // not buy a four-billion-slot arena.)
    let mut valued: Vec<(u32, usize)> = body
        .iter()
        .enumerate()
        .filter_map(|(i, w)| Some((w.id?, i)))
        .collect();
    valued.sort_unstable();
    let repeat = valued.windows(2).filter(|p| p[0].0 == p[1].0);
    if let Some((t, i)) = repeat.map(|p| p[1]).min_by_key(|&(_, i)| i) {
        return err(body[i].line, format!("duplicate result id %{t}"));
    }
    let mut taken = valued.iter().map(|&(t, _)| t).peekable();
    let mut free = 0u32;
    let targets: Vec<u32> = body
        .iter()
        .map(|w| {
            w.id.unwrap_or_else(|| {
                while let Some(t) = taken.next_if(|&t| t <= free) {
                    if t == free {
                        free += 1;
                    }
                }
                free += 1;
                free - 1
            })
        })
        .collect();
    let ids = if fits(&targets) {
        targets
    } else {
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_unstable_by_key(|&i| targets[i]);
        let mut rank = vec![0; targets.len()];
        for (r, i) in order.into_iter().enumerate() {
            rank[i] = r as u32;
        }
        rank
    };
    let id_of = |printed: InstId| {
        let k = valued
            .binary_search_by_key(&(printed.index() as u32), |&(t, _)| t)
            .ok()?;
        Some(InstId::from_index(ids[valued[k].1] as usize))
    };

    // Fix-up: rewrite the temporaries and place every instruction in its
    // arena slot and its block (holes stay dead `ret void` slots).
    let dead = Inst::new(InstKind::Ret { value: None }, Type::Void);
    let mut insts = vec![dead; ids.iter().max().map_or(0, |&m| m as usize + 1)];
    for (w, &id) in body.into_iter().zip(&ids) {
        let mut inst = w.inst;
        let mut unknown = None;
        for_each_block_mut(&mut inst.kind, |b| match block_of[b.index()] {
            Some(id) => *b = id,
            None => unknown = unknown.or(Some(b.index())),
        });
        if let Some(b) = unknown {
            return err(w.line, format!("unknown block `{}`", labels[b].0));
        }
        let mut undefined = None;
        inst.kind.for_each_operand_mut(|v| {
            if let Value::Inst(n) = *v {
                match id_of(n) {
                    Some(id) => *v = Value::Inst(id),
                    None => undefined = undefined.or(Some(n)),
                }
            }
        });
        if let Some(n) = undefined {
            return err(w.line, format!("undefined value %{}", n.index()));
        }
        let block = block_of[w.block].expect("an instruction's block is defined");
        blocks[block.index()]
            .insts
            .push(InstId::from_index(id as usize));
        insts[id as usize] = inst;
    }
    let layout = numbers
        .iter()
        .map(|&n| BlockId::from_index(n as usize))
        .collect();
    Ok(Function::from_parts(
        name, params, ret_ty, insts, blocks, layout,
    ))
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

/// Visit every block reference of `kind`: branch targets and phi labels.
fn for_each_block_mut(kind: &mut InstKind, mut f: impl FnMut(&mut BlockId)) {
    match kind {
        InstKind::Br { target } => f(target),
        InstKind::CondBr {
            if_true, if_false, ..
        } => {
            f(if_true);
            f(if_false);
        }
        InstKind::Phi { incomings } => incomings.iter_mut().for_each(|(b, _)| f(b)),
        _ => {}
    }
}

/// Parse one instruction (the text after any `%N =`).
fn parse_body<'a>(body: &'a str, scope: &mut Scope<'_, 'a>) -> Result<Inst, ParseError> {
    let line = scope.line;
    if body.is_empty() {
        return err(line, "empty instruction");
    }
    let (head, rest) = match body.split_once(char::is_whitespace) {
        Some((head, rest)) => (head, rest.trim()),
        None => (body, ""),
    };
    let (kind, ty) = match head {
        "icmp" | "fcmp" => {
            // icmp slt i64 a, b
            let (pred, rest) = word(rest);
            let (ty, args) = word(rest);
            let ty = parse_type(ty, line)?;
            let [a, b] = parts(args).ok_or_else(|| bad(line, "cmp expects two operands"))?;
            let kind = if head == "icmp" {
                let pred = by_mnemonic(ICmpPred::ALL, ICmpPred::mnemonic, pred)
                    .ok_or_else(|| bad(line, format!("bad icmp predicate `{pred}`")))?;
                let (lhs, rhs) = (scope.value(a, ty)?, scope.value(b, ty)?);
                InstKind::ICmp { pred, lhs, rhs }
            } else {
                let pred = by_mnemonic(FCmpPred::ALL, FCmpPred::mnemonic, pred)
                    .ok_or_else(|| bad(line, format!("bad fcmp predicate `{pred}`")))?;
                let (lhs, rhs) = (scope.value(a, ty)?, scope.value(b, ty)?);
                InstKind::FCmp { pred, lhs, rhs }
            };
            (kind, Type::I1)
        }
        "select" => {
            // select ty c, a, b
            let (ty, args) = word(rest);
            let ty = parse_type(ty, line)?;
            let [c, a, b] =
                parts(args).ok_or_else(|| bad(line, "select expects three operands"))?;
            let cond = scope.value(c, Type::I1)?;
            let (on_true, on_false) = (scope.value(a, ty)?, scope.value(b, ty)?);
            (
                InstKind::Select {
                    cond,
                    on_true,
                    on_false,
                },
                ty,
            )
        }
        "load" => {
            // load ty, ptr
            let [ty, ptr] = parts(rest).ok_or_else(|| bad(line, "load expects `ty, ptr`"))?;
            let ty = parse_type(ty, line)?;
            let ptr = scope.value(ptr, Type::Ptr)?;
            (InstKind::Load { ptr }, ty)
        }
        "store" => {
            // store ty v, ptr
            let (ty, args) = word(rest);
            let ty = parse_type(ty, line)?;
            let [v, ptr] = parts(args).ok_or_else(|| bad(line, "store expects `ty v, ptr`"))?;
            let ptr = scope.value(ptr, Type::Ptr)?;
            let value = scope.value(v, ty)?;
            (InstKind::Store { ptr, value }, Type::Void)
        }
        "gep" => {
            // gep base, index xSCALE
            let [base, index] =
                parts(rest).ok_or_else(|| bad(line, "gep expects `base, index xN`"))?;
            let mut it = index.split_whitespace();
            let index = it.next().unwrap_or("");
            let scale = it
                .next()
                .and_then(|s| s.strip_prefix('x'))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(line, "gep scale must be `xN`"))?;
            let base = scope.value(base, Type::Ptr)?;
            let index = scope.value(index, Type::I64)?;
            (InstKind::Gep { base, index, scale }, Type::Ptr)
        }
        "phi" => {
            // phi ty [v, bbN], [v, bbM]
            let (ty, list) = word(rest);
            let ty = parse_type(ty, line)?;
            let mut incomings = Vec::new();
            for part in list.split("],") {
                let part = part.trim().trim_start_matches('[').trim_end_matches(']');
                if part.is_empty() {
                    continue;
                }
                let (v, label) = part.split_once(',').unwrap_or((part, ""));
                let label = label.trim();
                if label.is_empty() {
                    return err(line, "phi incoming missing block label");
                }
                incomings.push((scope.label(label), scope.value(v.trim(), ty)?));
            }
            (InstKind::Phi { incomings }, ty)
        }
        "call" => {
            // call ty @name(args)
            let (ty, callee) = word(rest);
            let ty = parse_type(ty, line)?;
            let (name, args) = callee
                .trim()
                .split_once('(')
                .ok_or_else(|| bad(line, "call missing `(`"))?;
            let name = name
                .trim()
                .strip_prefix('@')
                .ok_or_else(|| bad(line, "call missing `@`"))?;
            let which = by_mnemonic(Intrinsic::ALL, Intrinsic::mnemonic, name)
                .ok_or_else(|| bad(line, format!("unknown intrinsic `@{name}`")))?;
            let args = args.trim_end_matches(')');
            let args = if args.trim().is_empty() {
                Vec::new()
            } else {
                let args = args.split(',').map(|a| scope.value(a.trim(), ty));
                args.collect::<Result<_, _>>()?
            };
            (InstKind::Intr { which, args }, which.result_type(ty))
        }
        "br" => match rest.strip_prefix("i1 ") {
            Some(args) => {
                let [c, t, e] = parts(args)
                    .ok_or_else(|| bad(line, "conditional br expects `i1 c, bbT, bbF`"))?;
                let cond = scope.value(c, Type::I1)?;
                let (if_true, if_false) = (scope.label(t), scope.label(e));
                (
                    InstKind::CondBr {
                        cond,
                        if_true,
                        if_false,
                    },
                    Type::Void,
                )
            }
            None => (
                InstKind::Br {
                    target: scope.label(rest),
                },
                Type::Void,
            ),
        },
        "ret" => {
            let value = if rest == "void" {
                None
            } else {
                let (ty, v) = word(rest);
                Some(scope.value(v.trim(), parse_type(ty, line)?)?)
            };
            (InstKind::Ret { value }, Type::Void)
        }
        _ => {
            if let Some(op) = by_mnemonic(BinOp::ALL, BinOp::mnemonic, head) {
                // add i64 a, b
                let (ty, args) = word(rest);
                let ty = parse_type(ty, line)?;
                let [a, b] = parts(args).ok_or_else(|| bad(line, "binop expects two operands"))?;
                let (lhs, rhs) = (scope.value(a, ty)?, scope.value(b, ty)?);
                (InstKind::Bin { op, lhs, rhs }, ty)
            } else if let Some(op) = by_mnemonic(CastOp::ALL, CastOp::mnemonic, head) {
                // sext i32 %v to i64
                let (from, tail) = word(rest);
                let from = parse_type(from, line)?;
                let (v, to) = tail.split_once(" to ").unwrap_or((tail, ""));
                let to = parse_type(to.trim(), line)?;
                (
                    InstKind::Cast {
                        op,
                        value: scope.value(v.trim(), from)?,
                    },
                    to,
                )
            } else {
                return err(line, format!("unknown instruction `{head}`"));
            }
        }
    };
    Ok(Inst::new(kind, ty))
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

    /// The error for `body` as the instructions of a one-block function
    /// with parameters `i64 %n` and `ptr %p` (the body starts on line 3).
    fn body_err(body: &str) -> ParseError {
        parse_function(&format!(
            "fn @e(i64 %n, ptr %p) -> void {{\nbb0:\n{body}}}\n"
        ))
        .unwrap_err()
    }

    fn error(line: usize, message: &str) -> ParseError {
        ParseError {
            line,
            message: message.into(),
        }
    }

    #[test]
    fn duplicate_result_id_is_reported_at_its_second_definition() {
        // Comments and blank lines still count toward line numbers.
        let e = body_err("; c\n\n  %1 = add i64 %n, 1\n  %1 = add i64 %n, 2\n  ret void\n");
        assert_eq!(e, error(6, "duplicate result id %1"));
    }

    #[test]
    fn undefined_values_are_reported_at_their_use() {
        let e = body_err("  %1 = add i64 %9, 1\n  ret void\n");
        assert_eq!(e, error(3, "undefined value %9"));
        // The store takes number 0, but a void instruction defines no
        // value: `%0` names nothing.
        let e = body_err("  store i64 1, %p\n  %1 = add i64 %0, 1\n  ret void\n");
        assert_eq!(e, error(4, "undefined value %0"));
    }

    #[test]
    fn unknown_parameter_is_reported_at_its_use() {
        let e = body_err("  %1 = add i64 %m, 1\n  ret void\n");
        assert_eq!(e, error(3, "unknown parameter %m"));
    }

    #[test]
    fn unknown_block_named_only_by_a_phi_incoming() {
        let e = parse_function(
            "fn @b() -> void {\nbb0:\n  br bb1\nbb1:\n  %1 = phi i64 [0, bb0], [1, bb7]\n  ret void\n}\n",
        )
        .unwrap_err();
        assert_eq!(e, error(5, "unknown block `bb7`"));
    }

    #[test]
    fn bad_literals_name_the_type_they_were_read_as() {
        for (body, message) in [
            ("  %1 = select i64 maybe, 1, 2\n", "bad i1 literal `maybe`"),
            ("  %1 = add i32 1, x\n", "bad i32 literal `x`"),
            ("  %1 = add i64 1, 2x\n", "bad i64 literal `2x`"),
            ("  %1 = load i64, 12z\n", "bad i64 literal `12z`"),
            ("  %1 = fadd f32 1.0, 1.0.0\n", "bad f32 literal `1.0.0`"),
            ("  %1 = fadd f64 x, 1.0\n", "bad f64 literal `x`"),
            ("  %1 = add void 1, 2\n", "void literal"),
        ] {
            assert_eq!(
                body_err(&format!("{body}  ret void\n")),
                error(3, message),
                "{body}"
            );
        }
    }

    #[test]
    fn every_mnemonic_parses_to_its_variant() {
        let first = |line: String| {
            let text = format!("fn @m() -> void {{\nbb0:\n  {line}\n  ret void\n}}\n");
            let f = parse_function(&text).unwrap_or_else(|e| panic!("{line}: {e}"));
            f.inst(f.block(f.entry()).insts[0]).kind.clone()
        };
        for &op in BinOp::ALL {
            let kind = first(format!("%0 = {} i64 1, 2", op.mnemonic()));
            assert!(
                matches!(kind, InstKind::Bin { op: got, .. } if got == op),
                "{op:?}"
            );
        }
        for &pred in ICmpPred::ALL {
            let kind = first(format!("%0 = icmp {} i64 1, 2", pred.mnemonic()));
            assert!(
                matches!(kind, InstKind::ICmp { pred: got, .. } if got == pred),
                "{pred:?}"
            );
        }
        for &pred in FCmpPred::ALL {
            let kind = first(format!("%0 = fcmp {} f64 1.0, 2.0", pred.mnemonic()));
            assert!(
                matches!(kind, InstKind::FCmp { pred: got, .. } if got == pred),
                "{pred:?}"
            );
        }
        for &op in CastOp::ALL {
            let kind = first(format!("%0 = {} i64 1 to i32", op.mnemonic()));
            assert!(
                matches!(kind, InstKind::Cast { op: got, .. } if got == op),
                "{op:?}"
            );
        }
        for &which in Intrinsic::ALL {
            let args = vec!["1.0"; which.arity()].join(", ");
            let kind = first(format!("%0 = call f64 @{}({args})", which.mnemonic()));
            assert!(
                matches!(kind, InstKind::Intr { which: got, .. } if got == which),
                "{which:?}"
            );
        }
    }

    #[test]
    fn header_with_parentheses_out_of_order_is_an_error() {
        let e = parse_function("fn @x)( -> void {\nbb0:\n  ret void\n}\n").unwrap_err();
        assert_eq!(e, error(1, "missing `)`"));
    }

    #[test]
    fn instruction_before_first_block_label() {
        let e = parse_function("fn @x() -> void {\n  ret void\n}\n").unwrap_err();
        assert_eq!(e, error(2, "instruction before first block label"));
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
