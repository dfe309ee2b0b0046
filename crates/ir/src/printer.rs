//! Textual rendering of IR, in an LLVM-flavoured syntax.
//!
//! The printed form is what people read in dumps and tests *and* the
//! serialization format of the compile service: it is the body of every
//! `uu-serve` request and reply and the `ir` section of every on-disk
//! compile artifact, and [`module_hash`](crate::module_hash) is a hash of
//! exactly these bytes. The contract it carries is the round trip —
//! `parse(print(m))` prints the same bytes — so a change that moves one
//! byte of output invalidates every cache key and must be deliberate.
//!
//! Everything streams into the caller's [`fmt::Write`]: no intermediate
//! `String` per operand, instruction or block.

use crate::entities::{InstId, Value};
use crate::function::Function;
use crate::inst::InstKind;
use crate::module::Module;
use std::fmt;

/// `Display` adaptor for a value in the context of its function
/// (arguments print their names).
struct Operand<'a>(&'a Function, Value);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            Value::Inst(id) => write!(f, "%{}", id.index()),
            Value::Arg(i) => write!(f, "%{}", self.0.params()[i as usize].name),
            Value::Const(c) => c.fmt(f),
        }
    }
}

/// Write one instruction (without indentation or trailing newline) — the
/// only place instruction syntax is produced.
fn write_inst(f: &mut fmt::Formatter<'_>, func: &Function, id: InstId) -> fmt::Result {
    let inst = func.inst(id);
    let v = |x: Value| Operand(func, x);
    if inst.ty != crate::Type::Void {
        write!(f, "%{} = ", id.index())?;
    }
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            write!(f, "{op} {} {}, {}", inst.ty, v(*lhs), v(*rhs))
        }
        InstKind::ICmp { pred, lhs, rhs } => write!(
            f,
            "icmp {pred} {} {}, {}",
            func.value_type(*lhs),
            v(*lhs),
            v(*rhs)
        ),
        InstKind::FCmp { pred, lhs, rhs } => write!(
            f,
            "fcmp {pred} {} {}, {}",
            func.value_type(*lhs),
            v(*lhs),
            v(*rhs)
        ),
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => write!(
            f,
            "select {} {}, {}, {}",
            inst.ty,
            v(*cond),
            v(*on_true),
            v(*on_false)
        ),
        InstKind::Cast { op, value } => write!(
            f,
            "{op} {} {} to {}",
            func.value_type(*value),
            v(*value),
            inst.ty
        ),
        InstKind::Load { ptr } => write!(f, "load {}, {}", inst.ty, v(*ptr)),
        InstKind::Store { ptr, value } => write!(
            f,
            "store {} {}, {}",
            func.value_type(*value),
            v(*value),
            v(*ptr)
        ),
        InstKind::Gep { base, index, scale } => {
            write!(f, "gep {}, {} x{}", v(*base), v(*index), scale)
        }
        InstKind::Phi { incomings } => {
            write!(f, "phi {} ", inst.ty)?;
            for (n, (b, val)) in incomings.iter().enumerate() {
                let sep = if n == 0 { "" } else { ", " };
                write!(f, "{sep}[{}, {b}]", v(*val))?;
            }
            Ok(())
        }
        InstKind::Intr { which, args } => {
            write!(f, "call {} @{which}(", inst.ty)?;
            for (n, a) in args.iter().enumerate() {
                let sep = if n == 0 { "" } else { ", " };
                write!(f, "{sep}{}", v(*a))?;
            }
            f.write_str(")")
        }
        InstKind::Br { target } => write!(f, "br {target}"),
        InstKind::CondBr {
            cond,
            if_true,
            if_false,
        } => write!(f, "br i1 {}, {if_true}, {if_false}", v(*cond)),
        InstKind::Ret { value } => match value {
            Some(x) => write!(f, "ret {} {}", func.value_type(*x), v(*x)),
            None => f.write_str("ret void"),
        },
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn @{}(", self.name())?;
        for (n, p) in self.params().iter().enumerate() {
            let sep = if n == 0 { "" } else { ", " };
            let restrict = if p.restrict { " restrict" } else { "" };
            write!(f, "{sep}{}{restrict} %{}", p.ty, p.name)?;
        }
        writeln!(f, ") -> {} {{", self.ret_ty())?;
        for &b in self.layout() {
            writeln!(f, "{b}:")?;
            for &i in &self.block(b).insts {
                f.write_str("  ")?;
                write_inst(f, self, i)?;
                f.write_str("\n")?;
            }
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; module {}", self.name())?;
        for (_, func) in self.iter() {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Param;
    use crate::inst::ICmpPred;
    use crate::types::Type;

    #[test]
    fn prints_function() {
        let mut f = Function::new("max0", vec![Param::new("x", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let c = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::imm(0i64));
        let s = b.select(c, Value::Arg(0), Value::imm(0i64));
        b.ret(Some(s));
        let text = f.to_string();
        assert!(text.contains("fn @max0(i64 %x) -> i64 {"), "{text}");
        assert!(text.contains("icmp sgt i64 %x, 0"), "{text}");
        assert!(text.contains("select i64 %0, %x, 0"), "{text}");
        assert!(text.contains("ret i64 %1"), "{text}");
    }

    #[test]
    fn prints_module_and_blocks() {
        let mut m = Module::new("demo");
        let mut f = Function::new("k", vec![], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let next = b.create_block();
        b.switch_to(entry);
        b.br(next);
        b.switch_to(next);
        b.ret(None);
        m.add_function(f);
        let text = m.to_string();
        assert!(text.contains("; module demo"));
        assert!(text.contains("bb0:"));
        assert!(text.contains("br bb1"));
        assert!(text.contains("ret void"));
    }

    #[test]
    fn prints_phi_and_memory() {
        let mut f = Function::new("k", vec![Param::new("p", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let addr = b.gep(Value::Arg(0), Value::imm(1i64), 8);
        let x = b.load(Type::F64, addr);
        b.store(addr, x);
        b.ret(None);
        let text = f.to_string();
        assert!(text.contains("gep %p, 1 x8"), "{text}");
        assert!(text.contains("load f64, %0"), "{text}");
        assert!(text.contains("store f64 %1, %0"), "{text}");
    }
}
