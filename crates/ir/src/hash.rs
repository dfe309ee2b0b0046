//! Stable content hashing for modules, and the in-process structural
//! hash of a function.
//!
//! The compile-service cache (`uu-serve`) addresses artifacts by the hash
//! of the *printed* module text, so the hash contract is exactly the
//! printer/parser round-trip contract: `parse(print(m))` prints
//! identically, therefore hashes identically. The hash must be stable
//! across processes and machines — `std::hash` makes no such promise, so
//! this module pins FNV-1a 64 explicitly.
//!
//! [`function_fingerprint`] is the other kind of hash: it never leaves the
//! process (it buckets the thread-local decode cache of `uu-simt` and the
//! compile memo of `uu-core`), so it walks the IR directly instead of
//! printing it.

use crate::function::Function;
use crate::module::Module;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes` — the workspace's stable, documented content
/// hash (process- and machine-independent, unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Continue an FNV-1a 64 hash with more bytes (for composite keys).
pub fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable content hash of a module: FNV-1a 64 over its printed text,
/// i.e. `fnv1a(m.to_string().as_bytes())` — computed by streaming the
/// printer into the hash, without building the text.
///
/// Two modules that print identically hash identically, and a module
/// survives a print → parse → print round trip with the same hash (the
/// parser reconstructs the printed form byte-for-byte). This is the
/// module component of the `uu-serve` cache key; the daemon computes it
/// as `fnv1a` of a request body without parsing it.
pub fn module_hash(m: &Module) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    write!(h, "{m}").expect("hashing cannot fail");
    h.0
}

/// FNV-1a 64 as a byte sink: a [`Hasher`], so the IR types' derived
/// `Hash` impls feed the same function the rest of the workspace uses,
/// and a [`fmt::Write`], so printed text can be hashed as it is produced.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_continue(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_continue(self.0, s.as_bytes());
        Ok(())
    }
}

/// Structural fingerprint of `f`: name, parameters (with `restrict`, which
/// the optimizer's alias rules read), return type, the arena size, and in
/// layout order every block id, its loop pragma and its instructions (id,
/// type, opcode, operands). Everything the passes and the simulator's
/// decoder read from a function's body is covered; unlinked arena slots
/// contribute only their count.
///
/// In-process only — the derived `Hash` impls it drives are not a stable
/// format. Callers that cannot afford to trust 64 bits compare the
/// functions themselves on a match (`Function: PartialEq`).
pub fn function_fingerprint(f: &Function) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    f.name().hash(&mut h);
    f.params().hash(&mut h);
    f.ret_ty().hash(&mut h);
    f.num_inst_slots().hash(&mut h);
    for &b in f.layout() {
        b.hash(&mut h);
        f.loop_pragma(b).hash(&mut h);
        for &id in &f.block(b).insts {
            id.hash(&mut h);
            f.inst(id).hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionBuilder, LoopPragma, Module, Param, Type, Value};

    fn sample() -> Module {
        let mut f = crate::Function::new("k", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let s = b.add(Value::Arg(0), Value::imm(1i64));
        b.ret(Some(s));
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn continue_composes() {
        assert_eq!(fnv1a_continue(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn function_fingerprint_sees_body_signature_and_pragmas_but_not_the_journal() {
        let id = crate::FuncId::from_index(0);
        let f = sample().function(id).clone();
        let base = function_fingerprint(&f);
        assert_eq!(function_fingerprint(&sample().function(id).clone()), base);

        // An armed-and-committed journal is bookkeeping, not content.
        let mut journaled = f.clone();
        journaled.snapshot_begin();
        journaled.snapshot_commit();
        assert_eq!(function_fingerprint(&journaled), base);
        assert!(journaled == f);

        let with = |params: Vec<Param>, ret: Type, k: i64| {
            let mut g = crate::Function::new("k", params, ret);
            let entry = g.entry();
            let mut b = FunctionBuilder::new(&mut g);
            b.switch_to(entry);
            let s = b.add(Value::Arg(0), Value::imm(k));
            b.ret(Some(s));
            g
        };
        let same = with(vec![Param::new("n", Type::I64)], Type::I64, 1);
        assert_eq!(function_fingerprint(&same), base);
        assert!(same == f);
        for other in [
            with(vec![Param::new("n", Type::I64)], Type::I64, 2),
            with(vec![Param::restrict("n", Type::I64)], Type::I64, 1),
            with(vec![Param::new("n", Type::I64)], Type::Void, 1),
        ] {
            assert_ne!(function_fingerprint(&other), base);
            assert!(other != f);
        }
        let mut pragma = f.clone();
        pragma.set_loop_pragma(pragma.entry(), LoopPragma::NoUnroll);
        assert_ne!(function_fingerprint(&pragma), base);
        assert!(pragma != f);
    }

    #[test]
    fn module_hash_is_round_trip_stable() {
        let m = sample();
        let h = module_hash(&m);
        assert_eq!(h, fnv1a(m.to_string().as_bytes()), "streamed hash ≡ hashed string");
        let reparsed = crate::parse_module(&m.to_string()).unwrap();
        assert_eq!(module_hash(&reparsed), h);
        // And the hash actually distinguishes different modules.
        let mut other = sample();
        let id = other.find("k").unwrap();
        let entry = other.function(id).entry();
        let f = other.function_mut(id);
        let insts = f.block(entry).insts.clone();
        let _ = insts;
        let mut b = FunctionBuilder::new(f);
        let extra = b.create_block();
        b.switch_to(extra);
        b.ret(None);
        assert_ne!(module_hash(&other), h);
    }
}
