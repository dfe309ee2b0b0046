//! Cross-launch decode cache and launch scratch pool.
//!
//! Sweeps launch the same compiled kernel hundreds of times across
//! workload sizes, repeats and measurement phases. Decoding — the
//! post-dominator tree, the uniformity analysis and
//! [`DecodedKernel::decode`] — is a pure function of the kernel body and
//! the baked-in argument constants, so each thread keeps a [`Store`] keyed
//! by exactly those two: the whole `Function` and the encoded constants.
//! [`function_fingerprint`] picks the bucket and full equality decides the
//! hit, so a mutated or newly built function simply misses and nothing is
//! ever invalidated explicitly. Launch geometry is deliberately not in the
//! key: one decode serves every grid and block shape. Thread-local, so no
//! lock touches the launch path, and a hit is bit-identical to a fresh
//! decode (the differential tests pin it), so parallel determinism is
//! unaffected.
//!
//! The same module pools the per-launch [`Scratch`] and [`SectorSet`] so
//! steady-state launches allocate nothing before the first warp runs.

use crate::decode::{DecodedKernel, Scratch};
use crate::memory::SectorSet;
use std::cell::RefCell;
use std::rc::Rc;
use uu_analysis::{PostDomTree, Uniformity};
use uu_ir::store::Store;
use uu_ir::word::encode;
use uu_ir::{function_fingerprint, Constant, Function};

/// Instruction-arena slots of the stored kernels — the compile memo's
/// unit — before the cache is wholesale-cleared. The smallest power of two
/// that keeps every decode hit of the end-to-end benchmark's workloads:
/// 16 Ki lost 40–55 % of them.
const DECODE_SLOT_BUDGET: usize = 32 * 1024;

/// Decoding's whole input, a kernel body and its encoded launch constants,
/// mapped to the decode.
type DecodeStore = Store<(Function, Vec<(u8, u64)>), Rc<DecodedKernel>>;

/// Pooled per-launch mutable state.
pub(crate) struct LaunchScratch {
    pub scratch: Scratch,
    pub touched: SectorSet,
}

thread_local! {
    static CACHE: RefCell<DecodeStore> = RefCell::new(Store::new(DECODE_SLOT_BUDGET));
    static POOL: RefCell<Vec<LaunchScratch>> = const { RefCell::new(Vec::new()) };
}

/// Decode `f` with the launch constants `args`, reusing a cached decode
/// when an equal (function, constants) pair was launched before on this
/// thread. A hit returns the exact lowering a fresh
/// [`DecodedKernel::decode`] would produce, so cached and fresh launches
/// are observationally identical.
pub fn decode_cached(f: &Function, args: &[Constant]) -> Rc<DecodedKernel> {
    CACHE.with(|c| decode_in(&mut c.borrow_mut(), function_fingerprint(f), f, args))
}

/// [`decode_cached`] against `store`, with `hash` as the bucket.
fn decode_in(s: &mut DecodeStore, hash: u64, f: &Function, args: &[Constant]) -> Rc<DecodedKernel> {
    let consts: Vec<(u8, u64)> = args.iter().map(|c| encode(*c)).collect();
    if let Some(k) = s.find(hash, |(g, c), _| *c == consts && g == f) {
        return k;
    }
    let (pdom, uni) = (PostDomTree::compute(f), Uniformity::compute(f));
    let k = Rc::new(DecodedKernel::decode(f, &pdom, &uni, args));
    s.insert(hash, (f.clone(), consts), Rc::clone(&k), f.num_inst_slots());
    k
}

/// Drop every cached decode on this thread and zero the counters (mainly
/// for tests and memory-sensitive embedders; correctness never requires
/// it).
pub fn decode_cache_clear() {
    CACHE.with(|c| c.borrow_mut().clear());
}

/// This thread's decode-cache `(hits, misses)` counters.
pub fn decode_cache_stats() -> (u64, u64) {
    CACHE.with(|c| c.borrow().stats())
}

/// Take a pooled launch scratch (or a fresh one on first use).
pub(crate) fn take_launch_scratch() -> LaunchScratch {
    POOL.with(|p| p.borrow_mut().pop()).unwrap_or_else(|| LaunchScratch {
        scratch: Scratch::new(),
        touched: SectorSet::new(),
    })
}

/// Return a launch scratch to the pool for the next launch.
pub(crate) fn put_launch_scratch(ls: LaunchScratch) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < 8 {
            p.push(ls);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, Param, Type, Value};

    fn sample(n: i64) -> Function {
        let mut f = Function::new(
            "k",
            vec![Param::new("out", Type::Ptr)],
            Type::Void,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let gid = b.global_thread_id();
        let s = b.add(gid, Value::imm(n));
        let p = b.gep(Value::Arg(0), s, 8);
        b.store(p, s);
        b.ret(None);
        f
    }

    #[test]
    fn identical_functions_hit_distinct_functions_miss() {
        decode_cache_clear();
        let args = [Constant::I64(4096)];
        let k1 = decode_cached(&sample(1), &args);
        let k2 = decode_cached(&sample(1), &args);
        // Same content, different Function allocations: one decode.
        assert_eq!(decode_cache_stats(), (1, 1));
        assert_eq!(format!("{k1:?}"), format!("{k2:?}"));
        // Different body → miss.
        decode_cached(&sample(2), &args);
        assert_eq!(decode_cache_stats(), (1, 2));
        // Same body, different baked-in constants → miss.
        decode_cached(&sample(1), &[Constant::I64(8192)]);
        assert_eq!(decode_cache_stats(), (1, 3));
        decode_cache_clear();
    }

    #[test]
    fn a_colliding_fingerprint_still_decides_by_body_and_constants() {
        // Every launch lands in bucket 0, as under a fingerprint collision.
        let mut s = DecodeStore::new(DECODE_SLOT_BUDGET);
        let args = [Constant::I64(4096)];
        let k1 = decode_in(&mut s, 0, &sample(1), &args);
        let k2 = decode_in(&mut s, 0, &sample(2), &args);
        let k3 = decode_in(&mut s, 0, &sample(1), &[Constant::I64(8192)]);
        assert_eq!(s.stats(), (0, 3), "other body or other constants: a miss each");
        assert!(Rc::ptr_eq(&decode_in(&mut s, 0, &sample(1), &args), &k1));
        assert!(Rc::ptr_eq(&decode_in(&mut s, 0, &sample(2), &args), &k2));
        assert!(Rc::ptr_eq(&decode_in(&mut s, 0, &sample(1), &[Constant::I64(8192)]), &k3));
        assert_eq!(s.stats(), (3, 3));
    }

    #[test]
    fn cached_decode_equals_fresh_decode() {
        decode_cache_clear();
        let f = sample(3);
        let args = [Constant::I64(64)];
        let cached = decode_cached(&f, &args);
        let pdom = PostDomTree::compute(&f);
        let uni = Uniformity::compute(&f);
        let fresh = DecodedKernel::decode(&f, &pdom, &uni, &args);
        assert_eq!(format!("{cached:?}"), format!("{fresh:?}"));
        decode_cache_clear();
    }
}
