//! Cross-launch decode cache and launch scratch pool.
//!
//! Sweeps launch the same compiled kernel hundreds of times across
//! workload sizes, repeats, and measurement phases, and until this cache
//! existed every launch re-ran the post-dominator tree, the uniformity
//! analysis, and [`DecodedKernel::decode`] from scratch. Decoding is a
//! pure function of the kernel body and the baked-in argument constants,
//! so the cache is **content-addressed**: the key is the FNV-1a
//! structural fingerprint of the function ([`function_fingerprint`]:
//! signature, blocks, instructions, operands — including `InstId` indices,
//! which error identities reference) plus the encoded constants. That is
//! the whole invalidation story — a mutated or newly built function
//! hashes differently and simply misses; there is nothing to invalidate
//! explicitly. Collisions are guarded by
//! also keying on the instruction/block counts and the full constant
//! vector, so a 64-bit hash collision additionally has to agree on all of
//! those.
//!
//! The cache is thread-local (`uu-par` workers each keep their own), so
//! no locking touches the launch path and parallel determinism is
//! unaffected — a cached kernel is bit-identical to a fresh decode, which
//! the differential tests pin. A bounded capacity with wholesale clear
//! keeps a pathological many-kernel workload from accumulating without
//! bound.
//!
//! The same module pools the per-launch [`Scratch`] and [`SectorSet`] so
//! steady-state launches allocate nothing before the first warp runs.

use crate::decode::{DecodedKernel, Scratch};
use crate::memory::SectorSet;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use uu_analysis::{PostDomTree, Uniformity};
use uu_ir::word::encode;
use uu_ir::{function_fingerprint, Constant, Function};

/// Cached decodes before the cache is wholesale-cleared. Sized well above
/// the evaluation suite's kernel-variant count; the clear is only a
/// backstop against unbounded kernel churn.
const CACHE_CAP: usize = 192;

/// Content-addressed cache key. `hash` covers the function structure;
/// the remaining fields make accidental collisions require agreement on
/// the shape and every baked-in constant as well.
#[derive(PartialEq, Eq, Hash)]
struct Key {
    hash: u64,
    blocks: u32,
    insts: u32,
    consts: Vec<(u8, u64)>,
}

#[derive(Default)]
struct DecodeCache {
    map: HashMap<Key, Rc<DecodedKernel>>,
    hits: u64,
    misses: u64,
}

/// Pooled per-launch mutable state.
pub(crate) struct LaunchScratch {
    pub scratch: Scratch,
    pub touched: SectorSet,
}

thread_local! {
    static CACHE: RefCell<DecodeCache> = RefCell::new(DecodeCache::default());
    static POOL: RefCell<Vec<LaunchScratch>> = const { RefCell::new(Vec::new()) };
}

/// Decode `f` with the launch constants `args`, reusing a cached decode
/// when an identical (function, constants) pair was launched before on
/// this thread. A hit returns the exact same lowering a fresh
/// [`DecodedKernel::decode`] would produce — decoding is deterministic in
/// the hashed inputs — so cached and fresh launches are observationally
/// identical.
pub fn decode_cached(f: &Function, args: &[Constant]) -> Rc<DecodedKernel> {
    let key = Key {
        hash: function_fingerprint(f),
        blocks: f.layout().len() as u32,
        insts: f.num_insts() as u32,
        consts: args.iter().map(|c| encode(*c)).collect(),
    };
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(k) = c.map.get(&key).map(Rc::clone) {
            c.hits += 1;
            return k;
        }
        c.misses += 1;
        let pdom = PostDomTree::compute(f);
        let uni = Uniformity::compute(f);
        let k = Rc::new(DecodedKernel::decode(f, &pdom, &uni, args));
        if c.map.len() >= CACHE_CAP {
            c.map.clear();
        }
        c.map.insert(key, Rc::clone(&k));
        k
    })
}

/// Drop every cached decode on this thread (mainly for tests and
/// memory-sensitive embedders; correctness never requires it).
pub fn decode_cache_clear() {
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        c.map.clear();
        c.hits = 0;
        c.misses = 0;
    });
}

/// This thread's decode-cache `(hits, misses)` counters.
pub fn decode_cache_stats() -> (u64, u64) {
    CACHE.with(|c| {
        let c = c.borrow();
        (c.hits, c.misses)
    })
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
