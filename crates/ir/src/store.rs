//! A bounded content-addressed store: the one shape behind `uu-core`'s
//! compile memo and `uu-simt`'s decode cache.
//!
//! The caller drives it. A caller-computed `u64` picks the bucket and the
//! caller's predicate over the whole stored key decides the hit, so a hash
//! collision costs a comparison, never a wrong answer. Every entry carries a
//! caller-given weight; an insert that would take the total past the budget
//! fixed at construction clears the store wholesale first, and an entry
//! heavier than the whole budget is not stored. The store itself is
//! thread-agnostic: both callers keep one per thread in a `thread_local!`.

use std::collections::HashMap;

/// Content-addressed `K → V` entries under a weight budget, with hit and
/// miss counters.
pub struct Store<K, V> {
    buckets: HashMap<u64, Vec<(K, V)>>,
    budget: usize,
    entries: usize,
    weight: usize,
    hits: u64,
    misses: u64,
}

impl<K, V: Clone> Store<K, V> {
    /// An empty store holding at most `budget` total weight.
    pub fn new(budget: usize) -> Self {
        Store {
            buckets: HashMap::new(),
            budget,
            entries: 0,
            weight: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The value of the first entry in bucket `hash` that `is_key` accepts,
    /// counting a hit or a miss.
    pub fn find(&mut self, hash: u64, is_key: impl Fn(&K, &V) -> bool) -> Option<V> {
        let bucket = self.buckets.get(&hash).map_or(&[][..], Vec::as_slice);
        let found = bucket
            .iter()
            .find(|(k, v)| is_key(k, v))
            .map(|(_, v)| v.clone());
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Store `value` under `key` in bucket `hash`, clearing every entry
    /// first when `weight` would take the total past the budget.
    pub fn insert(&mut self, hash: u64, key: K, value: V, weight: usize) {
        if weight > self.budget {
            return;
        }
        if self.weight + weight > self.budget {
            self.buckets.clear();
            (self.entries, self.weight) = (0, 0);
        }
        self.entries += 1;
        self.weight += weight;
        self.buckets.entry(hash).or_default().push((key, value));
    }

    /// Drop every entry and zero the counters.
    pub fn clear(&mut self) {
        *self = Store::new(self.budget);
    }

    /// `(hits, misses)` since construction or the last [`Store::clear`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(entries, weight)` held now; the weight never exceeds the budget.
    pub fn footprint(&self) -> (usize, usize) {
        (self.entries, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::encode;
    use crate::{Constant, Function, FunctionBuilder, Param, Type, Value};

    fn kernel(n: i64) -> Function {
        let mut f = Function::new("k", vec![Param::new("out", Type::Ptr)], Type::Void);
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

    /// The decode cache's key: a kernel body and its encoded constants.
    fn key(n: i64, arg: i64) -> (Function, Vec<(u8, u64)>) {
        (kernel(n), vec![encode(Constant::I64(arg))])
    }

    #[test]
    fn full_key_equality_not_the_bucket_hash_decides_a_hit() {
        // Every key lands in bucket 7: the hash agrees on all of them.
        let mut s = Store::new(1 << 10);
        s.insert(7, key(1, 64), "a", 1);
        let probe = |s: &mut Store<_, _>, k: &(Function, Vec<(u8, u64)>)| s.find(7, |x, _| x == k);
        assert_eq!(probe(&mut s, &key(1, 64)), Some("a"), "an equal key hits");
        assert_eq!(
            probe(&mut s, &key(2, 64)),
            None,
            "same constants, other body"
        );
        assert_eq!(
            probe(&mut s, &key(1, 128)),
            None,
            "same body, other constants"
        );
        s.insert(7, key(1, 128), "b", 1);
        assert_eq!(probe(&mut s, &key(1, 128)), Some("b"));
        assert_eq!(
            probe(&mut s, &key(1, 64)),
            Some("a"),
            "a colliding insert kept the first"
        );
        assert_eq!(s.stats(), (3, 2));
        assert_eq!(s.footprint(), (2, 2));
    }

    #[test]
    fn the_budget_clears_wholesale_and_refuses_what_cannot_fit() {
        let mut s = Store::new(10);
        s.insert(1, 1, 'a', 6);
        s.insert(2, 2, 'b', 4);
        assert_eq!(s.footprint(), (2, 10));
        s.insert(3, 3, 'c', 1);
        assert_eq!(
            s.footprint(),
            (1, 1),
            "passing the budget cleared the store first"
        );
        assert_eq!(s.find(1, |k, _| *k == 1), None);
        s.insert(4, 4, 'd', 11);
        assert_eq!(
            s.footprint(),
            (1, 1),
            "an entry over the whole budget is not stored"
        );
        assert_eq!(s.find(3, |k, _| *k == 3), Some('c'));
        assert_eq!(s.stats(), (1, 1), "evictions keep the counters");
        s.clear();
        assert_eq!((s.stats(), s.footprint()), ((0, 0), (0, 0)));
    }
}
