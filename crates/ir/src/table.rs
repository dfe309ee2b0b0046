//! Dense entity side-tables: `Vec`-backed maps and bitsets keyed on the
//! arena ids ([`InstId`], [`BlockId`], [`FuncId`]).
//!
//! The IR stores instructions and blocks in per-function arenas with dense
//! `u32` indices, so per-pass side information never needs hashing: a
//! [`SecondaryMap`] is a plain `Vec` indexed by the raw id (missing keys
//! read as the default value, as in cranelift's `SecondaryMap`), and an
//! [`EntitySet`] is a bitset over one `u64` word per 64 entities. Iteration
//! order is index order — deterministic by construction, which is what
//! keeps report bytes independent of hasher state.
//!
//! [`EntitySet`] word buffers are recycled through a bounded thread-local
//! scratch pool: a hot pass that builds and drops a set per invocation
//! reuses the same allocation instead of touching the allocator each time.

use crate::entities::{BlockId, FuncId, InstId};
use std::cell::RefCell;
use std::marker::PhantomData;

/// An arena id that can key a dense side-table.
pub trait EntityKey: Copy {
    /// The dense index of this id.
    fn index(self) -> usize;
    /// Rebuild the id from a dense index.
    fn from_index(ix: usize) -> Self;
}

impl EntityKey for InstId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(ix: usize) -> Self {
        InstId(ix as u32)
    }
}

impl EntityKey for BlockId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(ix: usize) -> Self {
        BlockId(ix as u32)
    }
}

impl EntityKey for FuncId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(ix: usize) -> Self {
        FuncId(ix as u32)
    }
}

/// A dense map from an entity id to `V`: a `Vec` indexed by the raw id.
///
/// Every slot holds a value; keys that were never written read as the
/// default (`V::default()` unless built with [`SecondaryMap::with_default`]).
/// Writes past the current length grow the table, so no pre-sizing is
/// required (though [`SecondaryMap::with_capacity`] avoids regrowth).
#[derive(Debug, Clone)]
pub struct SecondaryMap<K, V> {
    vals: Vec<V>,
    default: V,
    _key: PhantomData<K>,
}

impl<K: EntityKey, V: Clone + Default> SecondaryMap<K, V> {
    /// An empty map whose missing keys read as `V::default()`.
    pub fn new() -> Self {
        Self::with_default(V::default())
    }

    /// An empty map pre-sized for `cap` entities.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_default_and_capacity(V::default(), cap)
    }
}

impl<K: EntityKey, V: Clone + Default> Default for SecondaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityKey, V: Clone> SecondaryMap<K, V> {
    /// An empty map whose missing keys read as `default`.
    pub fn with_default(default: V) -> Self {
        Self::with_default_and_capacity(default, 0)
    }

    /// An empty map whose missing keys read as `default`, pre-sized for
    /// `cap` entities: a pass that keys a map by an arena's slots grows it
    /// once, not once per doubling.
    pub fn with_default_and_capacity(default: V, cap: usize) -> Self {
        SecondaryMap {
            vals: Vec::with_capacity(cap),
            default,
            _key: PhantomData,
        }
    }

    /// The value for `k` (the default if never written).
    pub fn get(&self, k: K) -> &V {
        self.vals.get(k.index()).unwrap_or(&self.default)
    }

    /// Mutable access to the value for `k`, growing the table as needed.
    pub fn get_mut(&mut self, k: K) -> &mut V {
        let ix = k.index();
        if ix >= self.vals.len() {
            self.vals.resize(ix + 1, self.default.clone());
        }
        &mut self.vals[ix]
    }

    /// Set the value for `k`, growing the table as needed.
    pub fn set(&mut self, k: K, v: V) {
        *self.get_mut(k) = v;
    }

    /// Reset every slot to the default, keeping the allocation.
    pub fn clear(&mut self) {
        self.vals.clear();
    }

    /// Number of allocated slots (NOT the number of written keys).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no slot has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// All allocated `(key, value)` slots in index order (including slots
    /// still holding the default).
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.vals.iter().enumerate().map(|(ix, v)| (K::from_index(ix), v))
    }
}

impl<K: EntityKey, V: Clone> std::ops::Index<K> for SecondaryMap<K, V> {
    type Output = V;
    fn index(&self, k: K) -> &V {
        self.get(k)
    }
}

impl<K: EntityKey, V: Clone> std::ops::IndexMut<K> for SecondaryMap<K, V> {
    fn index_mut(&mut self, k: K) -> &mut V {
        self.get_mut(k)
    }
}

/// Size cap of the per-thread [`EntitySet`] word-buffer pool.
const SCRATCH_POOL_CAP: usize = 32;

thread_local! {
    /// Recycled `EntitySet` word buffers (see module docs).
    static SCRATCH: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// A dense set of entity ids: one bit per id.
///
/// `new()` draws its word buffer from a bounded thread-local pool and
/// `Drop` returns it, so hot passes building a set per invocation reuse
/// one allocation. Iteration yields ids in increasing index order.
#[derive(Debug)]
pub struct EntitySet<K> {
    words: Vec<u64>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: EntityKey> EntitySet<K> {
    /// An empty set (buffer drawn from the thread-local scratch pool).
    pub fn new() -> Self {
        let mut words = SCRATCH
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_default();
        words.iter_mut().for_each(|w| *w = 0);
        EntitySet {
            words,
            len: 0,
            _key: PhantomData,
        }
    }

    /// An empty set pre-sized for `cap` entities.
    pub fn with_capacity(cap: usize) -> Self {
        let mut s = Self::new();
        let want = cap.div_ceil(64);
        if s.words.len() < want {
            s.words.resize(want, 0);
        }
        s
    }

    /// Insert `k`; returns whether it was newly inserted.
    pub fn insert(&mut self, k: K) -> bool {
        let ix = k.index();
        let (w, b) = (ix / 64, ix % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `k`; returns whether it was present.
    pub fn remove(&mut self, k: K) -> bool {
        let ix = k.index();
        let (w, b) = (ix / 64, ix % 64);
        match self.words.get_mut(w) {
            Some(word) if *word & (1 << b) != 0 => {
                *word &= !(1 << b);
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `k` is in the set.
    pub fn contains(&self, k: K) -> bool {
        let ix = k.index();
        self.words
            .get(ix / 64)
            .is_some_and(|w| w & (1 << (ix % 64)) != 0)
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Ids in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.words.iter().enumerate().flat_map(|(wix, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(K::from_index(wix * 64 + b))
            })
        })
    }
}

impl<K: EntityKey> Default for EntitySet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityKey> Clone for EntitySet<K> {
    fn clone(&self) -> Self {
        let mut s = Self::new();
        if s.words.len() < self.words.len() {
            s.words.resize(self.words.len(), 0);
        }
        s.words[..self.words.len()].copy_from_slice(&self.words);
        s.len = self.len;
        s
    }
}

impl<K: EntityKey> FromIterator<K> for EntitySet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut s = Self::new();
        for k in iter {
            s.insert(k);
        }
        s
    }
}

impl<K> Drop for EntitySet<K> {
    fn drop(&mut self) {
        if self.words.capacity() == 0 {
            return;
        }
        let words = std::mem::take(&mut self.words);
        // Too-small buffers are not worth recycling; a bounded pool keeps
        // the worst case at a few KB per thread.
        let _ = SCRATCH.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < SCRATCH_POOL_CAP {
                pool.push(words);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_reads_default_for_missing_keys() {
        let mut m: SecondaryMap<BlockId, u64> = SecondaryMap::new();
        assert_eq!(*m.get(BlockId::from_index(7)), 0);
        m.set(BlockId::from_index(7), 42);
        assert_eq!(m[BlockId::from_index(7)], 42);
        assert_eq!(*m.get(BlockId::from_index(3)), 0);
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn map_with_custom_default() {
        let mut m: SecondaryMap<InstId, usize> = SecondaryMap::with_default(usize::MAX);
        assert_eq!(*m.get(InstId::from_index(0)), usize::MAX);
        m[InstId::from_index(2)] = 5;
        assert_eq!(*m.get(InstId::from_index(2)), 5);
        assert_eq!(*m.get(InstId::from_index(1)), usize::MAX);
    }

    #[test]
    fn set_insert_remove_iterate() {
        let mut s: EntitySet<InstId> = EntitySet::new();
        assert!(s.insert(InstId::from_index(3)));
        assert!(s.insert(InstId::from_index(100)));
        assert!(!s.insert(InstId::from_index(3)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(InstId::from_index(100)));
        assert!(!s.contains(InstId::from_index(99)));
        let got: Vec<usize> = s.iter().map(|k| EntityKey::index(k)).collect();
        assert_eq!(got, vec![3, 100]);
        assert!(s.remove(InstId::from_index(3)));
        assert!(!s.remove(InstId::from_index(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let cap = {
            let mut s: EntitySet<InstId> = EntitySet::new();
            s.insert(InstId::from_index(1000));
            s.words.capacity()
        };
        // The next set must reuse the pooled buffer — same capacity, reset
        // content.
        let s2: EntitySet<InstId> = EntitySet::new();
        assert!(s2.words.capacity() >= cap);
        assert!(s2.is_empty());
        assert!(!s2.contains(InstId::from_index(1000)));
    }
}
