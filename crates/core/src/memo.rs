//! The function-granular compile memo.
//!
//! A per-loop sweep point differs from its application's baseline in one
//! function, yet the cleanup fixpoint used to re-run over every function of
//! the module for every point. The pipeline's per-function stage
//! (`optimize_function` in [`crate::pipeline`]) is a pure function of the
//! function it is handed, so its result is memoised in a [`Store`] keyed by
//! that function: [`function_fingerprint`] picks the bucket and the whole
//! function is compared, so nothing rests on 64 bits. Inputs and outputs
//! are shared [`Arc<Function>`]s, so a point whose module is a clone of an
//! earlier point's finds each untouched function by pointer identity — no
//! fingerprint, no structural compare — and takes the stored output
//! without copying it. The store is **thread-local**: no
//! lock touches the compile path, and `uu-par` workers (scoped threads, one
//! set per `par_map`) each start from an empty one, which keeps results
//! independent of the worker count.
//! The pipeline decides *what* is admitted and *when* the memo may be
//! consulted at all; this module only keys, stores and counts.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use uu_ir::store::{Inserted, Store};
use uu_ir::{function_fingerprint, Function};

/// Instruction-arena slots (inputs plus outputs) the store may hold before
/// it is wholesale-cleared. Peak RSS, not time, sizes it: XSBench — 106
/// functions, the suite's largest module — takes 8 035 slots, which
/// measure as +1.7 MB resident, and the end-to-end benchmark bounds peak
/// RSS growth at 10 % (2.5 MB there). Twice XSBench holds any one
/// application and most of a sweep over all sixteen (19.6 k slots).
pub const COMPILE_MEMO_SLOT_BUDGET: usize = 16 * 1024;

/// One memoised run of the per-function stage.
pub(crate) struct Entry {
    /// The function the stage left behind, verified before it was stored.
    pub output: Arc<Function>,
    /// The pass of every invocation of the run, in order: the opt-bisect
    /// log run a replay appends, shared with every log it is replayed into.
    pub passes: Arc<[&'static str]>,
    /// The function's name, which the replayed log run carries.
    pub function: Arc<str>,
    /// Work per pass, summed over the run's invocations, in the order of
    /// each pass's first invocation: what a replay charges.
    pub per_pass: Vec<(&'static str, u64)>,
    /// Sum of the run's work: what replaying it adds to the compile clock.
    pub total: u64,
}

/// The stage's whole input: the function.
type Key = Arc<Function>;

/// The store plus the bucket of every stored input by the input's address.
/// An address names one function only while the store holds its `Arc`, so
/// the index is dropped whenever the store clears.
struct Memo {
    store: Store<Key, Rc<Entry>>,
    by_ptr: HashMap<*const Function, u64>,
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo {
        store: Store::new(COMPILE_MEMO_SLOT_BUDGET),
        by_ptr: HashMap::new(),
    });
    static BYPASSED: Cell<u64> = const { Cell::new(0) };
}

/// The stored run for exactly this input whose replay fits in `room` work
/// units (`None`: no budget), counting a hit or a miss; on a miss, the
/// input's bucket for [`insert`]. An entry that does not fit is a miss:
/// the caller runs the stage for real and times out where it would have
/// without a memo.
pub(crate) fn lookup(f: &Arc<Function>, room: Option<u64>) -> Result<Rc<Entry>, u64> {
    let is_key = |input: &Key, e: &Rc<Entry>| {
        room.is_none_or(|r| e.total <= r) && (Arc::ptr_eq(input, f) || **input == **f)
    };
    MEMO.with(|m| {
        let m = &mut *m.borrow_mut();
        let hash = match m.by_ptr.get(&Arc::as_ptr(f)) {
            Some(&hash) => hash,
            None => function_fingerprint(f),
        };
        m.store.find(hash, is_key).ok_or(hash)
    })
}

/// Store one run, whose `output` the caller has verified, in the bucket
/// [`lookup`] returned. The caller inserts only after a miss, so an equal
/// key is present only when its replay did not fit the caller's budget —
/// and such a run timed out and is never inserted.
pub(crate) fn insert(
    hash: u64,
    input: Arc<Function>,
    output: Arc<Function>,
    trace: Vec<(&'static str, u64)>,
) {
    let slots = input.num_inst_slots() + output.num_inst_slots();
    let mut per_pass: Vec<(&'static str, u64)> = Vec::new();
    for &(pass, work) in &trace {
        match per_pass.iter_mut().find(|(p, _)| *p == pass) {
            Some((_, sum)) => *sum += work,
            None => per_pass.push((pass, work)),
        }
    }
    let entry = Rc::new(Entry {
        output,
        passes: trace.into_iter().map(|(pass, _)| pass).collect(),
        function: Arc::from(input.name()),
        total: per_pass.iter().map(|(_, w)| w).sum(),
        per_pass,
    });
    let ptr = Arc::as_ptr(&input);
    MEMO.with(|m| {
        let m = &mut *m.borrow_mut();
        match m.store.insert(hash, input, entry, slots) {
            Inserted::Added => {}
            Inserted::AfterClear => m.by_ptr.clear(),
            Inserted::Refused => return,
        }
        m.by_ptr.insert(ptr, hash);
    });
}

/// Count one function compiled without consulting the memo.
pub(crate) fn count_bypass() {
    BYPASSED.with(|b| b.set(b.get() + 1));
}

/// Drop every memoised function on this thread and zero the counters
/// (tests and micro-benchmarks that must time the passes themselves;
/// correctness never requires it).
pub fn compile_memo_clear() {
    MEMO.with(|m| {
        let m = &mut *m.borrow_mut();
        m.store.clear();
        m.by_ptr.clear();
    });
    BYPASSED.with(|b| b.set(0));
}

/// This thread's compile-memo `(hits, misses, bypassed)` counters, one
/// count per function per compile: found and replayed, looked up and run
/// for real, or run without a lookup (bisected or fault-armed
/// compile, or a function the transform changed).
pub fn compile_memo_stats() -> (u64, u64, u64) {
    let (hits, misses) = MEMO.with(|m| m.borrow().store.stats());
    (hits, misses, BYPASSED.with(Cell::get))
}

/// This thread's store size as `(entries, instruction slots)`; the second
/// never exceeds [`COMPILE_MEMO_SLOT_BUDGET`].
pub fn compile_memo_footprint() -> (usize, usize) {
    MEMO.with(|m| m.borrow().store.footprint())
}
