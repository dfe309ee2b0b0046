//! The function-granular compile memo.
//!
//! A per-loop sweep point differs from its application's baseline in one
//! function, yet the cleanup fixpoint used to re-run over every function of
//! the module for every point. The pipeline's per-function stage
//! (`optimize_function` in [`crate::pipeline`]) is a pure function of the
//! function it is handed and two option fields, so its result is memoised
//! in a [`Store`] keyed by exactly those three: [`function_fingerprint`]
//! picks the bucket and the whole key is compared, so nothing rests on 64
//! bits. The store is **thread-local**: no lock touches the compile path,
//! and `uu-par` workers (scoped threads, one set per `par_map`) each start
//! from an empty one, which keeps results independent of the worker count.
//! The pipeline decides *what* is admitted and *when* the memo may be
//! consulted at all; this module only keys, stores and counts.

use crate::baseline_unroll::BaselineUnrollOptions;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use uu_ir::store::Store;
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
    /// The function the stage left behind.
    pub output: Function,
    /// `(pass, work)` of every pass invocation of the run, in order.
    pub trace: Vec<(&'static str, u64)>,
    /// Sum of the trace's work: what replaying it adds to the compile clock.
    pub total: u64,
}

/// The stage's whole input: the function, `max_rounds`, `baseline_unroll`.
type Key = (Function, usize, BaselineUnrollOptions);

thread_local! {
    static MEMO: RefCell<Store<Key, Rc<Entry>>> =
        RefCell::new(Store::new(COMPILE_MEMO_SLOT_BUDGET));
    static BYPASSED: Cell<u64> = const { Cell::new(0) };
}

/// The stored run for exactly this input and these options whose replay
/// fits in `room` work units (`None`: no budget), counting a hit or a miss.
/// An entry that does not fit is a miss: the caller runs the stage for
/// real and times out where it would have without a memo.
pub(crate) fn lookup(
    f: &Function,
    max_rounds: usize,
    baseline_unroll: &BaselineUnrollOptions,
    room: Option<u64>,
) -> Option<Rc<Entry>> {
    let is_key = |(input, rounds, unroll): &Key, e: &Rc<Entry>| {
        *rounds == max_rounds
            && unroll == baseline_unroll
            && room.is_none_or(|r| e.total <= r)
            && input == f
    };
    MEMO.with(|m| m.borrow_mut().find(function_fingerprint(f), is_key))
}

/// Store one run. The caller inserts only after a [`lookup`] miss, so an
/// equal key is present only when its replay did not fit the caller's
/// budget — and such a run timed out and is never inserted.
pub(crate) fn insert(
    input: Function,
    max_rounds: usize,
    baseline_unroll: BaselineUnrollOptions,
    output: Function,
    trace: Vec<(&'static str, u64)>,
) {
    let slots = input.num_inst_slots() + output.num_inst_slots();
    let total = trace.iter().map(|(_, w)| w).sum();
    let entry = Rc::new(Entry { output, trace, total });
    let hash = function_fingerprint(&input);
    MEMO.with(|m| m.borrow_mut().insert(hash, (input, max_rounds, baseline_unroll), entry, slots));
}

/// Count one function compiled without consulting the memo.
pub(crate) fn count_bypass() {
    BYPASSED.with(|b| b.set(b.get() + 1));
}

/// Drop every memoised function on this thread and zero the counters
/// (tests and micro-benchmarks that must time the passes themselves;
/// correctness never requires it).
pub fn compile_memo_clear() {
    MEMO.with(|m| m.borrow_mut().clear());
    BYPASSED.with(|b| b.set(0));
}

/// This thread's compile-memo `(hits, misses, bypassed)` counters, one
/// count per function per compile: found and replayed, looked up and run
/// for real, or run without a lookup (bisected or fault-armed
/// compile, or a function the transform changed).
pub fn compile_memo_stats() -> (u64, u64, u64) {
    let (hits, misses) = MEMO.with(|m| m.borrow().stats());
    (hits, misses, BYPASSED.with(Cell::get))
}

/// This thread's store size as `(entries, instruction slots)`; the second
/// never exceeds [`COMPILE_MEMO_SLOT_BUDGET`].
pub fn compile_memo_footprint() -> (usize, usize) {
    MEMO.with(|m| m.borrow().footprint())
}
