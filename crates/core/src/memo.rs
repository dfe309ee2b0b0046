//! The function-granular compile memo's store.
//!
//! A per-loop sweep point differs from its application's baseline in one
//! function, yet the cleanup fixpoint used to re-run over every function of
//! the module for every point. The pipeline's per-function stage
//! (`optimize_function` in [`crate::pipeline`]) is a pure function of the
//! function it is handed and two option fields, so its result is memoised
//! here, in the idiom of `uu-simt`'s decode cache: **content-addressed** —
//! [`function_fingerprint`] picks the bucket, then the *whole* input
//! function is compared structurally (`Function: PartialEq`), so the key is
//! complete by construction and nothing rests on 64 bits — and
//! **thread-local**, so no lock touches the compile path and `uu-par`
//! workers (scoped threads, one set per `par_map`) each start from an empty
//! store, which keeps results independent of the worker count.
//!
//! The store is bounded by one constant, [`COMPILE_MEMO_SLOT_BUDGET`]
//! instruction-arena slots summed over the stored inputs and outputs, with
//! a wholesale clear when an insert would pass it. The pipeline decides
//! *what* is admitted and *when* the memo may be consulted at all; this
//! module only stores, finds and counts.

use crate::baseline_unroll::BaselineUnrollOptions;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
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
    max_rounds: usize,
    baseline_unroll: BaselineUnrollOptions,
    /// The function the stage was handed — the key.
    pub input: Function,
    /// The function the stage left behind.
    pub output: Function,
    /// `(pass, work)` of every pass invocation of the run, in order.
    pub trace: Vec<(&'static str, u64)>,
    /// Sum of the trace's work: what replaying it adds to the compile clock.
    pub total: u64,
}

#[derive(Default)]
struct Memo {
    map: HashMap<u64, Vec<Rc<Entry>>>,
    slots: usize,
    hits: u64,
    misses: u64,
    bypassed: u64,
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
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
    let hash = function_fingerprint(f);
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        let found = m.map.get(&hash).and_then(|bucket| {
            bucket.iter().find(|e| {
                e.max_rounds == max_rounds
                    && e.baseline_unroll == *baseline_unroll
                    && room.is_none_or(|r| e.total <= r)
                    && e.input == *f
            })
        });
        let found = found.map(Rc::clone);
        match found {
            Some(_) => m.hits += 1,
            None => m.misses += 1,
        }
        found
    })
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
    if slots > COMPILE_MEMO_SLOT_BUDGET {
        return;
    }
    let entry = Rc::new(Entry {
        max_rounds,
        baseline_unroll,
        total: trace.iter().map(|(_, w)| w).sum(),
        input,
        output,
        trace,
    });
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.slots + slots > COMPILE_MEMO_SLOT_BUDGET {
            m.map.clear();
            m.slots = 0;
        }
        m.slots += slots;
        m.map
            .entry(function_fingerprint(&entry.input))
            .or_default()
            .push(entry);
    });
}

/// Count one function compiled without consulting the memo.
pub(crate) fn count_bypass() {
    MEMO.with(|m| m.borrow_mut().bypassed += 1);
}

/// Drop every memoised function on this thread and zero the counters
/// (tests and micro-benchmarks that must time the passes themselves;
/// correctness never requires it).
pub fn compile_memo_clear() {
    MEMO.with(|m| *m.borrow_mut() = Memo::default());
}

/// This thread's compile-memo `(hits, misses, bypassed)` counters, one
/// count per function per compile: found and replayed, looked up and run
/// for real, or run without a lookup (bisected or fault-armed
/// compile, or a function the transform changed).
pub fn compile_memo_stats() -> (u64, u64, u64) {
    MEMO.with(|m| {
        let m = m.borrow();
        (m.hits, m.misses, m.bypassed)
    })
}

/// This thread's store size as `(entries, instruction slots)`, recounted
/// from the entries themselves (a test hook); the second never exceeds
/// [`COMPILE_MEMO_SLOT_BUDGET`].
pub fn compile_memo_footprint() -> (usize, usize) {
    MEMO.with(|m| {
        let m = m.borrow();
        let entries = || m.map.values().flatten();
        let slots = entries().map(|e| e.input.num_inst_slots() + e.output.num_inst_slots());
        (entries().count(), slots.sum())
    })
}
