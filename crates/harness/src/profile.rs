//! `--profile`: where a report command's time went, as a span table on
//! stderr at exit.
//!
//! Process-wide totals, one wall-time sum and one count per span, summed
//! over every worker thread (so at `UU_JOBS` above 1 a span can exceed the
//! run's wall time). Recording is off unless [`enable`] was called; a
//! measurement then reads the flag once, with one relaxed load, and times
//! nothing. Nothing recorded here reaches a report: the table goes to
//! stderr only.
//!
//! The spans:
//! * a cold point's compile and an executed point's compile, each split
//!   per pass by the [`uu_core::CompileOutcome::timings`] the compile
//!   returns (a compile through a store has no split: its time is the
//!   store lookup's);
//! * simulating an executed point;
//! * store lookups (a run record, or a compile the store serves or does)
//!   and stores (a run record);
//! * rendering the reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use uu_core::pipeline::PassTiming;

static ON: AtomicBool = AtomicBool::new(false);

/// One timed region of a report command.
#[derive(Debug, Clone, Copy)]
pub enum Span {
    /// A cold point's compile (the point borrows its baseline's run).
    ColdCompile,
    /// An executed point's compile.
    ExecutedCompile,
    /// Simulating an executed point's workload.
    Simulate,
    /// A store lookup: a run record, or a compile the store serves or does.
    StoreLookup,
    /// Storing a run record.
    Store,
    /// Writing the reports.
    Render,
}

const SPANS: [(Span, &str); 6] = [
    (Span::ColdCompile, "cold-point compile"),
    (Span::ExecutedCompile, "executed-point compile"),
    (Span::Simulate, "simulate"),
    (Span::StoreLookup, "store lookup"),
    (Span::Store, "store"),
    (Span::Render, "render"),
];

/// Per span: nanoseconds, then count.
static TOTALS: [[AtomicU64; 2]; SPANS.len()] =
    [const { [AtomicU64::new(0), AtomicU64::new(0)] }; SPANS.len()];

/// Per (compile span, pass): wall time and the compiles that ran the pass.
type PassTotals = BTreeMap<(usize, &'static str), (Duration, u64)>;
static PASSES: Mutex<PassTotals> = Mutex::new(BTreeMap::new());

/// Turn recording on for the rest of the process.
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// Whether recording is on: the one load a measurement pays.
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Add one occurrence of `span` lasting `elapsed`.
fn record(span: Span, elapsed: Duration) {
    let [nanos, count] = &TOTALS[span as usize];
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    nanos.fetch_add(ns, Ordering::Relaxed);
    count.fetch_add(1, Ordering::Relaxed);
}

/// Run `f`, adding its wall time to `span` when `on`.
pub fn timed<T>(on: bool, span: Span, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    record(span, t0.elapsed());
    out
}

/// Add one compile's per-pass timings to `span`'s split.
pub fn passes(span: Span, timings: &[PassTiming]) {
    let mut passes = PASSES.lock().expect("no profile update panics");
    for t in timings {
        let (elapsed, count) = passes.entry((span as usize, t.name)).or_default();
        *elapsed += t.elapsed;
        *count += 1;
    }
}

/// The span table: one line per span that occurred, with its wall time
/// and count, each compile span followed by its passes, slowest first.
pub fn table() -> String {
    let passes = PASSES.lock().expect("no profile update panics");
    let mut out = String::from("profile (wall time summed over workers; count):\n");
    for (span, name) in SPANS {
        let [nanos, count] = &TOTALS[span as usize];
        let count = count.load(Ordering::Relaxed);
        if count == 0 {
            continue;
        }
        let secs = Duration::from_nanos(nanos.load(Ordering::Relaxed)).as_secs_f64();
        out.push_str(&format!("  {name:<28} {secs:>9.3} s {count:>7}\n"));
        let mut split: Vec<_> = passes
            .iter()
            .filter(|((s, _), _)| *s == span as usize)
            .map(|((_, pass), t)| (*pass, *t))
            .collect();
        split.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
        for (pass, (elapsed, count)) in split {
            let secs = elapsed.as_secs_f64();
            out.push_str(&format!("    {pass:<26} {secs:>9.3} s {count:>7}\n"));
        }
    }
    out
}
