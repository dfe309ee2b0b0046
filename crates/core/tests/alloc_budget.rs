//! Heap allocations of the `cold-loops` point set, against a pinned budget.
//!
//! A cold point compiles one changed function through the guarded pass
//! pipeline; the other 105 functions of XSBench replay from the compile
//! memo. The cleanup passes over the changed function should allocate a
//! bounded number of scratch buffers per invocation, not one per block,
//! phi or value. The count is exact and repeats run to run (the compile
//! clock, not wall time, decides timeouts), so it is the deterministic
//! proxy for that cost: a change that brings a per-block `Vec` back into
//! a pass shows here as a blown budget.
//!
//! The allocator counts per thread, so only this test's compiles are
//! counted, whatever else the process runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uu_core::{compile, compile_memo_clear, LoopFilter, PipelineOptions, Transform};
use uu_harness::experiment::{loop_list, shared_module, sweep_configs, COMPILE_TIMEOUT};
use uu_kernels::{all_benchmarks, Benchmark};

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) the
/// `cold-loops` point set may make on one thread: the count at the change
/// that made the passes allocation-light, with about 2 % headroom.
const COLD_POINTS_BUDGET: u64 = 157_000;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's own layout and
// pointer; the counter is a const-initialised thread-local `Cell` without
// a destructor, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn xsbench() -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == "XSBench")
        .expect("XSBench is a benchmark")
}

/// Compile `bench`'s shared module as a harness point does, without
/// simulating it.
fn compile_point(bench: &Benchmark, transform: Transform, filter: LoopFilter) {
    let mut m = shared_module(bench);
    let opts = PipelineOptions {
        transform,
        filter,
        timeout: Some(COMPILE_TIMEOUT),
        ..Default::default()
    };
    let out = compile(&mut m, &opts);
    assert_eq!(out.verify_error, None);
}

#[test]
fn cold_loop_points_stay_within_their_allocation_budget() {
    let bench = xsbench();
    // Build the module and list its loops before counting anything.
    let cold: Vec<_> = loop_list(&bench)
        .into_iter()
        .filter(|l| !bench.info.hot_kernels.contains(&l.func.as_str()))
        .step_by(16)
        .collect();
    assert_eq!(cold.len(), 14, "every 16th of XSBench's 209 cold loops");
    compile_memo_clear();

    let start = allocs();
    compile_point(&bench, Transform::Baseline, LoopFilter::All);
    let baseline = allocs() - start;

    let start = allocs();
    for l in &cold {
        for (_, transform) in sweep_configs() {
            let filter = LoopFilter::Only {
                func: l.func.clone(),
                loop_id: l.loop_id,
            };
            compile_point(&bench, transform, filter);
        }
    }
    let points = allocs() - start;
    eprintln!(
        "alloc_budget: baseline {baseline} allocations; {} cold points {points} (budget {COLD_POINTS_BUDGET})",
        cold.len() * sweep_configs().len()
    );
    assert!(
        points <= COLD_POINTS_BUDGET,
        "the cold-loops point set made {points} allocations, over its budget of {COLD_POINTS_BUDGET}"
    );
}
