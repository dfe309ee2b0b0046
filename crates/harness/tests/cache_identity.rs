//! The artifact cache's headline guarantee: cached and cacheless sweeps
//! are identical — not statistically close, *identical* — at any worker
//! count, cold or warm. Every report is a pure function of the sweep
//! struct, so Debug-comparing the structs (which renders f64s at full
//! round-trip precision) is equivalent to diffing the report bytes.

use uu_core::FaultPlan;
use uu_harness::experiment::workload_tag;
use uu_harness::sweep::Sweep;
use uu_harness::{run_study_backed, run_sweep_backed, Backend};
use uu_kernels::{all_benchmarks, Benchmark};
use uu_serve::CompileCache;

fn benches() -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "mandelbrot")
        .collect()
}

fn repr(s: &Sweep) -> String {
    format!("{:?}\n{:?}", s.points, s.apps)
}

#[test]
fn cached_sweep_is_identical_to_cacheless_at_any_jobs() {
    let benches = benches();
    let plain = run_sweep_backed(&benches, true, 1, None, Backend::default());

    // Cold cache, serial.
    let cold_cache = CompileCache::new_mem();
    let cold = run_sweep_backed(&benches, true, 1, None, Backend::local(Some(&cold_cache)));
    assert_eq!(repr(&plain), repr(&cold), "cold cached != cacheless");
    // The sweep shares compiles across configs even within one cold run
    // (e.g. each loop's `unmerge` module is compiled once per filter).
    let cold_stats = cold_cache.stats();
    assert!(cold_stats.compile_misses > 0);

    // Cold cache, 4 workers: the cache is shared across threads.
    let j4_cache = CompileCache::new_mem();
    let j4 = run_sweep_backed(&benches, true, 4, None, Backend::local(Some(&j4_cache)));
    assert_eq!(repr(&plain), repr(&j4), "jobs=4 cached != cacheless");

    // Warm rerun over the jobs=4 cache: every executed point must come
    // from a run artifact, every skip-run point from a compile artifact —
    // and the output must still be identical.
    let warm = run_sweep_backed(&benches, true, 1, None, Backend::local(Some(&j4_cache)));
    assert_eq!(repr(&plain), repr(&warm), "warm cached != cacheless");
    let st = j4_cache.stats();
    assert!(st.run_mem_hits > 0, "warm rerun must hit run artifacts: {st:?}");
    assert_eq!(
        st.run_mem_hits + st.run_disk_hits,
        st.run_misses,
        "warm pass must re-serve exactly the cold pass's run lookups: {st:?}"
    );
}

/// The run-key tag's exact bytes: on-disk run artifacts and the benchmark
/// package's own key derivation both depend on them. The `||` slot stays
/// empty; a memory-fault plan fills the last one.
#[test]
fn run_key_tag_bytes_are_pinned() {
    let bench = &benches()[0];
    let stem = format!(
        "mandelbrot|wl{}|x{}||",
        uu_kernels::WORKLOAD_VERSION,
        bench.info.launch_repeats.max(1)
    );
    assert_eq!(workload_tag(bench, None), stem);
    let mem = FaultPlan::parse("mem@25:9").unwrap();
    assert_eq!(workload_tag(bench, Some(&mem)), format!("{stem}{}", mem.spec()));
    assert_eq!(workload_tag(bench, Some(&mem)), format!("{stem}mem@25:0x9"));
}

#[test]
fn cached_study_is_identical_and_warm_hits() {
    let benches = benches();
    let plain = run_study_backed(&benches, 1, None, Backend::default());
    let cache = CompileCache::new_mem();
    let cold = run_study_backed(&benches, 2, None, Backend::local(Some(&cache)));
    let warm = run_study_backed(&benches, 1, None, Backend::local(Some(&cache)));
    let r = |s: &uu_harness::study::Study| format!("{:?}", s.points);
    assert_eq!(r(&plain), r(&cold));
    assert_eq!(r(&plain), r(&warm));
    let st = cache.stats();
    assert!(st.run_mem_hits > 0, "{st:?}");
    assert!(st.work_saved > 0, "{st:?}");
}

#[test]
fn disk_cache_round_trips_a_sweep_across_cache_instances() {
    // bezier-surface, not mandelbrot: its two cold loops produce
    // skip-run (compile-only) points, so the warm pass must hit disk
    // *compile* artifacts as well as run artifacts. A single-hot-loop
    // app re-serves everything from run artifacts and never consults
    // the compile layer on a warm pass.
    let benches: Vec<Benchmark> = all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "bezier-surface")
        .collect();
    let dir = std::env::temp_dir().join(format!("uu-sweep-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plain = run_sweep_backed(&benches, true, 1, None, Backend::default());
    {
        let cache = CompileCache::at_dir(&dir).unwrap();
        let cold = run_sweep_backed(&benches, true, 1, None, Backend::local(Some(&cache)));
        assert_eq!(repr(&plain), repr(&cold));
    }
    // A fresh cache instance (empty memory, as after a process restart)
    // must serve the whole sweep from disk artifacts, byte-identically.
    let cache = CompileCache::at_dir(&dir).unwrap();
    let warm = run_sweep_backed(&benches, true, 1, None, Backend::local(Some(&cache)));
    assert_eq!(repr(&plain), repr(&warm), "disk-warm sweep != cacheless");
    let st = cache.stats();
    assert!(st.run_disk_hits > 0, "{st:?}");
    assert!(st.compile_disk_hits > 0, "{st:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
