//! Service-level fault drills (a [`ServeFaultPlan`] set in
//! [`ServeOptions`]) driven end to end through the harness: a concurrent daemon with injected torn
//! frames, disconnects, handler panics, stalls and disk-full stores must
//! never lose a response — and a sweep or study routed through it must
//! stay **byte-identical** to the cacheless local reference, at any
//! worker count. The daemon, like the cache, is a wall-time lever only,
//! and a warm one serves a sweep what a cache directory would: one
//! request per point, nothing compiled or simulated again.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use uu_core::{FaultPlan, LoopFilter};
use uu_harness::experiment::{loop_list, measure_backed, sweep_configs, PointTask};
use uu_harness::study::{run_study_backed, Study};
use uu_harness::sweep::{run_sweep_backed, Sweep};
use uu_harness::{measure_baseline, Backend};
use uu_kernels::{all_benchmarks, Benchmark};
use uu_serve::{
    serve_unix_with, CacheStats, CompileCache, Message, Remote, ServeFaultPlan, ServeOptions,
};

fn benches() -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "mandelbrot")
        .collect()
}

fn sweep_repr(s: &Sweep) -> String {
    format!("{:?}\n{:?}", s.points, s.apps)
}

fn study_repr(s: &Study) -> String {
    format!("{:?}", s.points)
}

/// Run `f` against an in-process daemon on a fresh Unix socket, then
/// drain it with `shutdown` and return the daemon cache's stats. The
/// daemon must exit cleanly even when `f` made it tear frames, panic, or
/// shed load — a lost response would hang the scope join, failing loudly.
fn with_daemon<R>(
    opts: ServeOptions,
    cache: &CompileCache,
    f: impl FnOnce(&Remote) -> R,
) -> (R, CacheStats) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "uu-serve-faults-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("daemon.sock");
    let out = std::thread::scope(|s| {
        let daemon = {
            let sock = sock.clone();
            s.spawn(move || serve_unix_with(&sock, cache, opts))
        };
        let remote = Remote::new(&sock);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&remote)));
        let bye = remote.request(&Message::new("shutdown")).unwrap();
        assert_eq!(bye.verb, "ok", "drain request must be honored");
        daemon.join().unwrap().unwrap();
        match out {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    });
    assert!(!sock.exists(), "daemon must remove its socket on exit");
    let stats = stats_sanity(cache.stats());
    let _ = std::fs::remove_dir_all(&dir);
    (out, stats)
}

/// Cross-field invariants every drill's stats must satisfy.
fn stats_sanity(st: CacheStats) -> CacheStats {
    assert!(st.requests > 0, "daemon served nothing: {st:?}");
    st
}

/// The backend of a daemon-backed run: the daemon serves every point.
fn served_by(remote: &Remote) -> Backend<'_> {
    Backend { cache: None, remote: Some(remote) }
}

/// A tiny module for raw-protocol drills (the sweep tests use real
/// benchmark modules).
const MODULE: &str = "\
; module t
fn @k(i64 %n) -> i64 {
bb0:
  br bb1
bb1:
  %1 = phi i64 [0, bb0], [%2, bb2]
  %3 = icmp slt i64 %1, %n
  br i1 %3, bb2, bb3
bb2:
  %2 = add i64 %1, 1
  br bb1
bb3:
  ret i64 %1
}
";

#[test]
fn faulted_daemon_sweep_is_byte_identical_at_jobs_1_and_4() {
    let benches = benches();
    let plain = run_sweep_backed(&benches, true, 1, None, Backend::default());

    // Two workers, tight admission, and a fault plan that tears one
    // response, drops one connection, and panics one handler — spread
    // across the admitted-request stream so faults land in both runs.
    let opts = ServeOptions {
        workers: 2,
        inflight: 2,
        fault: Some(
            ServeFaultPlan::parse("torn@0,disconnect@3,panic@7,torn@13,disconnect@16").unwrap(),
        ),
        ..ServeOptions::default()
    };
    let daemon_cache = CompileCache::new_mem();
    let ((j1, j4), stats) = with_daemon(opts, &daemon_cache, |remote| {
        let j1 = run_sweep_backed(&benches, true, 1, None, served_by(remote));
        let j4 = run_sweep_backed(&benches, true, 4, None, served_by(remote));
        (j1, j4)
    });
    assert_eq!(
        sweep_repr(&plain),
        sweep_repr(&j1),
        "daemon-backed jobs=1 sweep diverged from the cacheless reference"
    );
    assert_eq!(
        sweep_repr(&plain),
        sweep_repr(&j4),
        "daemon-backed jobs=4 sweep diverged from the cacheless reference"
    );
    // The injected faults actually fired and were contained.
    assert!(stats.handler_panics >= 1, "{stats:?}");
    assert_eq!(stats.quarantined_modules, 0, "one panic must not quarantine: {stats:?}");
    assert!(stats.requests > 10, "{stats:?}");
}

#[test]
fn a_primed_daemon_serves_a_sweep_with_one_request_per_point() {
    let benches = benches();
    let plain = run_sweep_backed(&benches, true, 1, None, Backend::default());
    let daemon_cache = CompileCache::new_mem();
    let ((cold, warm, before, after), _) =
        with_daemon(ServeOptions::default(), &daemon_cache, |remote| {
            let cold = run_sweep_backed(&benches, true, 1, None, served_by(remote));
            let before = daemon_cache.stats();
            let warm = run_sweep_backed(&benches, true, 1, None, served_by(remote));
            (cold, warm, before, daemon_cache.stats())
        });
    assert_eq!(sweep_repr(&plain), sweep_repr(&cold), "priming pass diverged");
    assert_eq!(sweep_repr(&plain), sweep_repr(&warm), "warm pass diverged");
    // Warm: every executed point (baseline, heuristic, each hot point) is
    // one `lookup-run` hit, every cold point one `compile` hit, and
    // nothing is compiled again.
    let points = 2 * warm.apps.len() + warm.points.len();
    let executed = 2 * warm.apps.len() + warm.points.iter().filter(|p| p.hot).count();
    let run_hits = |st: &CacheStats| st.run_mem_hits + st.run_disk_hits;
    assert_eq!(run_hits(&after) - run_hits(&before), executed as u64, "{before:?}\n{after:?}");
    assert_eq!(after.compile_misses, before.compile_misses, "{before:?}\n{after:?}");
    assert_eq!(after.requests - before.requests, points as u64, "{before:?}\n{after:?}");
}

#[test]
fn faulted_daemon_study_is_byte_identical_at_jobs_1_and_4() {
    let benches = benches();
    let plain = run_study_backed(&benches, 1, None, Backend::default());
    let opts = ServeOptions {
        workers: 2,
        inflight: 2,
        fault: Some(ServeFaultPlan::parse("disconnect@1,panic@4,torn@9").unwrap()),
        ..ServeOptions::default()
    };
    let daemon_cache = CompileCache::new_mem();
    let ((j1, j4), stats) = with_daemon(opts, &daemon_cache, |remote| {
        let j1 = run_study_backed(&benches, 1, None, served_by(remote));
        let j4 = run_study_backed(&benches, 4, None, served_by(remote));
        (j1, j4)
    });
    assert_eq!(study_repr(&plain), study_repr(&j1), "daemon-backed study (j1) diverged");
    assert_eq!(study_repr(&plain), study_repr(&j4), "daemon-backed study (j4) diverged");
    assert!(stats.handler_panics >= 1, "{stats:?}");
}

#[test]
fn quarantined_module_falls_back_to_local_compiles_byte_identically() {
    // The first compile request panics on its first three attempts, which
    // quarantines the benchmark module. Every later compile of it is refused with a
    // non-transient `quarantined` error — and the harness backend must
    // absorb that by compiling locally, with zero effect on the report.
    let benches = benches();
    let plain = run_sweep_backed(&benches, true, 1, None, Backend::default());
    let opts = ServeOptions {
        workers: 2,
        fault: Some(ServeFaultPlan::parse("panic@0,panic@1,panic@2").unwrap()),
        ..ServeOptions::default()
    };
    let daemon_cache = CompileCache::new_mem();
    let (swept, stats) = with_daemon(opts, &daemon_cache, |remote| {
        run_sweep_backed(&benches, true, 1, None, served_by(remote))
    });
    assert_eq!(
        sweep_repr(&plain),
        sweep_repr(&swept),
        "quarantine fallback changed sweep bytes"
    );
    // A refused daemon compile falls back locally without looking the run
    // up a second time: on this cold daemon every executed measurement
    // (baseline, heuristic, each hot point) misses exactly once.
    let executed = 2 * swept.apps.len() + swept.points.iter().filter(|p| p.hot).count();
    assert_eq!(stats.run_misses, executed as u64, "{stats:?}");
    assert_eq!(stats.handler_panics, 3, "{stats:?}");
    assert_eq!(stats.quarantined_modules, 1, "{stats:?}");
    assert!(
        stats.quarantined_rejects >= 5,
        "the whole sweep shares one module, every request after the \
         quarantine must be refused: {stats:?}"
    );
}

#[test]
fn mem_fault_traps_identically_through_every_backend_and_is_never_cached() {
    let bench = benches().remove(0);
    let base = measure_baseline(&bench).unwrap();
    let hot = loop_list(&bench)
        .into_iter()
        .find(|l| bench.info.hot_kernels.contains(&l.func.as_str()))
        .unwrap();
    let (config, transform) = sweep_configs().swap_remove(0);
    let fault = FaultPlan::parse("mem@25:9").ok();

    // Two rounds per backend, each measuring the point raw and through
    // `PointTask`: had the trapped run been stored, a later lookup would
    // be served a run artifact instead of faulting again.
    let drill = |backend: Backend<'_>| -> String {
        let task = PointTask {
            bench: &bench,
            base: &base,
            loop_ref: hot.clone(),
            hot: true,
            config,
            transform: transform.clone(),
            fault,
            cache: backend.cache,
            remote: backend.remote,
        };
        let filter = LoopFilter::Only { func: hot.func.clone(), loop_id: hot.loop_id };
        (0..2)
            .map(|_| {
                let err =
                    measure_backed(&bench, transform.clone(), filter.clone(), None, fault, backend)
                        .expect_err("mem@25 must trap the hot kernel");
                format!("{err:?}\n{:?}\n", task.measure())
            })
            .collect()
    };

    let local = drill(Backend::default());
    let mem_cache = CompileCache::new_mem();
    let cached = drill(Backend::local(Some(&mem_cache)));
    let daemon_cache = CompileCache::new_mem();
    let (served, daemon_stats) =
        with_daemon(ServeOptions::default(), &daemon_cache, |remote| drill(served_by(remote)));
    assert!(daemon_stats.compile_misses >= 1, "daemon compiled nothing: {daemon_stats:?}");

    for (name, got, st) in [
        ("mem-cache", &cached, mem_cache.stats()),
        ("daemon", &served, daemon_stats),
    ] {
        assert_eq!(&local, got, "{name} backend reported the mem fault differently");
        assert_eq!(st.run_mem_hits + st.run_disk_hits, 0, "{name} cached a faulted run: {st:?}");
        assert_eq!(st.run_misses, 4, "{name}: one lookup per measurement: {st:?}");
    }
}

#[test]
fn busy_shedding_sheds_and_the_retrying_client_still_lands() {
    // One admission slot, two workers: while the first request stalls
    // (injected slow fault) holding the slot, a single-attempt compile is
    // shed with `busy` + retry-after-ms, the control verbs still answer,
    // and retrying clients ride out the stall, a dropped connection and a
    // handler panic: every one of them lands a real response.
    let opts = ServeOptions {
        workers: 2,
        inflight: 1,
        fault: Some(ServeFaultPlan::parse("slow@0:600,disconnect@2,panic@3").unwrap()),
        ..ServeOptions::default()
    };
    let daemon_cache = CompileCache::new_mem();
    let (elapsed, stats) = with_daemon(opts, &daemon_cache, |remote| {
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                let r = remote.compile(MODULE, "unroll2", None, None, false).unwrap();
                assert!(!r.hit);
            });
            // Wait for the stalled request to occupy the slot. Control
            // verbs are never shed, so `health` answers throughout.
            let once = remote.clone().with_attempts(1);
            let deadline = Instant::now() + Duration::from_secs(5);
            let health = loop {
                let health = once.request(&Message::new("health")).unwrap();
                if health.get("inflight") == Some("1") {
                    break health;
                }
                assert!(Instant::now() < deadline, "slot never held: {health:?}");
                std::thread::sleep(Duration::from_millis(5));
            };
            assert_eq!(health.verb, "ok", "{health:?}");
            assert_eq!(health.get("draining"), Some("0"), "{health:?}");
            let probe = Message::new("compile")
                .header("config", "unroll4")
                .header("want-module", 0)
                .with_body(MODULE);
            let shed = once.request(&probe).unwrap();
            assert_eq!(shed.verb, "busy", "{shed:?}");
            assert!(shed.get("retry-after-ms").is_some(), "{shed:?}");

            let start = Instant::now();
            let more: Vec<_> = ["unroll8", "uu2", "uu4", "uu8"]
                .into_iter()
                .map(|config| {
                    s.spawn(move || {
                        let r = remote.clone().with_attempts(64);
                        r.compile(MODULE, config, None, None, false).unwrap()
                    })
                })
                .collect();
            let r = remote
                .clone()
                .with_attempts(64)
                .compile(MODULE, "unroll4", None, None, false)
                .unwrap();
            assert!(!r.hit);
            let elapsed = start.elapsed();
            slow.join().unwrap();
            for h in more {
                h.join().unwrap();
            }
            elapsed
        })
    });
    assert!(stats.busy_shed >= 1, "the concurrent request was never shed: {stats:?}");
    assert!(stats.handler_panics >= 1, "the injected panic never fired: {stats:?}");
    assert!(
        elapsed >= Duration::from_millis(100),
        "the shed client cannot have landed before the stall cleared: {elapsed:?}"
    );
}

#[test]
fn disk_full_store_fault_degrades_to_uncached_and_is_counted() {
    let dir = std::env::temp_dir().join(format!("uu-serve-diskfull-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon_cache = CompileCache::at_dir(&dir).unwrap();
    let opts = ServeOptions {
        workers: 2,
        fault: Some(ServeFaultPlan::parse("disk-full@0").unwrap()),
        ..ServeOptions::default()
    };
    let (_, stats) = with_daemon(opts, &daemon_cache, |remote| {
        let a = remote.compile(MODULE, "uu2", None, None, true).unwrap();
        assert!(!a.hit, "first compile is a miss");
        // The store failed, but the compile still answered — and the
        // in-memory layer still serves the repeat.
        let b = remote.compile(MODULE, "uu2", None, None, true).unwrap();
        assert!(b.hit, "memory layer survives a failed disk store");
        assert_eq!(a.meta, b.meta);
        assert_eq!(a.module_text, b.module_text);
    });
    assert!(stats.store_errors >= 1, "disk-full fault was not counted: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_under_fire_loses_no_responses() {
    // Six concurrent clients against two workers, with a torn frame and
    // a handler panic injected mid-stream: every client must still get a
    // real `ok` (retries absorb the damage), and the shutdown drain in
    // `with_daemon` must find nothing left behind.
    let opts = ServeOptions {
        workers: 2,
        inflight: 2,
        fault: Some(ServeFaultPlan::parse("torn@1,panic@2").unwrap()),
        ..ServeOptions::default()
    };
    let daemon_cache = CompileCache::new_mem();
    let (_, stats) = with_daemon(opts, &daemon_cache, |remote| {
        const CONFIGS: [&str; 6] = ["unroll2", "unroll4", "unroll8", "uu2", "uu4", "uu8"];
        std::thread::scope(|s| {
            let handles: Vec<_> = CONFIGS
                .iter()
                .map(|config| {
                    s.spawn(move || {
                        let r = remote
                            .clone()
                            .with_attempts(32)
                            .compile(MODULE, config, None, None, true)
                            .unwrap();
                        assert!(r.module_text.is_some(), "{config}");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    // 6 distinct configs (+ retries for the damaged ones) + shutdown.
    assert!(stats.requests >= 7, "{stats:?}");
    assert!(stats.handler_panics >= 1, "{stats:?}");
}
