//! A daemon that is not there degrades batch throughput, never batch
//! output — and "degrades" has to mean seconds, not minutes: the client
//! waits for a daemon that may still be binding once per `Remote`, then
//! every compile falls back to the local pipeline after one immediate
//! connect. (It used to wait 5 s per attempt, 16 attempts per compile.)

use std::time::{Duration, Instant};

use uu_harness::{run_sweep_backed, Backend};
use uu_serve::Remote;

#[test]
fn sweep_against_a_socket_nobody_listens_on_is_identical_and_prompt() {
    let benches: Vec<_> = uu_kernels::all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "quicksort")
        .collect();
    let repr = |s: &uu_harness::Sweep| format!("{:?}\n{:?}", s.points, s.apps);

    let t0 = Instant::now();
    let local = run_sweep_backed(&benches, true, 1, None, Backend::default());
    let local_time = t0.elapsed();

    let sock = std::env::temp_dir().join(format!("uu-never-existed-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let remote = Remote::new(&sock);
    let backend = Backend {
        cache: None,
        remote: Some(&remote),
    };
    let t1 = Instant::now();
    let orphaned = run_sweep_backed(&benches, true, 1, None, backend);
    let orphaned_time = t1.elapsed();

    assert_eq!(repr(&local), repr(&orphaned), "fallback changed the sweep");
    let allowed = 2 * local_time + Duration::from_secs(6);
    assert!(
        orphaned_time <= allowed,
        "dead daemon cost {orphaned_time:?}; local sweep took {local_time:?}"
    );
}
