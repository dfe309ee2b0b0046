//! `uu-harness` parses every `UU_*` knob once, before any work: a
//! malformed value exits 2 naming the variable, before a report is
//! written, and an empty value means unset. The daemon's knobs are
//! retired: a report command takes its store from `UU_CACHE_DIR` alone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Every knob the binary reads, cleared in each child so the caller's own
/// environment cannot leak into a case.
const KNOBS: [&str; 3] = ["UU_JOBS", "UU_FAULT", "UU_CACHE_DIR"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uu-env-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the harness with the knobs `vars` set, killing it after 60 s so a
/// binary that ignores a bad knob and runs a long report fails instead of
/// hanging.
fn harness(args: &[&str], vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uu-harness"));
    for k in KNOBS {
        cmd.env_remove(k);
    }
    let mut child = cmd
        .args(args)
        .envs(vars.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().unwrap()
}

fn is_empty_dir(dir: &Path) -> bool {
    std::fs::read_dir(dir).unwrap().next().is_none()
}

/// The refusal shape: exit 2, the knob and its value named on stderr, and
/// no sign (`started`) that the command began its work.
fn assert_refused(run: &Output, var: &str, value: &str, started: &str) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    let case = format!("{var}={value}");
    assert_eq!(run.status.code(), Some(2), "{case}: {stderr}");
    assert!(stderr.contains(&format!("{case}: ")), "{case}: {stderr}");
    assert!(!stderr.contains(started), "{case} started: {stderr}");
}

#[test]
fn a_malformed_knob_exits_2_before_any_work() {
    let out = scratch("reports");
    let out_s = out.to_str().unwrap();
    let report = ["fig7", "--fast", "--bench", "mandelbrot", "--out", out_s];
    for (var, value) in [
        ("UU_JOBS", "0"),
        ("UU_JOBS", "many"),
        ("UU_FAULT", "panic@x"),
        ("UU_FAULT", "gremlin@3"),
    ] {
        assert_refused(&harness(&report, &[(var, value)]), var, value, "running");
        assert!(is_empty_dir(&out), "{var}={value} wrote into --out");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

/// `UU_SERVE_SOCKET` and `UU_SERVE_WORKERS` name nothing any more: beside
/// `UU_CACHE_DIR`, even malformed, they neither stop a report command nor
/// route it anywhere but the cache directory.
#[test]
fn the_retired_daemon_knobs_are_ignored() {
    let dir = scratch("retired");
    let (cache, sock, out) = (dir.join("cache"), dir.join("d.sock"), dir.join("out"));
    let report = ["table1", "--fast", "--bench", "mandelbrot", "--out", out.to_str().unwrap()];
    let vars = [
        ("UU_CACHE_DIR", cache.to_str().unwrap()),
        ("UU_SERVE_SOCKET", sock.to_str().unwrap()),
        ("UU_SERVE_WORKERS", "zero"),
    ];
    let run = harness(&report, &vars);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert!(stderr.contains(" [cached] ...") && !stderr.contains("[daemon]"), "{stderr}");
    assert!(out.join("table1.csv").is_file() && cache.is_dir(), "{stderr}");
    assert!(!sock.exists(), "something bound the retired socket");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_empty_knob_means_unset() {
    let run = harness(&["decisions", "--bench", "mandelbrot"], &[("UU_JOBS", "")]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(String::from_utf8_lossy(&run.stdout).starts_with("== mandelbrot =="));
}
