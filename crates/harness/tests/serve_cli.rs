//! `uu-harness serve` and `uu-harness client` wired together as binaries:
//! the daemon takes its workers from `UU_SERVE_WORKERS` and its cache from
//! `UU_CACHE_DIR`, the client sends `--bench`, `--config`, `--fault` and
//! `--verb`, and a report command routes its compiles through
//! `UU_SERVE_SOCKET` without moving a report byte. What the daemon does
//! with a request is checked in `uu-serve`'s own tests and in
//! `serve_faults.rs`; this file checks the command lines around it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uu-serve-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The harness binary with every `UU_*` variable of the caller's
/// environment removed, so only the knobs a case sets reach the child.
fn harness(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uu-harness"));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("UU_") {
            cmd.env_remove(k);
        }
    }
    cmd.current_dir(dir);
    cmd
}

/// A `uu-harness serve` child on `<dir>/d.sock` with two workers and a
/// disk cache under `dir`, killed on drop if a test panics before
/// [`Daemon::shutdown`].
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let sock = dir.join("d.sock");
        let child = harness(dir)
            .args(["serve", "--socket", sock.to_str().unwrap()])
            .env("UU_SERVE_WORKERS", "2")
            .env("UU_CACHE_DIR", dir.join("cache"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        Daemon { child, sock }
    }

    /// Run `uu-harness client --socket <sock> <args>`; returns whether it
    /// exited 0 and its stdout. The client waits for a daemon still binding.
    fn client(&self, args: &[&str]) -> (bool, String) {
        let out = harness(self.sock.parent().unwrap())
            .args(["client", "--socket", self.sock.to_str().unwrap()])
            .args(args)
            .output()
            .unwrap();
        (out.status.success(), String::from_utf8(out.stdout).unwrap())
    }

    /// The `stats` verb's JSON body, validated.
    fn stats(&self) -> String {
        let (ok, out) = self.client(&["--verb", "stats"]);
        assert!(ok, "{out}");
        let json = out
            .strip_prefix("ok\n\n")
            .unwrap_or_else(|| panic!("{out}"));
        uu_check::json::validate(json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert!(json.contains("\"stats_version\": 2"), "{json}");
        json.to_string()
    }

    /// Drain: `shutdown` answers `ok`, then the daemon exits 0 within 10 s
    /// and removes its socket. A daemon that never wakes from `accept` is
    /// killed and fails the test instead of hanging it.
    fn shutdown(mut self) {
        let (ok, out) = self.client(&["--verb", "shutdown"]);
        assert!(ok && out.starts_with("ok\n"), "{out}");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not exit within 10 s of shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "daemon exited with {status}");
        assert!(!self.sock.exists(), "daemon left its socket behind");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One integer counter out of a `stats` JSON object.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"))
        + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// Every file of a flat report directory, by name.
fn read_reports(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            assert!(e.file_type().unwrap().is_file(), "{:?}", e.path());
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn the_client_drives_a_serve_daemon_through_hit_fault_stats_and_drain() {
    let dir = scratch("smoke");
    let daemon = Daemon::start(&dir);
    let compile = ["--bench", "mandelbrot", "--config", "uu4"];

    // The same compile twice: a miss, then a hit with the same metadata.
    let (ok, first) = daemon.client(&compile);
    assert!(ok && first.lines().any(|l| l == "cached: miss"), "{first}");
    let (ok, second) = daemon.client(&compile);
    assert!(ok && second.lines().any(|l| l == "cached: hit"), "{second}");
    let meta = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with("cached:"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(meta(&first), meta(&second));

    // A pass panic in the request is contained: answered, on a lower rung.
    let (ok, faulted) = daemon.client(&[&compile[..], &["--fault", "panic@1"]].concat());
    let rung = faulted.lines().find_map(|l| l.strip_prefix("rung: "));
    assert!(ok && rung.is_some_and(|r| r != "full"), "{faulted}");

    // The daemon survived it: stats answers as versioned JSON, and health
    // reports the workers `UU_SERVE_WORKERS` asked for.
    daemon.stats();
    let (ok, health) = daemon.client(&["--verb", "health"]);
    let lines: Vec<&str> = health.lines().collect();
    assert!(
        ok && lines.contains(&"workers: 2") && lines.contains(&"draining: 0"),
        "{health}"
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_daemon_backed_study_is_byte_identical_and_a_warm_pass_only_hits() {
    let dir = scratch("remote");
    let study = |out: &str, jobs: &str, sock: Option<&Path>| {
        let mut cmd = harness(&dir);
        cmd.args(["study", "--bench", "mandelbrot", "--out", out])
            .env("UU_JOBS", jobs);
        if let Some(sock) = sock {
            cmd.env("UU_SERVE_SOCKET", sock);
        }
        let run = cmd.output().unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        read_reports(&dir.join(out))
    };
    let local = study("local", "1", None);

    let daemon = Daemon::start(&dir);
    for jobs in ["1", "4"] {
        let served = study(&format!("remote-j{jobs}"), jobs, Some(&daemon.sock));
        assert!(
            served == local,
            "daemon-backed study at UU_JOBS={jobs} differs from local"
        );
    }
    // Not vacuous: the daemon compiled, rather than the harness falling
    // back to local compiles.
    let cold = daemon.stats();
    assert!(counter(&cold, "compile_misses") > 0, "{cold}");

    // The warm pass is identical again and every request it sends — a run
    // lookup per executed point, a compile per cold one — is a hit: its
    // requests, less the closing `stats` request itself.
    let warm_run = study("remote-warm", "1", Some(&daemon.sock));
    assert!(
        warm_run == local,
        "warm daemon-backed study differs from local"
    );
    let warm = daemon.stats();
    let requests = counter(&warm, "requests") - counter(&cold, "requests") - 1;
    let hits = |j: &str| {
        ["compile_mem_hits", "compile_disk_hits", "run_mem_hits", "run_disk_hits"]
            .iter()
            .map(|c| counter(j, c))
            .sum::<u64>()
    };
    assert!(requests > 0, "{warm}");
    assert_eq!(hits(&warm) - hits(&cold), requests, "{cold}\n{warm}");
    assert_eq!(
        counter(&warm, "compile_misses"),
        counter(&cold, "compile_misses")
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
