//! `uu-harness indepth` compiles and measures through the same backend as
//! every other report command: with `UU_CACHE_DIR` set, a second run is
//! served from the first run's artifacts, says so on stderr, and writes
//! the bytes a cacheless run writes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uu-indepth-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `indepth` into `out`, with `cache` as `UU_CACHE_DIR` (or none);
/// return its stderr and the `indepth.txt` it wrote.
fn indepth(out: &Path, cache: Option<&Path>) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uu-harness"));
    cmd.arg("indepth")
        .arg("--out")
        .arg(out)
        .env_remove("UU_CACHE_DIR");
    if let Some(dir) = cache {
        cmd.env("UU_CACHE_DIR", dir);
    }
    let run = cmd.output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    assert!(run.status.success(), "{stderr}");
    (
        stderr,
        std::fs::read_to_string(out.join("indepth.txt")).unwrap(),
    )
}

/// `(hits, misses)` from the `cache: H hits / M misses ...` stderr line.
fn cache_line(stderr: &str) -> Option<(u64, u64)> {
    let line = stderr.lines().find_map(|l| l.strip_prefix("cache: "))?;
    let mut words = line.split_whitespace();
    let hits = words.next()?.parse().ok()?;
    let misses = words.nth(2)?.parse().ok()?;
    Some((hits, misses))
}

#[test]
fn a_second_indepth_run_hits_the_cache_and_matches_a_cacheless_run() {
    let dirs = ["cache", "cold", "warm", "cacheless"].map(scratch);
    let [cache, cold_out, warm_out, cacheless_out] = &dirs;
    let (cold_err, cold) = indepth(cold_out, Some(cache));
    assert!(
        std::fs::read_dir(cache).is_ok_and(|mut d| d.next().is_some()),
        "the first run stored nothing in {}: {cold_err}",
        cache.display()
    );
    let (warm_err, warm) = indepth(warm_out, Some(cache));
    let (hits, misses) = cache_line(&warm_err)
        .unwrap_or_else(|| panic!("no cache stats line on stderr: {warm_err}"));
    assert!(hits > 0 && misses == 0, "{warm_err}");
    let (_, cacheless) = indepth(cacheless_out, None);
    assert_eq!(cold, cacheless);
    assert_eq!(warm, cacheless);
    for dir in &dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
