//! `uu-harness --bench X` renders one application's reports, and `--out`
//! defaults to the committed `results/`: a filtered run into a directory
//! that holds a fuller report set must stop before it runs anything.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uu-clobber-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn harness(args: &[&str], out: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_uu-harness"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .unwrap()
}

#[test]
fn a_filtered_run_refuses_a_directory_holding_a_fuller_report_set() {
    let dir = scratch("full");
    let out = dir.join("results");
    std::fs::create_dir_all(&out).unwrap();
    let table1 = "name,loops\nbezier-surface,3\nbn,11\nmandelbrot,1\n";
    std::fs::write(out.join("table1.csv"), table1).unwrap();
    std::fs::write(out.join("fig7.csv"), "untouched").unwrap();
    for args in [
        &["all", "--fast", "--bench", "mandelbrot"][..],
        &["table1", "--fast", "--bench", "mandelbrot"],
        &["fig7", "--fast", "--bench", "mandelbrot"],
        // `study` has no fast sample and refuses `--fast`.
        &["study", "--bench", "mandelbrot"],
    ] {
        let cmd = args[0];
        let run = harness(args, &out);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("3 applications"), "{cmd}: {stderr}");
        assert!(stderr.contains("fig7.csv, table1.csv"), "{cmd}: {stderr}");
        assert!(
            !stderr.contains("running"),
            "{cmd} started before refusing: {stderr}"
        );
    }
    assert_eq!(
        std::fs::read_to_string(out.join("table1.csv")).unwrap(),
        table1
    );
    assert_eq!(
        std::fs::read_to_string(out.join("fig7.csv")).unwrap(),
        "untouched"
    );
    // Commands that write no reports are not in the way: `decisions`
    // reads no `--out`, and the default `results/` of its working
    // directory is the one holding the fuller set.
    let decisions = Command::new(env!("CARGO_BIN_EXE_uu-harness"))
        .args(["decisions", "--bench", "mandelbrot"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        decisions.status.success(),
        "{}",
        String::from_utf8_lossy(&decisions.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_filtered_run_may_replace_a_filtered_report_set() {
    let out = scratch("filtered");
    std::fs::write(out.join("table1.csv"), "name,loops\nbn,11\n").unwrap();
    let run = harness(&["table1", "--fast", "--bench", "mandelbrot"], &out);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let table1 = std::fs::read_to_string(out.join("table1.csv")).unwrap();
    assert!(table1.lines().nth(1).unwrap().starts_with("mandelbrot,"));
    std::fs::remove_dir_all(&out).unwrap();
}
