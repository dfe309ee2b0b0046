//! `uu-harness` options: `--help`/`-h` print the usage and exit 0, and an
//! unknown option, a value option without its value, a second command word
//! or an option the command does not read exits 2 with a one-line usage
//! message. None of them runs a report or writes a file (the default
//! `--out` is `results/` under the working directory, so each run gets an
//! empty one to watch). The command is the first word that is neither an
//! option nor an option's value.

use std::path::PathBuf;
use std::process::{Command, Output};

fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uu-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the harness in a fresh directory; returns the output and whether
/// the directory is still empty afterwards.
fn harness(name: &str, args: &[&str]) -> (Output, bool) {
    let dir = empty_dir(name);
    let out = Command::new(env!("CARGO_BIN_EXE_uu-harness"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    let untouched = std::fs::read_dir(&dir).unwrap().next().is_none();
    std::fs::remove_dir_all(&dir).unwrap();
    (out, untouched)
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    for (i, help) in ["--help", "-h"].into_iter().enumerate() {
        // A filtered fast run follows, so a harness that ignored the flag
        // would write a report quickly instead of running all of `all`.
        let (out, untouched) = harness(
            &format!("help{i}"),
            &[help, "--fast", "--bench", "mandelbrot"],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{help}: {stdout}");
        assert!(stdout.starts_with("usage: uu-harness "), "{help}: {stdout}");
        assert!(
            stdout.contains("--fast") && stdout.contains("--bench NAME"),
            "{help}: {stdout}"
        );
        assert!(
            out.stderr.is_empty(),
            "{help}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(untouched, "{help} wrote into the working directory");
    }
}

#[test]
fn an_unknown_option_exits_2_before_any_work() {
    for (i, (args, bad)) in [
        (&["all", "--fats", "--bench", "mandelbrot"][..], "--fats"),
        (&["table1", "--bench", "mandelbrot", "-x"][..], "-x"),
        (
            &["--verbose", "fig7", "--fast", "--bench", "mandelbrot"][..],
            "--verbose",
        ),
        // A value that looks like an option is the value of the option
        // before it.
        (&["decisions", "--config", "-1", "--bogus"][..], "--bogus"),
    ]
    .into_iter()
    .enumerate()
    {
        let (out, untouched) = harness(&format!("unknown{i}"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        let want = format!("unknown option `{bad}`; usage: uu-harness ");
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(untouched, "{args:?} wrote into the working directory");
    }
}

#[test]
fn a_command_refuses_what_it_does_not_read() {
    for (i, (args, why)) in [
        (
            &["decisions", "fig7", "--bench", "mandelbrot"][..],
            "unexpected second command `fig7`",
        ),
        (
            &["decisions", "--bench", "mandelbrot", "--verb", "stats", "--fault", "panic@1"][..],
            "`decisions` does not read option `--verb`",
        ),
        (
            &["table1", "--fast", "--bench", "mandelbrot", "--config", "uu4"][..],
            "`table1` does not read option `--config`",
        ),
        (
            &["dump", "--bench", "mandelbrot", "--fast"][..],
            "`dump` does not read option `--fast`",
        ),
        (
            &["decisions", "--bench", "mandelbrot", "--profile"][..],
            "`decisions` does not read option `--profile`",
        ),
        (
            &["fig7", "--bench", "mandelbrot", "--fault", "panic@1"][..],
            "`fig7` does not read option `--fault`",
        ),
        // The in-depth cases are fixed and the study has no fast sample.
        (
            &["indepth", "--bench", "mandelbrot"][..],
            "`indepth` does not read option `--bench`",
        ),
        (
            &["study", "--fast", "--bench", "mandelbrot"][..],
            "`study` does not read option `--fast`",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let (out, untouched) = harness(&format!("unread{i}"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        let want = format!("{why}; usage: uu-harness ");
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(untouched, "{args:?} wrote into the working directory");
    }
}

/// The report commands have one word each: `fig6` writes all three
/// panels, `fig8` both scatters and `study` the figure and the table.
#[test]
fn a_panel_or_table_name_is_no_command() {
    for word in ["fig6a", "fig6b", "fig6c", "fig8a", "fig8b", "fig9", "table2"] {
        let (out, untouched) = harness(&format!("word-{word}"), &[word, "--bench", "mandelbrot"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{word}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{word}: {stderr}");
        let want = format!("unknown command `{word}`; usage: uu-harness ");
        assert!(stderr.starts_with(&want), "{word}: {stderr}");
        assert!(out.stdout.is_empty(), "{word}: {}", String::from_utf8_lossy(&out.stdout));
        assert!(untouched, "{word} wrote into the working directory");
    }
}

#[test]
fn the_command_word_is_found_by_position() {
    // `--out table1` names the directory: a value equal to a command must
    // not make the command (`table1`) look absent and run `all`.
    // `--profile` adds its span table to stderr and no file.
    let dir = empty_dir("position");
    let args = ["table1", "--fast", "--profile", "--bench", "mandelbrot", "--out", "table1"];
    let out = Command::new(env!("CARGO_BIN_EXE_uu-harness"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("\n  render "), "{stderr}");
    let mut written: Vec<String> = std::fs::read_dir(dir.join("table1"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["faults.csv", "faults.txt", "table1.csv", "table1.txt"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_value_option_without_its_value_exits_2_before_any_work() {
    for (i, (args, bare)) in [
        (&["decisions", "--bench"][..], "--bench"),
        (&["table1", "--fast", "--out"][..], "--out"),
    ]
    .into_iter()
    .enumerate()
    {
        let (out, untouched) = harness(&format!("novalue{i}"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        let want = format!("option `{bare}` needs a value; usage: uu-harness ");
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(untouched, "{args:?} wrote into the working directory");
    }
}

/// `health` carries the drain flag, so there is no `ready` verb: the
/// client refuses it, and every other unknown verb, before it connects.
#[test]
fn an_unknown_client_verb_exits_2_naming_it() {
    for verb in ["ready", "?"] {
        let (out, untouched) =
            harness(&format!("verb-{verb}"), &["client", "--socket", "s.sock", "--verb", verb]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb}: {stderr}");
        assert!(stderr.starts_with(&format!("client: unknown --verb `{verb}`")), "{stderr}");
        assert!(out.stdout.is_empty(), "{verb}: {}", String::from_utf8_lossy(&out.stdout));
        assert!(untouched, "{verb} wrote into the working directory");
    }
}
