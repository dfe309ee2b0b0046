//! `uu-jsonck` — assert that files are well-formed JSON.
//!
//! Usage: `uu-jsonck FILE...` — validates each file, printing a verdict per
//! file; exits non-zero if any file is missing or malformed. CI uses it to
//! gate generated reports (e.g. `target/uu-bench/BENCH_sim.json`) without
//! external tooling.

use std::process::ExitCode;

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: uu-jsonck FILE...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for f in &files {
        match std::fs::read_to_string(f) {
            Err(e) => {
                println!("uu-jsonck: {f}: unreadable: {e}");
                failed = true;
            }
            Ok(text) => match uu_check::json::validate(&text) {
                Ok(()) => println!("uu-jsonck: {f}: ok"),
                Err(e) => {
                    println!("uu-jsonck: {f}: malformed JSON: {e}");
                    failed = true;
                }
            },
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
