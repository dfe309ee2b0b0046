//! Cross-layer determinism of the parallel execution engine.
//!
//! The tentpole guarantee of the `uu-par` fan-out (see DESIGN.md "Parallel
//! execution"): every report artifact — sweep figures, fuzz failure
//! reports, corpus verdicts — is **byte-identical** whether produced
//! serially (`UU_JOBS=1`), with a small pool (`UU_JOBS=4`), or at the
//! machine default. These tests drive the real sweep and the real oracle
//! with explicit worker counts (not the env knob, so they cannot race
//! other tests) and diff the bytes.

use std::path::Path;
use uu_check::{check_result, Config, DiffOracle, KernelSpec};
use uu_harness::{figures, study, sweep, Backend};
use uu_kernels::all_benchmarks;

fn job_counts() -> Vec<usize> {
    let mut jobs = vec![1, 4];
    let default = uu_par::parse_jobs(None).unwrap();
    if !jobs.contains(&default) {
        jobs.push(default);
    }
    jobs
}

/// Render every figure/table for a sweep into a fresh directory and
/// return `(file name, bytes)` pairs sorted by name.
fn render_all(s: &sweep::Sweep, benches: &[uu_kernels::Benchmark], dir: &Path) -> Vec<(String, Vec<u8>)> {
    std::fs::create_dir_all(dir).unwrap();
    figures::table1(s, dir, benches).unwrap();
    figures::fig6(s, dir).unwrap();
    figures::fig7(s, dir).unwrap();
    figures::fig8(s, dir).unwrap();
    figures::faults(s, dir).unwrap();
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    std::fs::remove_dir_all(dir).ok();
    out
}

#[test]
fn sweep_reports_are_byte_identical_at_any_worker_count() {
    let benches: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "mandelbrot")
        .collect();
    let tmp = std::env::temp_dir().join(format!("uu-par-det-{}", std::process::id()));
    let mut reference: Option<(usize, Vec<(String, Vec<u8>)>)> = None;
    for jobs in job_counts() {
        let s = sweep::run_sweep_backed(&benches, true, jobs, None, Backend::default());
        let files = render_all(&s, &benches, &tmp.join(format!("j{jobs}")));
        assert!(!files.is_empty(), "sweep produced no report files");
        match &reference {
            None => reference = Some((jobs, files)),
            Some((ref_jobs, ref_files)) => {
                assert_eq!(
                    ref_files.len(),
                    files.len(),
                    "file sets differ between jobs={ref_jobs} and jobs={jobs}"
                );
                for ((an, ab), (bn, bb)) in ref_files.iter().zip(&files) {
                    assert_eq!(an, bn, "file names diverged");
                    assert_eq!(
                        ab, bb,
                        "{an}: bytes differ between jobs={ref_jobs} and jobs={jobs}"
                    );
                }
            }
        }
    }
}

/// Render the three-way study figure and table into a fresh directory and
/// return `(file name, bytes)` pairs sorted by name.
fn render_study(st: &study::Study, dir: &Path) -> Vec<(String, Vec<u8>)> {
    std::fs::create_dir_all(dir).unwrap();
    figures::fig9(st, dir).unwrap();
    figures::table2(st, dir).unwrap();
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    std::fs::remove_dir_all(dir).ok();
    out
}

#[test]
fn study_reports_are_byte_identical_at_any_worker_count() {
    // The three-way unmerge/meld study (fig9 + table2) carries the same
    // guarantee as the sweep: one flat task list, per-point noise seeds, and
    // an in-order merge, so worker count can never leak into the bytes.
    let benches: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| b.info.name == "mandelbrot")
        .collect();
    let tmp = std::env::temp_dir().join(format!("uu-study-det-{}", std::process::id()));
    let mut reference: Option<(usize, Vec<(String, Vec<u8>)>)> = None;
    for jobs in job_counts() {
        let st = study::run_study_backed(&benches, jobs, None, Backend::default());
        let files = render_study(&st, &tmp.join(format!("j{jobs}")));
        assert!(
            files.iter().any(|(n, _)| n == "fig9.csv"),
            "study produced no fig9.csv"
        );
        assert!(
            files.iter().any(|(n, _)| n == "table2.csv"),
            "study produced no table2.csv"
        );
        match &reference {
            None => reference = Some((jobs, files)),
            Some((ref_jobs, ref_files)) => {
                assert_eq!(
                    ref_files.len(),
                    files.len(),
                    "file sets differ between jobs={ref_jobs} and jobs={jobs}"
                );
                for ((an, ab), (bn, bb)) in ref_files.iter().zip(&files) {
                    assert_eq!(an, bn, "file names diverged");
                    assert_eq!(
                        ab, bb,
                        "{an}: bytes differ between jobs={ref_jobs} and jobs={jobs}"
                    );
                }
            }
        }
    }
}

#[test]
fn fuzz_failure_reports_are_byte_identical_at_any_worker_count() {
    // An injected spec-level failure (no compilation needed, so the scan
    // covers many cases quickly). The full Display of the shrunk Failure —
    // case index, case seed, original, shrunk, error — must not depend on
    // scheduling, for either master seed.
    for seed in [uu_check::runner::DEFAULT_SEED, 0xDECAF] {
        let run = |jobs: usize| {
            let cfg = Config {
                seed,
                jobs,
                cases: 64,
                ..Config::new(64)
            };
            let f = check_result::<KernelSpec, _>("injected", &cfg, |s| {
                if s.bound % 2 == 1 {
                    Err(format!("injected: odd bound {}", s.bound))
                } else {
                    Ok(())
                }
            })
            .expect_err("odd bounds are common; 64 cases must hit one");
            format!("{f}")
        };
        let serial = run(1);
        for jobs in job_counts().into_iter().skip(1) {
            assert_eq!(
                serial,
                run(jobs),
                "failure report diverged at jobs={jobs}, seed {seed:#x}"
            );
        }
    }
}

#[test]
fn corpus_replay_verdicts_match_across_worker_counts() {
    // The real differential oracle over the checked-in corpus, fanned out
    // exactly like `uu-fuzz` phase 1: the rendered verdict block is the
    // same text at any worker count.
    let oracle = DiffOracle::default();
    let corpus = uu_check::corpus::load_corpus();
    assert!(corpus.len() >= 2, "regression corpus went missing");
    let render = |jobs: usize| -> String {
        let verdicts = uu_par::par_map(jobs, &corpus, |_, (name, spec)| {
            match oracle.check_spec(spec) {
                Ok(()) => format!("corpus {name}: ok\n"),
                Err(e) => format!("corpus {name}: FAILED\n{e}\n"),
            }
        });
        verdicts.concat()
    };
    let serial = render(1);
    for jobs in job_counts().into_iter().skip(1) {
        assert_eq!(serial, render(jobs), "corpus verdicts diverged at jobs={jobs}");
    }
}
