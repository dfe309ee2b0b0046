//! Cross-layer determinism of the parallel execution engine.
//!
//! The tentpole guarantee of the `uu-par` fan-out (see DESIGN.md "Parallel
//! execution"): every report artifact — sweep figures, fuzz failure
//! reports, corpus verdicts — is **byte-identical** whether produced
//! serially (`UU_JOBS=1`), with a small pool (`UU_JOBS=4`), or at the
//! machine default. These tests drive the real sweep and the real oracle
//! with explicit worker counts (not the env knob, so they cannot race
//! other tests) and diff the bytes.

use std::collections::HashSet;
use std::path::Path;
use uu_check::{check_result, Config, DiffOracle, KernelSpec};
use uu_harness::experiment::LoopRef;
use uu_harness::plan::{Key, Plan};
use uu_harness::{figures, indepth, study, sweep, Backend};
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

/// A cacheless, fault-free plan of every key `views` ask for.
fn plan_for<'a>(jobs: usize, views: &[&[Key<'a>]]) -> Plan<'a> {
    let mut plan = Plan::new(jobs, None, Backend::default());
    for keys in views {
        plan.add(keys);
    }
    plan
}

fn ids<'k>(keys: &'k [Key<'_>]) -> Vec<(&'static str, &'k Option<LoopRef>, &'static str)> {
    keys.iter().map(|k| (k.bench.info.name, &k.target, k.config)).collect()
}

#[test]
fn all_plan_measures_each_key_once_with_the_one_purpose_views() {
    // `uu-harness all` plans the sweep's, the study's and §V's keys
    // together. With XSBench in the sweep, its §V case is a sweep key and a
    // study key too, so the overlap is measured once; every view must still
    // be exactly what its own one-purpose run reports.
    let every = all_benchmarks();
    let benches: Vec<_> = every
        .iter()
        .filter(|b| matches!(b.info.name, "mandelbrot" | "XSBench"))
        .copied()
        .collect();
    let sweep_keys = sweep::keys(&benches, true);
    let study_keys = study::keys(&benches);
    let case_keys = indepth::keys(&every);
    let plan = plan_for(1, &[&sweep_keys, &study_keys, &case_keys]);

    let planned = ids(plan.keys());
    let unique: HashSet<_> = planned.iter().collect();
    assert_eq!(unique.len(), planned.len(), "a key was planned twice");
    let apps: HashSet<&str> = planned.iter().map(|k| k.0).collect();
    let baselines: Vec<&str> =
        planned.iter().filter(|k| k.2 == "baseline").map(|k| k.0).collect();
    assert_eq!(baselines.len(), apps.len(), "not one baseline per app: {baselines:?}");
    let asked: HashSet<_> = [&sweep_keys, &study_keys, &case_keys]
        .into_iter()
        .flat_map(|keys| ids(keys))
        .collect();
    assert!(asked.iter().all(|k| unique.contains(k)), "a view's key is unplanned");
    assert_eq!(planned.len(), asked.len() + apps.len(), "the plan holds keys nobody asked for");
    let xs_case = &ids(&case_keys)[0];
    assert_eq!(xs_case.0, "XSBench");
    assert!(ids(&sweep_keys).contains(xs_case) && ids(&study_keys).contains(xs_case));

    // Each view from a plan of its own keys alone, as `fig7`, `study` and
    // `indepth` build them.
    let one_purpose = |jobs: usize| {
        let (local, cases) = (Backend::default(), plan_for(jobs, &[&case_keys]).run());
        [
            format!("{:?}", sweep::run_sweep_backed(&benches, true, jobs, None, local)),
            format!("{:?}", study::run_study_backed(&benches, jobs, None, local)),
            format!("{:?}", indepth::view(&cases, &case_keys)),
        ]
    };
    let reference = one_purpose(1);
    assert!(reference[2].contains("XSBench"), "the XSBench §V case was dropped");
    for jobs in [1, 4] {
        let points = plan_for(jobs, &[&sweep_keys, &study_keys, &case_keys]).run();
        let together = [
            format!("{:?}", sweep::view(&points, &sweep_keys)),
            format!("{:?}", study::view(&points, &study_keys)),
            format!("{:?}", indepth::view(&points, &case_keys)),
        ];
        let alone = if jobs == 1 { reference.clone() } else { one_purpose(jobs) };
        for (view, (a, b)) in ["sweep", "study", "§V"].iter().zip(together.iter().zip(&alone)) {
            assert_eq!(a, b, "{view}: the all plan's view differs from its own run at jobs={jobs}");
        }
        assert_eq!(alone, reference, "one-purpose runs differ between jobs=1 and jobs={jobs}");
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
