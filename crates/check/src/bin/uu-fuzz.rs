//! `uu-fuzz` — standalone differential-fuzzing driver.
//!
//! Replays the checked-in regression corpus, then fuzzes novel
//! [`KernelSpec`]s through the [`DiffOracle`] across a `uu-par` worker
//! pool. Everything written to **stdout** is byte-identical at any
//! `UU_JOBS` value (ci.sh diffs the `UU_JOBS=1` and `UU_JOBS=4` outputs);
//! timings go to **stderr** where they cannot perturb the diff.
//!
//! Knobs (all environment, matching the rest of the workspace):
//!
//! * `UU_CHECK_CASES` — novel cases to fuzz (default 200);
//! * `UU_CHECK_SEED`  — master seed (decimal or `0x…` hex);
//! * `UU_JOBS`        — worker count (default: available parallelism).
//!
//! Exit status: 0 when the corpus and every novel case pass; 1 with the
//! shrunk counterexample — printed in the corpus `.seed` format, ready to
//! be checked in — when the oracle finds a miscompilation. A miscompile
//! is additionally bisected to the first bad pass invocation and a
//! replayable crash report is written under `crash-reports/`
//! (`UU_CRASH_DIR` overrides).
//!
//! `UU_FAULT=<kind>@<index>[:<seed>]` injects a deterministic fault into
//! every compile (see `uu_core::recover`), exercising exactly this
//! containment and bisection machinery.

use uu_check::rng::Rng;
use uu_check::{case_seeds, check_result, Config, DiffOracle, Gen, KernelSpec};
use uu_core::FaultPlan;

fn main() {
    let cfg = Config::from_env(200);
    let oracle = DiffOracle::default();
    let fault = FaultPlan::from_env();
    if let Some(p) = &fault {
        println!("fault plan: {p}");
    }
    let started = std::time::Instant::now();

    // Phase 1: corpus replay — historical counterexamples must keep
    // passing before any novel fuzzing. Fanned out like the novel cases;
    // results are reported in corpus (file-name) order.
    let corpus = uu_check::corpus::load_corpus();
    let replay =
        uu_par::par_map_jobs(cfg.jobs, &corpus, |_, (name, spec)| {
            (
                name.clone(),
                oracle
                    .check_spec_detailed(spec, fault)
                    .map_err(|e| e.message),
            )
        });
    let mut failed = false;
    for (name, outcome) in &replay {
        match outcome {
            Ok(()) => println!("corpus {name}: ok"),
            Err(e) => {
                failed = true;
                println!("corpus {name}: FAILED\n{e}");
            }
        }
    }
    if failed {
        eprintln!("corpus replay failed after {:.1?}", started.elapsed());
        std::process::exit(1);
    }
    eprintln!(
        "corpus: {} specs replayed in {:.1?} ({} workers)",
        corpus.len(),
        started.elapsed(),
        cfg.jobs
    );

    // Phase 2: novel cases. The digest lines pin down exactly which specs
    // the per-case seeds produced, independent of scheduling.
    for (i, &seed) in case_seeds(cfg.seed, cfg.cases).iter().enumerate() {
        let spec = KernelSpec::generate(&mut Rng::seed_from_u64(seed));
        println!(
            "case {i:>4} seed {seed:#018x} digest {:#018x}",
            uu_ir::fnv1a(spec.to_string().as_bytes())
        );
    }
    let fuzz_started = std::time::Instant::now();
    match check_result::<KernelSpec, _>("diff_oracle", &cfg, |spec| {
        oracle
            .check_spec_detailed(spec, fault)
            .map_err(|e| e.message)
    }) {
        Ok(n) => {
            println!("ok: {} corpus specs + {n} novel cases", corpus.len());
            eprintln!(
                "fuzz: {n} cases in {:.1?} ({} workers)",
                fuzz_started.elapsed(),
                cfg.jobs
            );
        }
        Err(failure) => {
            println!("{failure}");
            println!("--- shrunk spec (corpus .seed format) ---");
            println!("{}", failure.shrunk);
            // Bisect the shrunk counterexample to the first bad pass and
            // persist a replayable crash report. Both the bisection and
            // the artifact content are deterministic, so this block keeps
            // stdout byte-identical across UU_JOBS values.
            if let Err(of) = oracle.check_spec_detailed(&failure.shrunk, fault) {
                if let Some(t) = of.transform {
                    match uu_check::bisect(&failure.shrunk, &t, fault) {
                        Ok(report) => {
                            println!(
                                "--- bisected: first bad pass {}#{}@{} ({} recompiles over {} invocations) ---",
                                report.first_bad.pass,
                                report.first_bad.index,
                                report.first_bad.function,
                                report.recompiles,
                                report.total_invocations
                            );
                            match uu_check::write_crash_report(&report) {
                                Ok(path) => println!("crash report: {}", path.display()),
                                Err(e) => println!("crash report write failed: {e}"),
                            }
                        }
                        Err(e) => println!("--- bisection inconclusive: {e} ---"),
                    }
                }
            }
            eprintln!(
                "fuzz: failed after {:.1?} ({} workers)",
                fuzz_started.elapsed(),
                cfg.jobs
            );
            std::process::exit(1);
        }
    }
}
