//! Properties of the function-granular compile memo (`uu_core::pipeline`,
//! DESIGN.md "Function memo"): it may change how long a compile takes and
//! nothing else.
//!
//! * **transparency** — a compile on a warm memo and one on a cleared memo
//!   leave the same printed module and the same [`CompileOutcome`] once
//!   the wall-clock fields are masked;
//! * **bypass** — under a pass-level fault plan or an opt-bisect limit the
//!   memo is neither read nor written, so invocation indices mean what
//!   they mean without it;
//! * **budget edge** — a timeout that expires inside a memoised function
//!   stops the compile where a cold compile stops;
//! * **admission** — a function the transform changed is never stored, and
//!   the store stays inside its slot budget.
//!
//! The memo and its counters are thread-local and every test runs on a
//! thread of its own, so the counter assertions below do not race.

use std::time::Duration;
use uu_check::{build_kernel, check, corpus::load_corpus, oracle::default_transforms};
use uu_check::{Config, KernelSpec};
use uu_core::{
    compile, compile_memo_clear, compile_memo_footprint, compile_memo_stats, CompileOutcome,
    FaultKind, FaultPlan, HeuristicOptions, LoopFilter, PipelineOptions, Transform,
    COMPILE_MEMO_SLOT_BUDGET,
};
use uu_harness::experiment::{loop_list, sweep_configs, COMPILE_TIMEOUT};
use uu_harness::study::study_configs;
use uu_ir::Module;
use uu_kernels::{all_benchmarks, Benchmark};

/// Everything a compile leaves behind, as one comparable string: the
/// printed module and the outcome with its wall-clock fields zeroed.
fn observe(m: &Module, out: &CompileOutcome) -> String {
    let mut out = out.clone();
    out.total = Duration::ZERO;
    for t in &mut out.timings {
        t.elapsed = Duration::ZERO;
    }
    format!("{m}\n{out:?}")
}

fn run(build: impl Fn() -> Module, opts: &PipelineOptions) -> String {
    let mut m = build();
    let out = compile(&mut m, opts);
    observe(&m, &out)
}

fn bench(name: &str) -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == name)
        .unwrap()
}

fn point(transform: Transform, filter: LoopFilter) -> PipelineOptions {
    PipelineOptions {
        transform,
        filter,
        timeout: Some(COMPILE_TIMEOUT),
        ..Default::default()
    }
}

/// The compiles a sweep and a study make for `b`: baseline, heuristic,
/// every hot loop under every sweep and study configuration, and the
/// first two cold loops under the sweep configurations.
fn matrix(b: &Benchmark) -> Vec<(String, PipelineOptions)> {
    let sweep = sweep_configs();
    let mut configs = sweep.clone();
    configs.extend(study_configs());
    configs.sort_by_key(|c| c.0);
    configs.dedup_by_key(|c| c.0);
    let mut out = vec![
        ("baseline".to_string(), point(Transform::Baseline, LoopFilter::All)),
        (
            "heuristic".to_string(),
            point(Transform::UuHeuristic(HeuristicOptions::default()), LoopFilter::All),
        ),
    ];
    let mut cold_seen = 0;
    for l in loop_list(b) {
        let hot = b.info.hot_kernels.contains(&l.func.as_str());
        cold_seen += !hot as usize;
        if !hot && cold_seen > 2 {
            continue;
        }
        for (name, transform) in &configs {
            if !hot && !sweep.iter().any(|(n, _)| n == name) {
                continue;
            }
            let filter = LoopFilter::Only {
                func: l.func.clone(),
                loop_id: l.loop_id,
            };
            out.push((
                format!("{name} on {}#{}", l.func, l.loop_id),
                point(transform.clone(), filter),
            ));
        }
    }
    out
}

/// The point the bypass, budget and admission tests share: `uu4` on
/// quicksort's hot loop (seven functions, six of them untouched).
fn quicksort_hot(factor: u32) -> (Benchmark, PipelineOptions) {
    let b = bench("quicksort");
    let hot = loop_list(&b)
        .into_iter()
        .find(|l| b.info.hot_kernels.contains(&l.func.as_str()))
        .unwrap();
    let opts = PipelineOptions::for_loop(
        Transform::Uu {
            factor,
            unmerge: Default::default(),
        },
        &hot.func,
        hot.loop_id,
    );
    (b, opts)
}

#[test]
fn warm_and_cleared_memo_compiles_agree_on_every_kernel_and_config() {
    // One application per task: `uu-par` workers are threads of their own,
    // so each walks its applications against a memo of its own.
    uu_par::par_map(uu_par::parse_jobs(None).unwrap(), &all_benchmarks(), |_, b| {
        let matrix = matrix(b);
        let cold: Vec<String> = matrix
            .iter()
            .map(|(_, opts)| {
                compile_memo_clear();
                run(b.build, opts)
            })
            .collect();
        // One baseline compile stores every function as the application
        // builds it, which is what a point's untouched functions are: from
        // here on each of them is a hit, as in a sweep past its first point.
        compile_memo_clear();
        run(b.build, &matrix[0].1);
        let (_, misses, _) = compile_memo_stats();
        for ((what, opts), cold) in matrix.iter().zip(&cold) {
            let warm = run(b.build, opts);
            assert!(
                warm == *cold,
                "{}: {what}: warm != cold\n{warm}\n---\n{cold}",
                b.info.name
            );
        }
        let (hits, misses_after, _) = compile_memo_stats();
        assert!(hits > 0, "{}: the warm walk never hit", b.info.name);
        assert_eq!(misses_after, misses, "{}: the warm walk missed", b.info.name);
    });
}

#[test]
fn warm_and_cleared_memo_compiles_agree_on_the_corpus_and_generated_kernels() {
    let agree = |spec: &KernelSpec| -> Result<(), String> {
        for transform in default_transforms() {
            let build = || {
                let mut m = Module::new("t");
                m.add_function(build_kernel(spec));
                m
            };
            let opts = PipelineOptions {
                transform,
                ..Default::default()
            };
            compile_memo_clear();
            let cold = run(build, &opts);
            for round in 1..=2 {
                let warm = run(build, &opts);
                if warm != cold {
                    return Err(format!(
                        "{:?}: warm compile {round} differs from the cold one\n{warm}\n---\n{cold}",
                        opts.transform
                    ));
                }
            }
        }
        Ok(())
    };
    for (name, spec) in load_corpus() {
        agree(&spec).unwrap_or_else(|e| panic!("corpus entry {name}: {e}"));
    }
    check("memo_transparency", &Config::from_env(32), agree);
}

#[test]
fn fault_plans_and_bisect_limits_bypass_the_memo() {
    let (b, clean) = quicksort_hot(4);
    let functions = (b.build)().num_functions() as u64;
    let log = {
        let mut m = (b.build)();
        compile(&mut m, &clean).pass_log
    };
    // Invocation indices inside two functions the transform leaves alone
    // (the memo holds both once warm), and one past the end of the log.
    let LoopFilter::Only { func: hot, .. } = &clean.filter else {
        unreachable!()
    };
    let untouched: Vec<u64> = log
        .iter()
        .filter(|p| *p.function != **hot)
        .map(|p| p.index)
        .collect();
    let picks = [
        untouched[2],
        untouched[untouched.len() / 2],
        *untouched.last().unwrap(),
        log.len() as u64 + 5,
    ];
    let mut plans = Vec::new();
    for at in picks {
        for kind in [
            FaultKind::Panic,
            FaultKind::Corrupt,
            FaultKind::Miscompile,
            FaultKind::Exhaust,
        ] {
            plans.push(PipelineOptions {
                fault: Some(FaultPlan { kind, at, seed: at ^ 0x5eed }),
                ..clean.clone()
            });
        }
        plans.push(PipelineOptions {
            bisect_limit: Some(at),
            ..clean.clone()
        });
    }
    plans.push(PipelineOptions {
        bisect_limit: Some(0),
        ..clean.clone()
    });

    // Cold: nothing to find, and a bypassed compile stores nothing either.
    compile_memo_clear();
    let cold: Vec<String> = plans.iter().map(|opts| run(b.build, opts)).collect();
    assert_eq!(compile_memo_footprint(), (0, 0), "a bypassed compile stored a function");
    let (hits, misses, bypassed) = compile_memo_stats();
    assert_eq!((hits, misses), (0, 0), "a bypassed compile looked up");
    assert!(bypassed >= plans.len() as u64);

    // Warm: the clean point twice, so every untouched function is stored
    // and has been replayed once.
    run(b.build, &clean);
    run(b.build, &clean);
    let warm_stats = compile_memo_stats();
    assert_eq!(warm_stats.0, functions - 1, "the warm-up did not hit");
    for (opts, cold) in plans.iter().zip(&cold) {
        let warm = run(b.build, opts);
        assert!(
            warm == *cold,
            "fault {:?} limit {:?}: warm != cold\n{warm}\n---\n{cold}",
            opts.fault,
            opts.bisect_limit
        );
    }
    let (hits, misses, bypassed) = compile_memo_stats();
    assert_eq!((hits, misses), (warm_stats.0, warm_stats.1), "a bypassed compile looked up");
    assert!(bypassed >= warm_stats.2 + plans.len() as u64);
}

#[test]
fn a_timeout_inside_a_memoised_function_stops_where_a_cold_compile_stops() {
    let (b, clean) = quicksort_hot(4);
    let total = {
        let mut m = (b.build)();
        compile(&mut m, &clean).work
    };
    // One compile-clock unit is 10 us (`WORK_PER_MS` = 100): budgets from
    // nothing to the whole compile in steps well under one function's run,
    // plus the two sides of an exact fit.
    let budgets: Vec<u64> = (0..=48)
        .map(|j| total * j / 48)
        .chain([total - 1, total + 1])
        .collect();
    let with_budget = |units: u64| PipelineOptions {
        timeout: Some(Duration::from_micros(units * 10)),
        ..clean.clone()
    };
    let cold: Vec<String> = budgets
        .iter()
        .map(|&units| {
            compile_memo_clear();
            run(b.build, &with_budget(units))
        })
        .collect();

    compile_memo_clear();
    run(b.build, &clean);
    run(b.build, &clean);
    let mut refused = 0;
    let mut replayed_then_expired = 0;
    for (&units, cold) in budgets.iter().zip(&cold) {
        let before = compile_memo_stats();
        let mut m = (b.build)();
        let out = compile(&mut m, &with_budget(units));
        let after = compile_memo_stats();
        let warm = observe(&m, &out);
        assert!(warm == *cold, "budget {units}: warm != cold\n{warm}\n---\n{cold}");
        // Every untouched function is stored, so a miss here is a stored
        // run that did not fit the remaining budget.
        refused += after.1 - before.1;
        if out.timed_out && after.0 > before.0 {
            replayed_then_expired += 1;
        }
    }
    assert!(refused > 0, "no budget expired inside a memoised function");
    assert!(replayed_then_expired > 0, "no budget expired after a replay");
}

#[test]
fn transformed_functions_are_not_admitted_and_the_store_stays_in_budget() {
    let (b, uu8) = quicksort_hot(8);
    let functions = (b.build)().num_functions();
    compile_memo_clear();
    run(b.build, &uu8);
    assert_eq!(compile_memo_stats(), (0, functions as u64 - 1, 1));
    assert_eq!(compile_memo_footprint().0, functions - 1, "the uu8 variant was stored");
    run(b.build, &uu8);
    assert_eq!(
        compile_memo_stats(),
        (functions as u64 - 1, functions as u64 - 1, 2),
        "the uu8 variant was looked up"
    );
    assert_eq!(compile_memo_footprint().0, functions - 1);

    // Every application's baseline, then XSBench's whole loop list: more
    // slots than the budget holds, so the store is cleared along the way
    // and must never be seen over it.
    compile_memo_clear();
    let mut peak = 0;
    let mut cleared = false;
    let mut check = |what: &str| {
        let (_, slots) = compile_memo_footprint();
        assert!(slots <= COMPILE_MEMO_SLOT_BUDGET, "{what}: {slots} slots stored");
        cleared |= slots < peak;
        peak = peak.max(slots);
    };
    for b in all_benchmarks() {
        run(b.build, &PipelineOptions::default());
        check(b.info.name);
    }
    let xs = bench("XSBench");
    for l in loop_list(&xs) {
        let opts = PipelineOptions::for_loop(Transform::Unmerge, &l.func, l.loop_id);
        run(xs.build, &opts);
        check(&l.func);
    }
    assert!(cleared, "the walk never filled the store");
}
