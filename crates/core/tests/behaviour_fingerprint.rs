//! Behavioural fingerprint of the optimizer (ROADMAP 4b): one FNV-1a line
//! per compile point in `tests/golden/behaviour.fnv`, over the printed
//! module and the [`CompileOutcome`] with its wall-clock fields masked.
//!
//! A pass rewrite that is meant to change *how long* a compile takes and
//! nothing else must leave this file alone; one that moves an output byte
//! or a work charge fails here until `PASS_VERSIONS` is bumped and the file
//! re-blessed:
//!
//! ```sh
//! UU_UPDATE_GOLDEN=1 cargo test --release -p uu-core --test behaviour_fingerprint
//! ```
//!
//! The points: all 16 kernels under baseline, the heuristic, and every
//! sweep and study configuration on each hot loop and the first three cold
//! loops, plus the `uu-check` corpus under the oracle's transforms. An
//! unoptimised build checks the factor-2 hot-loop subset against the same
//! file (the factor-8 points need minutes there); ci.sh runs the whole
//! matrix in a release build.
//!
//! The walk is also the compile memo's transparency check (DESIGN.md
//! "Content-addressed stores"): each point is compiled on a cleared memo
//! for its line, then again on the memo that compile left behind, where
//! every function the transform did not touch is a hit, and the two must
//! leave the same module and outcome.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use uu_check::{build_kernel, corpus::load_corpus, oracle::default_transforms};
use uu_core::{compile, compile_memo_clear, compile_memo_stats};
use uu_core::{HeuristicOptions, LoopFilter, PipelineOptions, Transform};
use uu_harness::experiment::{loop_list, sweep_configs, COMPILE_TIMEOUT};
use uu_harness::study::study_configs;
use uu_ir::{fnv1a, Module};
use uu_kernels::{all_benchmarks, Benchmark};

const COLD_LOOPS: usize = 3;

/// Per-pass wall time of the walk, for `--nocapture` readers.
type PassSeconds = BTreeMap<&'static str, Duration>;

/// Compile a fresh module from `build`: the printed module and the
/// outcome with its wall-clock fields masked (and added to `spent`).
fn observe(build: impl Fn() -> Module, opts: &PipelineOptions, spent: &mut PassSeconds) -> String {
    let mut m = build();
    let mut out = compile(&mut m, opts);
    out.total = Duration::ZERO;
    for t in &mut out.timings {
        *spent.entry(t.name).or_default() += t.elapsed;
        t.elapsed = Duration::ZERO;
    }
    format!("{m}\n{out:?}")
}

/// The point's line, hash first, label after, from a memo-cold compile
/// that a memo-warm one must reproduce; returns the warm compile's hits.
fn line(
    label: &str,
    build: impl Fn() -> Module,
    opts: &PipelineOptions,
    spent: &mut PassSeconds,
) -> (String, u64) {
    compile_memo_clear();
    let cold = observe(&build, opts, spent);
    let (before, _, _) = compile_memo_stats();
    let warm = observe(&build, opts, &mut PassSeconds::new());
    assert!(
        warm == cold,
        "{label}: memo-warm compile != memo-cold compile\n{warm}\n---\n{cold}"
    );
    let line = format!("{:016x} {label}", fnv1a(cold.as_bytes()));
    (line, compile_memo_stats().0 - before)
}

fn point(transform: Transform, filter: LoopFilter) -> PipelineOptions {
    PipelineOptions {
        transform,
        filter,
        timeout: Some(COMPILE_TIMEOUT),
        ..Default::default()
    }
}

/// The sweep and study configurations, each once, in name order.
fn configs(full: bool) -> Vec<(&'static str, Transform)> {
    let mut configs = sweep_configs();
    configs.extend(study_configs());
    configs.sort_by_key(|c| c.0);
    configs.dedup_by_key(|c| c.0);
    if !full {
        configs.retain(|(name, _)| !name.contains(['4', '8']));
    }
    configs
}

fn benchmark_lines(b: &Benchmark, full: bool) -> (Vec<String>, PassSeconds) {
    let name = b.info.name;
    let mut spent = PassSeconds::new();
    let mut out = Vec::new();
    let mut hits = 0;
    let mut emit = |what: String, transform: Transform, filter: LoopFilter| {
        let label = format!("{name} {what}");
        let (text, warm_hits) = line(&label, b.build, &point(transform, filter), &mut spent);
        out.push(text);
        hits += warm_hits;
    };
    emit("baseline".into(), Transform::Baseline, LoopFilter::All);
    emit(
        "heuristic".into(),
        Transform::UuHeuristic(HeuristicOptions::default()),
        LoopFilter::All,
    );
    let configs = configs(full);
    let mut cold_seen = 0;
    for l in loop_list(b) {
        if !b.info.hot_kernels.contains(&l.func.as_str()) {
            cold_seen += 1;
            if !full || cold_seen > COLD_LOOPS {
                continue;
            }
        }
        for (config, transform) in &configs {
            let filter = LoopFilter::Only {
                func: l.func.clone(),
                loop_id: l.loop_id,
            };
            emit(
                format!("{config} {}#{}", l.func, l.loop_id),
                transform.clone(),
                filter,
            );
        }
    }
    assert!(hits > 0, "{name}: no memo-warm compile hit");
    (out, spent)
}

fn fingerprint(full: bool) -> Vec<String> {
    let mut spent = PassSeconds::new();
    let mut lines = Vec::new();
    for (bench_lines, bench_spent) in
        uu_par::par_map(uu_par::parse_jobs(None).unwrap(), &all_benchmarks(), |_, b| {
            benchmark_lines(b, full)
        })
    {
        lines.extend(bench_lines);
        for (pass, d) in bench_spent {
            *spent.entry(pass).or_default() += d;
        }
    }
    for (name, spec) in load_corpus() {
        for transform in default_transforms() {
            let label = format!("corpus {name} {transform:?}");
            let build = || {
                let mut m = Module::new("t");
                m.add_function(build_kernel(&spec));
                m
            };
            let opts = PipelineOptions {
                transform,
                ..Default::default()
            };
            lines.push(line(&label, build, &opts, &mut spent).0);
        }
    }
    let total: Duration = spent.values().sum();
    let mut by_time: Vec<_> = spent.into_iter().collect();
    by_time.sort_by_key(|(_, d)| std::cmp::Reverse(*d));
    let shares: Vec<String> = by_time
        .iter()
        .map(|(pass, d)| format!("{pass} {:.2}", d.as_secs_f64()))
        .collect();
    eprintln!(
        "behaviour fingerprint: {} points, {:.2} s in passes ({})",
        lines.len(),
        total.as_secs_f64(),
        shares.join(", ")
    );
    lines
}

fn label_of(line: &str) -> &str {
    line.split_once(' ').map_or(line, |(_, label)| label)
}

#[test]
fn optimised_ir_and_outcomes_match_the_blessed_fingerprint() {
    let full = !cfg!(debug_assertions);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/behaviour.fnv");
    let got = fingerprint(full);
    if std::env::var_os("UU_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty()) {
        assert!(
            full,
            "bless the fingerprint from a release build: the debug walk is a subset"
        );
        std::fs::write(&path, got.join("\n") + "\n").expect("write behaviour.fnv");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let blessed: BTreeMap<&str, &str> = text.lines().map(|l| (label_of(l), l)).collect();
    let mut moved: Vec<String> = got
        .iter()
        .filter(|l| blessed.get(label_of(l)) != Some(&l.as_str()))
        .map(|l| match blessed.get(label_of(l)) {
            Some(was) => format!("{l} (blessed: {})", &was[..16]),
            None => format!("{l} (not in the blessed file)"),
        })
        .collect();
    if full && got.len() != text.lines().count() {
        moved.push(format!(
            "{} points walked, {} blessed",
            got.len(),
            text.lines().count()
        ));
    }
    assert!(
        moved.is_empty(),
        "{} compile point(s) no longer produce the blessed module or outcome — bump \
         `PASS_VERSIONS` if this is intended, then re-bless with UU_UPDATE_GOLDEN=1 \
         (release build):\n{}",
        moved.len(),
        moved.join("\n")
    );
}
