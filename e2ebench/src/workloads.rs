//! The four workloads. Each is set up several times (the median is
//! `setup_s`), then repeats its timed region until the run's seconds are
//! used up. The region is cut into units of a few hundred milliseconds (one
//! application's sweep, one loop's seven compiles, one application's
//! simulator round); every repetition does exactly the same work in each
//! unit, so what differs between repetitions is interference from the shared
//! machine, which only ever adds time. `wall_s` and `cpu_s` are therefore
//! the sum over units of each unit's fastest repetition: on this box bursts
//! of 1.5x slowdown last a second or two, and a median over whole
//! repetitions moved by 17% between runs where this moves by 2%. With
//! tracing on, plain and traced repetitions alternate: the plain ones give
//! the harness-level spans and the base of `trace.overhead_share`, the
//! traced ones walk the same points through the layers' public calls.
//!
//! Everything runs on one thread (`jobs = 1`); `served-warm` adds the
//! daemon's accept loop and its single worker. The applications are fixed
//! subsets of the paper's sixteen, sized so that a repetition takes a few
//! seconds; `--seed` can only permute (application order in `sim-launch`,
//! loop order in `cold-loops`, pass order in `served-warm`), because report
//! bytes are compared against goldens and have to keep Table I order.

use crate::os;
use crate::trace::Recorder;
use crate::walk::{self, fast_cold, Source, Walked};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use uu_check::Rng;
use uu_core::{HeuristicOptions, LoopFilter, PipelineOptions, Transform};
use uu_harness::experiment::{
    loop_list, measure_backed, sweep_configs, Measurement, PointTask, COMPILE_TIMEOUT,
};
use uu_harness::stats::{geomean, median};
use uu_harness::study::Study;
use uu_harness::sweep::{Sweep, FRONTEND_MS};
use uu_harness::{figures, run_study_backed, run_sweep_backed, Backend};
use uu_ir::Module;
use uu_kernels::{all_benchmarks, Benchmark};
use uu_serve::{Artifact, CompileCache, Message, Remote, ServeOptions};
use uu_simt::{ExecEngine, Gpu, GpuParams};

/// How many times a run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

/// `regen-fast` applications: XSBench (210 loops, the paper's lead example),
/// ccs (compiles that hit the work budget), mandelbrot (a simulation-heavy
/// hot loop) and quicksort (small and cold-dominated).
const REGEN_APPS: &[&str] = &["ccs", "mandelbrot", "quicksort", "XSBench"];
/// `served-warm` replays a smaller set, because its set-up is a whole cold
/// cached pass and a run sets up [`SETUPS`] times.
const SERVED_APPS: &[&str] = &["mandelbrot", "quicksort", "XSBench"];
/// `sim-launch` applications, chosen for many distinct hot modules per
/// second of set-up compile.
const SIM_APPS: &[&str] = &[
    "bspline-vgh",
    "haccmk",
    "lavaMD",
    "libor",
    "mandelbrot",
    "qtclustering",
    "XSBench",
];
/// The one application of `cold-loops`, and of every workload under `--smoke`.
const COLD_APP: &str = "XSBench";
const SMOKE_APP: &str = "quicksort";

/// `cold-loops` visits every 16th cold loop of XSBench: 14 of 209, times
/// seven configurations, each a whole-module compile.
fn strided_cold(i: usize) -> bool {
    i.is_multiple_of(16)
}

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of `spec::WORKLOADS`).
    pub workload: String,
    /// Seed of the permutations.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain one (end-to-end).
    pub trace: bool,
    /// One application, one plain (and one traced) repetition, one set-up.
    pub smoke: bool,
    /// Rewrite the goldens from this run instead of checking against them.
    pub bless: bool,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Points, oracle comparisons and report files checked.
    pub attempted: u64,
    /// How many of them were wrong.
    pub failed: u64,
    /// `(name, value)` in `spec` order.
    pub metrics: Vec<(String, f64)>,
}

/// Run one workload.
pub fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let mut rec = Recorder::new(args.trace);
    let mut run = Run {
        args,
        scratch,
        rec: &mut rec,
        watch: Stopwatch::default(),
        checks: Checks::default(),
        layer: Vec::new(),
    };
    let e2e = match args.workload.as_str() {
        "regen-fast" => run.regen_fast(),
        "cold-loops" => run.cold_loops(),
        "sim-launch" => run.sim_launch(),
        "served-warm" => run.served_warm(),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let Run { checks, layer, .. } = run;
    let metrics = if args.trace {
        rec.write_jsonl(&scratch.join(format!("../trace-{}.jsonl", args.workload)))
            .map_err(|e| format!("cannot write the trace: {e}"))?;
        let mut all: Vec<(String, f64)> = crate::spec::per_layer()
            .into_iter()
            .map(|m| (m.name, 0.0))
            .collect();
        for (name, value) in layer {
            let slot = all
                .iter_mut()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric of the spec"));
            slot.1 = value;
        }
        all
    } else {
        e2e.metrics()
    };
    Ok(Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}

#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The end-to-end numbers of one run.
struct EndToEnd {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// Per application: heuristic speed-up over baseline, simulated time.
    speedups: Vec<f64>,
    /// Per application: heuristic whole-binary size over baseline.
    size_ratios: Vec<f64>,
    /// Deterministic compile clock over every compile of one set-up and one
    /// repetition.
    work: u64,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<(String, f64)> {
        let values = [
            self.setup_s,
            self.wall_s,
            self.cpu_s,
            os::peak_rss_mb(),
            geomean(&self.speedups),
            geomean(&self.size_ratios),
            self.work as f64 / 1e6,
        ];
        crate::spec::end_to_end()
            .into_iter()
            .map(|m| m.name)
            .zip(values)
            .collect()
    }
}

/// One repetition of the timed region.
struct Rep<T> {
    traced: bool,
    wall_s: f64,
    out: T,
}

fn walls<T>(reps: &[Rep<T>], traced: bool) -> Vec<f64> {
    reps.iter()
        .filter(|r| r.traced == traced)
        .map(|r| r.wall_s)
        .collect()
}

/// Wall and CPU seconds of every unit of the timed region, per repetition.
#[derive(Debug, Default)]
struct Stopwatch {
    samples: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Stopwatch {
    fn unit<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (t, cpu) = (Instant::now(), os::cpu_ns());
        let out = f();
        let sample = (t.elapsed().as_secs_f64(), (os::cpu_ns() - cpu) as f64 / 1e9);
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(sample);
        out
    }

    /// `(wall, cpu)`: each unit's fastest repetition, summed over the units.
    fn fastest(&self) -> (f64, f64) {
        let least = |f: fn(&(f64, f64)) -> f64| -> f64 {
            self.samples
                .values()
                .map(|v| v.iter().map(f).fold(f64::INFINITY, f64::min))
                .sum()
        };
        (least(|s| s.0), least(|s| s.1))
    }
}

struct Run<'a> {
    args: &'a Args,
    scratch: &'a Path,
    rec: &'a mut Recorder,
    watch: Stopwatch,
    checks: Checks,
    /// Per-layer metrics a workload computed itself (the rest default to 0).
    layer: Vec<(String, f64)>,
}

fn select(names: &[&str]) -> Vec<Benchmark> {
    // Table I order, whatever order the names are listed in.
    all_benchmarks()
        .into_iter()
        .filter(|b| names.contains(&b.info.name))
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_usize(0, i + 1));
    }
}

/// Median set-up time over at least `n` set-ups; the last one's state is
/// kept. A set-up of a few milliseconds is repeated until half a second has
/// gone into set-ups, so that its median is as steady as a long one's.
fn set_up<T>(n: usize, mut f: impl FnMut(usize) -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut state = None;
    while secs.len() < n || (n > 1 && secs.iter().sum::<f64>() < 0.5) {
        drop(state.take());
        let t = Instant::now();
        state = Some(f(secs.len()));
        secs.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&secs))
}

/// Each application's checksum from its *unoptimised* module on the
/// reference interpreter: the compiler under test and the fast engine have
/// no part in it.
fn oracle(benches: &[Benchmark]) -> Vec<f64> {
    benches
        .iter()
        .map(|b| {
            let params = GpuParams {
                engine: ExecEngine::Reference,
                ..GpuParams::default()
            };
            (b.run)(&(b.build)(), &mut Gpu::with_params(params)).map_or(f64::NAN, |r| r.checksum)
        })
        .collect()
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// The deterministic compile clock behind a report's compile-time ratio.
fn work_of_ratio(ratio: f64, base_ms: f64) -> u64 {
    ((ratio * (FRONTEND_MS + base_ms) - FRONTEND_MS) * uu_core::WORK_PER_MS).round() as u64
}

fn work_of(m: &Measurement) -> u64 {
    (m.compile_ms * uu_core::WORK_PER_MS).round() as u64
}

/// Compile clock of a whole sweep and study: application baselines and
/// heuristics, every point, and the baselines the study compiles again.
fn regen_work(sweep: &Sweep, study: &Study) -> u64 {
    let base_ms = |app: &str| {
        sweep
            .apps
            .iter()
            .find(|a| a.app == app)
            .map_or(0.0, |a| a.baseline.compile_ms)
    };
    let apps: u64 = sweep
        .apps
        .iter()
        .map(|a| 2 * work_of(&a.baseline) + work_of(&a.heuristic))
        .sum();
    let points: u64 = sweep
        .points
        .iter()
        .chain(&study.points)
        .map(|p| work_of_ratio(p.compile_ratio, base_ms(&p.app)))
        .sum();
    apps + points
}

/// `(file name, FNV-1a of its bytes)` of every file in `dir`, by name.
fn digest_dir(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| {
            let path = e.ok()?.path();
            let bytes = std::fs::read(&path).ok()?;
            Some((
                path.file_name()?.to_string_lossy().into_owned(),
                uu_ir::fnv1a(&bytes),
            ))
        })
        .collect();
    out.sort();
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| Some(e.ok()?.metadata().ok()?.len()))
        .sum()
}

fn golden_text(name: &str) -> &'static str {
    match name {
        "regen-fast" => include_str!("../golden/regen-fast.fnv"),
        "cold-loops" => include_str!("../golden/cold-loops.fnv"),
        "sim-launch" => include_str!("../golden/sim-launch.fnv"),
        "served-warm" => include_str!("../golden/served-warm.fnv"),
        "regen-fast-smoke" => include_str!("../golden/regen-fast-smoke.fnv"),
        "cold-loops-smoke" => include_str!("../golden/cold-loops-smoke.fnv"),
        "sim-launch-smoke" => include_str!("../golden/sim-launch-smoke.fnv"),
        "served-warm-smoke" => include_str!("../golden/served-warm-smoke.fnv"),
        _ => "",
    }
}

fn render_digest(digest: &[(String, u64)]) -> String {
    digest
        .iter()
        .map(|(name, h)| format!("{h:016x}  {name}\n"))
        .collect()
}

/// The regeneration every report-producing workload times: the harness's
/// `all --fast` path without the fixed three-application §V counter study,
/// which no application subset can shrink. Sweep and study are run one
/// application at a time, each a unit of `watch`, and joined before the
/// figures are rendered; points and rows come out in the order, and with the
/// bytes, of one call over all applications.
fn regen(
    rec: &mut Recorder,
    watch: &mut Stopwatch,
    pass: &str,
    benches: &[Benchmark],
    backend: Backend<'_>,
    out: &Path,
) -> (Sweep, Study) {
    std::fs::create_dir_all(out).expect("scratch is writable");
    let mut sweep = Sweep {
        points: Vec::new(),
        apps: Vec::new(),
    };
    for b in benches {
        let part = watch.unit(&format!("{pass}sweep/{}", b.info.name), || {
            rec.leaf("harness.sweep", || {
                run_sweep_backed(std::slice::from_ref(b), true, 1, None, backend)
            })
        });
        sweep.points.extend(part.points);
        sweep.apps.extend(part.apps);
    }
    watch
        .unit(&format!("{pass}figures/sweep"), || {
            rec.leaf("harness.figures", || {
                figures::table1(&sweep, out, benches)?;
                figures::fig6(&sweep, out)?;
                figures::fig7(&sweep, out)?;
                figures::fig8(&sweep, out)
            })
        })
        .expect("scratch is writable");
    let mut study = Study { points: Vec::new() };
    for b in benches {
        let part = watch.unit(&format!("{pass}study/{}", b.info.name), || {
            rec.leaf("harness.study", || {
                run_study_backed(std::slice::from_ref(b), 1, None, backend)
            })
        });
        study.points.extend(part.points);
    }
    watch
        .unit(&format!("{pass}figures/study"), || {
            rec.leaf("harness.figures", || {
                figures::fig9(&study, out)?;
                figures::table2(&study, out)?;
                figures::faults(&sweep, out)
            })
        })
        .expect("scratch is writable");
    (sweep, study)
}

impl Run<'_> {
    fn apps(&self, names: &[&str]) -> Vec<Benchmark> {
        if self.args.smoke {
            select(&[SMOKE_APP])
        } else {
            select(names)
        }
    }

    fn setups(&self) -> usize {
        if self.args.smoke {
            1
        } else {
            SETUPS
        }
    }

    /// Repeat `rep` until the run's seconds are used up, alternating plain
    /// and traced repetitions when tracing. The first repetition of each kind
    /// always runs, so a slow machine still reports.
    fn reps<T>(&mut self, mut rep: impl FnMut(&mut Run<'_>, bool) -> T) -> Vec<Rep<T>> {
        let start = Instant::now();
        let mut reps = Vec::new();
        loop {
            for traced in [false, true] {
                if traced && !self.args.trace {
                    continue;
                }
                let t = Instant::now();
                let out = rep(self, traced);
                reps.push(Rep {
                    traced,
                    wall_s: t.elapsed().as_secs_f64(),
                    out,
                });
            }
            if self.args.smoke || start.elapsed().as_secs_f64() >= self.args.seconds {
                eprintln!(
                    "uu-e2e: {}: {} repetitions in {:.1} s, plain walls {:.3?}",
                    self.args.workload,
                    reps.len(),
                    start.elapsed().as_secs_f64(),
                    walls(&reps, false)
                );
                return reps;
            }
        }
    }

    /// Compare a digest with the workload's golden, or rewrite the golden.
    fn check_golden(&mut self, digest: &[(String, u64)]) {
        let name = format!(
            "{}{}",
            self.args.workload,
            if self.args.smoke { "-smoke" } else { "" }
        );
        if self.args.bless {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}.fnv"));
            std::fs::write(&path, render_digest(digest)).expect("golden directory is writable");
            return;
        }
        let golden: Vec<&str> = golden_text(&name).lines().collect();
        self.checks.check(golden.len() == digest.len());
        for (line, want) in render_digest(digest).lines().zip(golden) {
            self.checks.check(line == want);
        }
    }

    /// Every point clean, every application's checksum equal to the
    /// oracle's (a hot point that disagrees with its baseline carries a
    /// diagnostic, so clean points plus an oracle-equal baseline mean every
    /// executed point equals the oracle), every report file equal to golden.
    fn check_regen(&mut self, sweep: &Sweep, study: &Study, oracle: &[f64], out: &Path) -> u64 {
        let mut mismatches = 0;
        for (app, want) in sweep.apps.iter().zip(oracle) {
            self.checks.check(app.diag.is_empty());
            for got in [&app.baseline, &app.heuristic] {
                let same = same_bits(got.checksum, *want);
                mismatches += u64::from(!same);
                self.checks.check(same);
            }
        }
        for p in sweep.points.iter().chain(&study.points) {
            self.checks.check(p.diag.is_empty());
        }
        self.check_golden(&digest_dir(out));
        mismatches
    }

    fn finish<T>(
        &mut self,
        setup_s: f64,
        reps: &[Rep<T>],
        speedups: Vec<f64>,
        size_ratios: Vec<f64>,
        work: u64,
    ) -> EndToEnd {
        if self.args.trace {
            let traced_wall: f64 = walls(reps, true).iter().sum();
            self.layer.push((
                "trace.accounted_share".into(),
                self.rec.leaf_s_under("walk") / traced_wall,
            ));
        }
        let (wall_s, cpu_s) = self.watch.fastest();
        for (unit, samples) in &self.watch.samples {
            let fastest = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
            eprintln!(
                "uu-e2e: unit {unit:<32} fastest {fastest:>9.6} s of {} repetitions",
                samples.len()
            );
        }
        EndToEnd {
            setup_s,
            wall_s,
            cpu_s,
            speedups,
            size_ratios,
            work,
        }
    }

    /// Per-layer metrics every workload shares, per traced repetition;
    /// `mismatches` counts executed points whose checksum differs from the
    /// reference engine's.
    fn layer_metrics(&mut self, traced_reps: usize, plain_reps: usize, mismatches: u64) {
        let rec = &*self.rec;
        let (t, p) = (traced_reps.max(1) as f64, plain_reps.max(1) as f64);
        let per_rep = |name: &str| rec.total_s(name) / t;
        let count = |name: &str| rec.counter(name) / t;
        let calls = |name: &str| rec.calls(name) as f64 / t;
        let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let percentile = |name: &str, q: f64| {
            let mut d = rec.durations_ns(name);
            d.sort_unstable();
            d.get(((d.len() as f64 * q) as usize).min(d.len().saturating_sub(1)))
                .map_or(0.0, |ns| *ns as f64 / 1e6)
        };
        let mut m: Vec<(String, f64)> = vec![
            ("kernels.build_s".into(), per_rep("kernels.build")),
            ("kernels.build_calls".into(), calls("kernels.build")),
            ("core.compile_s".into(), per_rep("core.compile")),
            ("core.compile_calls".into(), calls("core.compile")),
            ("core.work_munits".into(), count("core.work") / 1e6),
            (
                "core.units_per_ms".into(),
                share(rec.counter("core.work"), rec.total_s("core.compile") * 1e3),
            ),
            (
                "core.untouched_fn_compiles".into(),
                count("core.untouched_fn_compiles"),
            ),
            (
                "core.changed_point_share".into(),
                share(
                    rec.counter("core.changed_points"),
                    rec.counter("core.compiles"),
                ),
            ),
            (
                "core.dup_compile_share".into(),
                share(
                    rec.counter("core.dup_compiles"),
                    rec.counter("core.study_compiles"),
                ),
            ),
            (
                "analysis.module_size_s".into(),
                per_rep("analysis.module_size"),
            ),
            ("analysis.loop_list_s".into(), per_rep("analysis.loop_list")),
            (
                "analysis.code_size_units".into(),
                count("analysis.code_size_units"),
            ),
            (
                "simt.ref_engine_s".into(),
                share(
                    rec.total_s("simt.ref_engine"),
                    rec.calls("simt.ref_engine") as f64,
                ),
            ),
            ("simt.engine_mismatches".into(), mismatches as f64),
            ("simt.run_s".into(), per_rep("simt.run")),
            ("simt.run_calls".into(), calls("simt.run")),
            ("simt.warp_insts".into(), count("simt.warp_insts")),
            (
                "simt.mwarp_insts_per_s".into(),
                share(
                    rec.counter("simt.warp_insts") / 1e6,
                    rec.total_s("simt.run"),
                ),
            ),
            ("simt.sim_kernel_ms".into(), count("simt.sim_kernel_ms")),
            ("simt.decode_hits".into(), count("simt.decode_hits")),
            ("simt.decode_misses".into(), count("simt.decode_misses")),
            (
                "simt.decode_hit_share".into(),
                share(
                    rec.counter("simt.decode_hits"),
                    rec.counter("simt.decode_hits") + rec.counter("simt.decode_misses"),
                ),
            ),
            ("ir.print_s".into(), per_rep("ir.print")),
            ("ir.parse_s".into(), per_rep("ir.parse")),
            ("ir.print_bytes".into(), count("ir.print_bytes")),
            ("ir.module_hash_s".into(), per_rep("ir.module_hash")),
            ("ir.insts_after".into(), count("ir.insts_after")),
            ("serve.key_s".into(), per_rep("serve.key")),
            ("serve.lookup_s".into(), per_rep("serve.lookup")),
            (
                "serve.remote_requests".into(),
                count("serve.remote_requests"),
            ),
            (
                "serve.remote_rtt_p50_ms".into(),
                percentile("serve.remote", 0.5),
            ),
            (
                "serve.remote_rtt_p90_ms".into(),
                percentile("serve.remote", 0.9),
            ),
            (
                "serve.remote_fallbacks".into(),
                count("serve.remote_fallbacks"),
            ),
            (
                "serve.remote_pass_s".into(),
                rec.total_s("serve.remote_pass") / p,
            ),
            (
                "serve.disk_pass_s".into(),
                rec.total_s("serve.disk_pass") / p,
            ),
            (
                "serve.hit_share".into(),
                share(
                    rec.counter("serve.hits") + rec.counter("serve.remote_hits"),
                    rec.counter("serve.lookups") + rec.counter("serve.remote_requests"),
                ),
            ),
            ("harness.sweep_s".into(), rec.total_s("harness.sweep") / p),
            ("harness.study_s".into(), rec.total_s("harness.study") / p),
            (
                "harness.figures_s".into(),
                rec.total_s("harness.figures") / p,
            ),
            ("harness.noise_s".into(), per_rep("harness.noise")),
            ("harness.points".into(), calls("walk.point")),
            ("harness.point_p50_ms".into(), percentile("walk.point", 0.5)),
            ("harness.point_p90_ms".into(), percentile("walk.point", 0.9)),
        ];
        for pass in crate::spec::PASSES {
            for suffix in ["s", "work"] {
                let name = format!("core.pass.{pass}_{suffix}");
                let value = count(&name);
                m.push((name, value));
            }
        }
        self.layer.extend(m);
    }

    /// Seconds the harness's sweeps and studies took in each plain
    /// repetition (`calls` of each per repetition): what the walk mirrors,
    /// without figure rendering.
    fn harness_s(&self, calls: usize) -> Vec<f64> {
        let sweeps = self.rec.durations_ns("harness.sweep");
        let studies = self.rec.durations_ns("harness.study");
        sweeps
            .chunks(calls)
            .zip(studies.chunks(calls))
            .map(|(a, b)| (a.iter().sum::<u64>() + b.iter().sum::<u64>()) as f64 / 1e9)
            .collect()
    }

    /// `trace.overhead_share`, and for harness-driven workloads
    /// `harness.glue_s`: what the harness's sweep and study cost beyond the
    /// layer calls the walk made for the same points (plus tracing error).
    fn overhead(&mut self, plain_s: &[f64], traced_s: &[f64], harness_driven: bool) {
        if plain_s.is_empty() || traced_s.is_empty() {
            return;
        }
        let (plain, traced) = (median(plain_s), median(traced_s));
        self.layer
            .push(("trace.overhead_share".into(), traced / plain - 1.0));
        if harness_driven {
            let leaves = self.rec.leaf_s_under("walk") / traced_s.len() as f64;
            self.layer.push(("harness.glue_s".into(), plain - leaves));
        }
    }

    fn regen_fast(&mut self) -> EndToEnd {
        let benches = self.apps(REGEN_APPS);
        let (want, setup_s) = set_up(self.setups(), |_| {
            self.rec.leaf("simt.ref_engine", || oracle(&benches))
        });
        let scratch = self.scratch.to_path_buf();
        let mut n = 0;
        let reps = self.reps(|run, traced| {
            n += 1;
            // A regeneration is a process of its own: it starts with an
            // empty decode cache.
            uu_simt::decode_cache_clear();
            if traced {
                let (sweep, study) = walk::walk(run.rec, Source::Local, &benches, fast_cold, true);
                RegenOut::Walk(sweep, study)
            } else {
                let out = scratch.join(format!("out-{n}"));
                let (sweep, study) = regen(
                    run.rec,
                    &mut run.watch,
                    "",
                    &benches,
                    Backend::default(),
                    &out,
                );
                RegenOut::Harness(sweep, study, out)
            }
        });
        let mut mismatches = 0;
        let mut last: Option<(&Sweep, &Study)> = None;
        for r in &reps {
            match &r.out {
                RegenOut::Harness(sweep, study, out) => {
                    mismatches += self.check_regen(sweep, study, &want, out);
                    self.layer
                        .push(("harness.report_bytes".into(), dir_bytes(out) as f64));
                    last = Some((sweep, study));
                }
                RegenOut::Walk(sweep, study) => {
                    let (hs, hst) = last.expect("a plain repetition precedes every traced one");
                    let bases: Vec<Walked> = sweep.apps.iter().map(|a| a.0.clone()).collect();
                    let bad = walk::check_sweep(sweep, hs, &benches)
                        + walk::check_study(study, &bases, hst, &benches);
                    self.checks
                        .count((sweep.points.len() + study.len()) as u64, bad);
                }
            }
        }
        let (sweep, study) = last.expect("at least one plain repetition");
        if self.args.trace {
            let plain_s = self.harness_s(benches.len());
            let traced_s = walls(&reps, true);
            self.layer_metrics(traced_s.len(), plain_s.len(), mismatches);
            self.overhead(&plain_s, &traced_s, true);
        }
        let speedups = sweep.apps.iter().map(|a| a.speedup()).collect();
        let size_ratios = sweep.apps.iter().map(|a| a.size_ratio()).collect();
        let work = regen_work(sweep, study);
        self.finish(setup_s, &reps, speedups, size_ratios, work)
    }

    fn cold_loops(&mut self) -> EndToEnd {
        let bench = self.apps(&[COLD_APP]).remove(0);
        let benches = [bench];
        let (want, setup_s) = set_up(self.setups(), |_| {
            self.rec.leaf("simt.ref_engine", || oracle(&benches))
        });
        let mut rng = Rng::seed_from_u64(self.args.seed);
        let reps = self.reps(|run, traced| {
            uu_simt::decode_cache_clear();
            if traced {
                let walked = walk::walk(run.rec, Source::Local, &benches, strided_cold, false);
                return ColdOut::Walk(walked.0);
            }
            let bench = &benches[0];
            let measure =
                |t| measure_backed(bench, t, LoopFilter::All, None, None, Backend::default());
            let (base, heur) = run.watch.unit("app", || {
                let base = measure(Transform::Baseline).expect("the baseline runs");
                let heur = measure(Transform::UuHeuristic(HeuristicOptions::default()))
                    .expect("the heuristic runs");
                (base, heur)
            });
            let mut loops = run.watch.unit("loops", || {
                walk::sweep_loops(bench, loop_list(bench), strided_cold)
            });
            shuffle(&mut loops, &mut rng);
            let mut points = Vec::new();
            for (loop_ref, hot) in loops {
                let name = format!("{}/{}", loop_ref.func, loop_ref.loop_id);
                run.watch.unit(&name, || {
                    for (config, transform) in sweep_configs() {
                        let task = PointTask {
                            bench,
                            base: &base,
                            loop_ref: loop_ref.clone(),
                            hot,
                            config,
                            transform,
                            fault: None,
                            cache: None,
                            remote: None,
                        };
                        points.push((format!("{name}/{config}"), task.measure()));
                    }
                });
            }
            ColdOut::Harness(Box::new(ColdHarness { base, heur, points }))
        });
        let mut mismatches = 0;
        let mut last = None;
        let (plain_s, traced_s) = (walls(&reps, false), walls(&reps, true));
        for r in &reps {
            match &r.out {
                ColdOut::Harness(harness) => {
                    let ColdHarness { base, heur, points } = &**harness;
                    for m in [base, heur] {
                        let same = same_bits(m.checksum, want[0]);
                        mismatches += u64::from(!same);
                        self.checks.check(same && m.diag.is_empty());
                    }
                    let mut lines: Vec<(String, u64)> = points
                        .iter()
                        .map(|(key, m)| {
                            self.checks
                                .check(m.diag.is_empty() && same_bits(m.checksum, want[0]));
                            let line = format!("{} {} {}", work_of(m), m.code_size, m.timed_out);
                            (key.clone(), uu_ir::fnv1a(line.as_bytes()))
                        })
                        .collect();
                    lines.sort();
                    self.check_golden(&lines);
                    last = Some((base, heur, points));
                }
                ColdOut::Walk(sweep) => {
                    let (base, heur, points) =
                        last.expect("a plain repetition precedes every traced one");
                    let mut bad = u64::from(!sweep.apps[0].0.matches(base))
                        + u64::from(!sweep.apps[0].1.matches(heur));
                    for p in &sweep.points {
                        let key =
                            format!("{}/{}/{}", p.loop_ref.func, p.loop_ref.loop_id, p.config);
                        let same = points.iter().any(|(k, m)| *k == key && p.got.matches(m));
                        bad += u64::from(!same);
                    }
                    self.checks.count(2 + sweep.points.len() as u64, bad);
                }
            }
        }
        let (base, heur, points) = last.expect("at least one plain repetition");
        if self.args.trace {
            self.layer_metrics(traced_s.len(), plain_s.len(), mismatches);
            self.overhead(&plain_s, &traced_s, true);
        }
        let rest = benches[0].info.binary_rest_size as f64;
        let size_ratio = (rest + heur.code_size as f64) / (rest + base.code_size as f64);
        let work =
            work_of(base) + work_of(heur) + points.iter().map(|(_, m)| work_of(m)).sum::<u64>();
        self.finish(
            setup_s,
            &reps,
            vec![base.time_ms / heur.time_ms],
            vec![size_ratio],
            work,
        )
    }

    fn sim_launch(&mut self) -> EndToEnd {
        let benches = self.apps(SIM_APPS);
        let (set, setup_s) = set_up(self.setups(), |_| {
            let want = self.rec.leaf("simt.ref_engine", || oracle(&benches));
            let modules: Vec<Vec<HotModule>> = benches.iter().map(hot_modules).collect();
            (want, modules)
        });
        let (want, modules) = set;
        // Seeded application order; each application keeps its module order.
        let mut order: Vec<usize> = (0..benches.len()).collect();
        shuffle(&mut order, &mut Rng::seed_from_u64(self.args.seed));
        let mut off = Recorder::new(false);
        let reps = self.reps(|run, traced| {
            let rec = if traced { &mut *run.rec } else { &mut off };
            let open = rec.begin("walk");
            let mut runs = Vec::new();
            for (round, times) in [("simt.once_round", 1), ("simt.twice_round", 2)] {
                // Each round starts with an empty decode cache, so `once`
                // decodes on every launch and `twice` on every other one:
                // the same layer used decode-miss-heavy and decode-hit.
                uu_simt::decode_cache_clear();
                rec.span(round, |rec| {
                    for &app in &order {
                        run.watch
                            .unit(&format!("{round}/{}", benches[app].info.name), || {
                                for (i, hm) in modules[app].iter().enumerate() {
                                    for _ in 0..times {
                                        let mut got = Walked::default();
                                        walk::simulate(rec, &benches[app], &hm.module, &mut got);
                                        runs.push((app, i, got));
                                    }
                                }
                            });
                    }
                });
            }
            rec.end(open);
            runs
        });
        let mut mismatches = 0;
        let (plain_s, traced_s) = (walls(&reps, false), walls(&reps, true));
        for r in &reps {
            let mut lines: Vec<(String, u64)> = Vec::new();
            for (app, i, got) in &r.out {
                let same = !got.fault && same_bits(got.checksum, want[*app]);
                mismatches += u64::from(!same);
                self.checks.check(same);
                let key = format!("{}/{}", benches[*app].info.name, modules[*app][*i].label);
                lines.push((key, got.time_ms.to_bits()));
            }
            lines.sort();
            lines.dedup();
            self.check_golden(&lines);
        }
        if self.args.trace {
            let n = traced_s.len().max(1) as f64;
            let (once, twice) = (
                self.rec.total_s("simt.once_round") / n,
                self.rec.total_s("simt.twice_round") / n,
            );
            self.layer.extend([
                ("simt.once_round_s".to_string(), once),
                ("simt.twice_round_s".to_string(), twice),
                (
                    "simt.decode_saved_share".to_string(),
                    (2.0 * once - twice) / once,
                ),
            ]);
            self.layer_metrics(traced_s.len(), plain_s.len(), mismatches);
            self.overhead(&plain_s, &traced_s, false);
        }
        let time = |app: usize, label: &str| {
            let i = modules[app]
                .iter()
                .position(|hm| hm.label == label)
                .expect("baseline and heuristic are compiled");
            reps[0]
                .out
                .iter()
                .find(|(a, j, _)| *a == app && *j == i)
                .map_or(f64::NAN, |r| r.2.time_ms)
        };
        let size = |app: usize, label: &str| {
            modules[app]
                .iter()
                .find(|hm| hm.label == label)
                .map_or(0.0, |hm| hm.code_size as f64)
        };
        let speedups = (0..benches.len())
            .map(|a| time(a, "baseline") / time(a, "heuristic"))
            .collect();
        let size_ratios = (0..benches.len())
            .map(|a| {
                let rest = benches[a].info.binary_rest_size as f64;
                (rest + size(a, "heuristic")) / (rest + size(a, "baseline"))
            })
            .collect();
        let work = modules.iter().flatten().map(|hm| hm.work).sum();
        self.finish(setup_s, &reps, speedups, size_ratios, work)
    }

    fn served_warm(&mut self) -> EndToEnd {
        let benches = self.apps(SERVED_APPS);
        let scratch = self.scratch.to_path_buf();
        let mut prime_s = Vec::new();
        let (set, setup_s) = set_up(self.setups(), |i| {
            let want = self.rec.leaf("simt.ref_engine", || oracle(&benches));
            let dir = scratch.join(format!("cache-{i}"));
            let t = Instant::now();
            let primed = {
                let cache = CompileCache::at_dir(&dir).expect("scratch is writable");
                let out = scratch.join(format!("prime-{i}"));
                regen(
                    &mut Recorder::new(false),
                    &mut Stopwatch::default(),
                    "",
                    &benches,
                    Backend::local(Some(&cache)),
                    &out,
                )
            };
            prime_s.push(t.elapsed().as_secs_f64());
            (
                want,
                primed,
                Daemon::start(&dir, &scratch.join(format!("d{i}.sock"))),
            )
        });
        let (want, primed, daemon) = set;
        let mut rng = Rng::seed_from_u64(self.args.seed);
        let mut n = 0;
        let reps = self.reps(|run, traced| {
            n += 1;
            let fresh =
                CompileCache::at_dir(&daemon.dir).expect("the primed cache directory exists");
            let mut passes = [true, false];
            shuffle(&mut passes, &mut rng);
            let requests = daemon.cache.stats().requests;
            let mut outs = Vec::new();
            for remote_pass in passes {
                uu_simt::decode_cache_clear();
                if traced {
                    let source = if remote_pass {
                        Source::Remote(&daemon.remote)
                    } else {
                        Source::Disk(&fresh)
                    };
                    let (sweep, study) = walk::walk(run.rec, source, &benches, fast_cold, true);
                    outs.push(RegenOut::Walk(sweep, study));
                } else {
                    let (span, pass, backend) = if remote_pass {
                        (
                            "serve.remote_pass",
                            "remote/",
                            Backend {
                                cache: None,
                                remote: Some(&daemon.remote),
                            },
                        )
                    } else {
                        ("serve.disk_pass", "disk/", Backend::local(Some(&fresh)))
                    };
                    let out = scratch.join(format!("out-{n}-{}", u8::from(remote_pass)));
                    let watch = &mut run.watch;
                    let (sweep, study) = run
                        .rec
                        .span(span, |rec| regen(rec, watch, pass, &benches, backend, &out));
                    outs.push(RegenOut::Harness(sweep, study, out));
                }
            }
            (outs, daemon.cache.stats().requests - requests)
        });
        let (plain_s, traced_s) = (walls(&reps, false), walls(&reps, true));
        let mut mismatches = 0;
        for r in &reps {
            let (outs, requests) = &r.out;
            for out in outs {
                match out {
                    RegenOut::Harness(sweep, study, out) => {
                        mismatches += self.check_regen(sweep, study, &want, out);
                        // Only the remote pass sends requests: one per
                        // compile, or the client fell back to compiling
                        // locally. (Both passes have the same compiles.)
                        let compiles =
                            (3 * sweep.apps.len() + sweep.points.len() + study.points.len()) as u64;
                        self.checks.check(*requests == compiles);
                    }
                    RegenOut::Walk(sweep, study) => {
                        let bases: Vec<Walked> = sweep.apps.iter().map(|a| a.0.clone()).collect();
                        let bad = walk::check_sweep(sweep, &primed.0, &benches)
                            + walk::check_study(study, &bases, &primed.1, &benches);
                        self.checks
                            .count((sweep.points.len() + study.len()) as u64, bad);
                    }
                }
            }
        }
        if self.args.trace {
            let (decode_s, encode_s, bytes) = artifact_costs(&daemon.dir);
            let stats = daemon.cache.stats();
            self.layer.extend([
                ("serve.prime_pass_s".to_string(), median(&prime_s)),
                ("serve.artifact_decode_s".to_string(), decode_s),
                ("serve.artifact_encode_s".to_string(), encode_s),
                ("serve.artifact_bytes".to_string(), bytes as f64),
                // Cumulative in the daemon; reported per repetition (one
                // remote pass each, plain or traced).
                (
                    "serve.daemon_lookup_us".to_string(),
                    stats.lookup_micros as f64 / reps.len() as f64,
                ),
                (
                    "serve.daemon_compile_us".to_string(),
                    stats.compile_micros as f64 / reps.len() as f64,
                ),
            ]);
            self.layer_metrics(traced_s.len(), plain_s.len(), mismatches);
            // Two passes per repetition.
            let base = self.harness_s(2 * benches.len());
            self.overhead(&base, &traced_s, true);
        }
        let speedups = primed.0.apps.iter().map(|a| a.speedup()).collect();
        let size_ratios = primed.0.apps.iter().map(|a| a.size_ratio()).collect();
        let work = regen_work(&primed.0, &primed.1);
        self.finish(setup_s, &reps, speedups, size_ratios, work)
    }
}

enum RegenOut {
    /// The harness's own sweep and study, and where their reports went.
    Harness(Sweep, Study, PathBuf),
    /// The traced walk of the same points.
    Walk(walk::SweepWalk, Vec<walk::WalkedPoint>),
}

enum ColdOut {
    Harness(Box<ColdHarness>),
    Walk(walk::SweepWalk),
}

/// What the harness measured in one `cold-loops` repetition.
struct ColdHarness {
    base: Measurement,
    heur: Measurement,
    points: Vec<(String, Measurement)>,
}

/// One optimised module of `sim-launch`.
struct HotModule {
    label: String,
    module: Module,
    work: u64,
    code_size: u64,
}

/// The executed points of one application's fast sweep, compiled: baseline,
/// heuristic, and each hot loop under each sweep configuration.
fn hot_modules(bench: &Benchmark) -> Vec<HotModule> {
    let mut configs = vec![
        ("baseline".to_string(), Transform::Baseline, LoopFilter::All),
        (
            "heuristic".to_string(),
            Transform::UuHeuristic(HeuristicOptions::default()),
            LoopFilter::All,
        ),
    ];
    for l in loop_list(bench) {
        if bench.info.hot_kernels.contains(&l.func.as_str()) {
            for (config, transform) in sweep_configs() {
                let filter = LoopFilter::Only {
                    func: l.func.clone(),
                    loop_id: l.loop_id,
                };
                configs.push((
                    format!("{}/{}/{config}", l.func, l.loop_id),
                    transform,
                    filter,
                ));
            }
        }
    }
    configs
        .into_iter()
        .map(|(label, transform, filter)| {
            let mut module = (bench.build)();
            let opts = PipelineOptions {
                transform,
                filter,
                timeout: Some(COMPILE_TIMEOUT),
                ..Default::default()
            };
            let outcome = uu_core::compile(&mut module, &opts);
            let code_size = uu_analysis::cost::module_size(&module);
            HotModule {
                label,
                module,
                work: outcome.work,
                code_size,
            }
        })
        .collect()
}

/// Seconds to decode and to re-encode every artifact under `dir`, and their
/// total size: the cache's (de)serialisation cost, apart from file I/O.
fn artifact_costs(dir: &Path) -> (f64, f64, u64) {
    let (mut decode_s, mut encode_s, mut bytes) = (0.0, 0.0, 0u64);
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        for file in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let Ok(text) = std::fs::read_to_string(file.path()) else {
                continue;
            };
            bytes += text.len() as u64;
            let t = Instant::now();
            let artifact = Artifact::decode(&text);
            decode_s += t.elapsed().as_secs_f64();
            if let Some(a) = artifact {
                let t = Instant::now();
                std::hint::black_box(a.encode());
                encode_s += t.elapsed().as_secs_f64();
            }
        }
    }
    (decode_s, encode_s, bytes)
}

/// An in-process compile daemon: one worker over a cache directory.
struct Daemon {
    dir: PathBuf,
    cache: Arc<CompileCache>,
    remote: Remote,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(dir: &Path, socket: &Path) -> Daemon {
        let cache = Arc::new(CompileCache::at_dir(dir).expect("the primed cache directory exists"));
        let (served, path) = (Arc::clone(&cache), socket.to_path_buf());
        let thread = std::thread::spawn(move || {
            let opts = ServeOptions {
                workers: 1,
                inflight: 1,
                ..ServeOptions::default()
            };
            uu_serve::serve_unix_with(&path, &served, opts)
        });
        let remote = Remote::new(socket);
        let ready = remote.request(&Message::new("ping"));
        assert!(
            ready.is_ok_and(|r| r.verb == "ok"),
            "the daemon answers a ping"
        );
        Daemon {
            dir: dir.to_path_buf(),
            cache,
            remote,
            thread: Some(thread),
        }
    }
}

impl Drop for Daemon {
    /// Ask the daemon to drain and wait until its threads have ended.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = self.remote.request(&Message::new("shutdown"));
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("uu-e2e: the daemon exited with {e}"),
                Err(_) => eprintln!("uu-e2e: the daemon thread panicked"),
            }
        }
    }
}
