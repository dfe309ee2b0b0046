//! The traced walk: the sweep's and the study's task lists, rebuilt from
//! `loop_list`, `sweep_configs` and `study_configs`, with every point taken
//! through the same public layer calls `uu_harness::measure_backed` makes —
//! module build, compile (or cache / daemon lookup), code size, simulation —
//! and a span around each. The harness itself is not instrumented, so the
//! walk is a second program; [`check_sweep`] and [`check_study`] hold it to
//! the numbers the harness produced for the same points.

use crate::trace::Recorder;
use std::collections::BTreeSet;
use uu_core::{HeuristicOptions, LoopFilter, PipelineOptions, Transform};
use uu_harness::experiment::{loop_list, sweep_configs, LoopRef, Measurement, COMPILE_TIMEOUT};
use uu_harness::study::{study_configs, Study};
use uu_harness::sweep::{LoopPoint, Sweep, FRONTEND_MS};
use uu_ir::Module;
use uu_kernels::Benchmark;
use uu_serve::{CompileCache, Remote};
use uu_simt::Gpu;

/// Where a point's compile half comes from (the harness's `Backend`, as one
/// choice: the benchmark never combines a cache with a daemon).
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// The local pipeline.
    Local,
    /// A content-addressed cache (compile and run artifacts).
    Disk(&'a CompileCache),
    /// A compile daemon, no client-side cache.
    Remote(&'a Remote),
}

/// What the walk learned about one point.
#[derive(Debug, Clone, Default)]
pub struct Walked {
    /// Deterministic compile clock of the point's compile.
    pub work: u64,
    /// Lowered code size of the optimised module.
    pub code_size: u64,
    /// Whether the compile hit its work budget.
    pub timed_out: bool,
    /// Output checksum (the baseline's, for a cold point).
    pub checksum: f64,
    /// Simulated kernel time, repeat-scaled (the baseline's, for a cold point).
    pub time_ms: f64,
    /// Compile diagnostics, a simulator trap, or a daemon that had to be
    /// bypassed: anything that makes the point not clean.
    pub fault: bool,
}

impl Walked {
    fn compile_ms(&self) -> f64 {
        self.work as f64 / uu_core::WORK_PER_MS
    }

    /// Whether the harness measured the same work, size, checksum, simulated
    /// time and timeout flag for this point, bit for bit.
    pub fn matches(&self, harness: &Measurement) -> bool {
        self.compile_ms().to_bits() == harness.compile_ms.to_bits()
            && self.code_size == harness.code_size
            && self.checksum.to_bits() == harness.checksum.to_bits()
            && self.time_ms.to_bits() == harness.time_ms.to_bits()
            && self.timed_out == harness.timed_out
            && self.fault != harness.diag.is_empty()
    }
}

/// One walked sweep or study point.
#[derive(Debug, Clone)]
pub struct WalkedPoint {
    /// Index of the point's application in the walked benchmark slice.
    pub app: usize,
    /// The targeted loop.
    pub loop_ref: LoopRef,
    /// Configuration name.
    pub config: &'static str,
    /// The walk's numbers.
    pub got: Walked,
}

/// A walked sweep: per-application baseline and heuristic, then the points.
#[derive(Debug, Default)]
pub struct SweepWalk {
    /// `(baseline, heuristic)` per application, in input order.
    pub apps: Vec<(Walked, Walked)>,
    /// Per-loop points in the harness's (bench, loop, config) order.
    pub points: Vec<WalkedPoint>,
}

/// Walk state: the recorder, the compile source, and the bookkeeping behind
/// the wasted-work ratios.
struct Walker<'a> {
    rec: &'a mut Recorder,
    source: Source<'a>,
    /// `app/func/loop/config` of every compile so far, so a study compile
    /// the sweep already performed is recognised.
    compiled: BTreeSet<String>,
    /// Hash of each application's baseline-optimised module.
    base_hash: Vec<u64>,
}

/// Which cold loops of an application a sweep visits, by their position
/// among the application's cold loops.
pub type ColdSelect = fn(usize) -> bool;

/// The harness's `--fast` rule: the first three cold loops of each application.
pub fn fast_cold(i: usize) -> bool {
    i < 3
}

/// The `(loop, hot)` list of one application's sweep, in harness order.
pub fn sweep_loops(
    bench: &Benchmark,
    loops: Vec<LoopRef>,
    cold: ColdSelect,
) -> Vec<(LoopRef, bool)> {
    let mut cold_seen = 0usize;
    loops
        .into_iter()
        .filter_map(|l| {
            let hot = bench.info.hot_kernels.contains(&l.func.as_str());
            if !hot {
                cold_seen += 1;
                if !cold(cold_seen - 1) {
                    return None;
                }
            }
            Some((l, hot))
        })
        .collect()
}

/// Walk the sweep of `benches` — and, with `study`, the three-way study
/// after it — through `source`, under one `walk` span.
pub fn walk<'a>(
    rec: &'a mut Recorder,
    source: Source<'a>,
    benches: &[Benchmark],
    cold: ColdSelect,
    study: bool,
) -> (SweepWalk, Vec<WalkedPoint>) {
    let mut w = Walker {
        rec,
        source,
        compiled: BTreeSet::new(),
        base_hash: Vec::new(),
    };
    let open = w.rec.begin("walk");
    let sweep = w.sweep(benches, cold);
    let points = if study { w.study(benches) } else { Vec::new() };
    w.rec.end(open);
    (sweep, points)
}

impl Walker<'_> {
    /// One point: build, compile through the source, size, and — unless
    /// `skip` hands over the baseline's run — simulate.
    fn point(
        &mut self,
        bench: &Benchmark,
        app: usize,
        key: String,
        transform: Transform,
        filter: LoopFilter,
        skip: Option<&Walked>,
    ) -> Walked {
        self.rec.next_point();
        let open = self.rec.begin("walk.point");
        let got = self.measure(bench, app, key, transform, filter, skip);
        self.rec.end(open);
        got
    }

    fn measure(
        &mut self,
        bench: &Benchmark,
        app: usize,
        key: String,
        transform: Transform,
        filter: LoopFilter,
        skip: Option<&Walked>,
    ) -> Walked {
        let rec = &mut *self.rec;
        let mut m = rec.leaf("kernels.build", bench.build);
        if matches!(filter, LoopFilter::Only { .. }) {
            rec.add("core.untouched_fn_compiles", m.num_functions() as f64 - 1.0);
        }
        let is_baseline = matches!(transform, Transform::Baseline);
        let opts = PipelineOptions {
            transform,
            filter,
            timeout: Some(COMPILE_TIMEOUT),
            ..Default::default()
        };
        let mut got = match self.source {
            Source::Local => {
                rec.add("core.compiles", 1.0);
                if !self.compiled.insert(key) {
                    rec.add("core.dup_compiles", 1.0);
                }
                let got = compile_local(rec, &mut m, &opts);
                let hash = rec.leaf("ir.module_hash", || uu_ir::module_hash(&m));
                if is_baseline {
                    if self.base_hash.len() <= app {
                        self.base_hash.resize(app + 1, 0);
                    }
                    self.base_hash[app] = hash;
                } else if self.base_hash.get(app).is_some_and(|b| *b != hash) {
                    rec.add("core.changed_points", 1.0);
                }
                got
            }
            Source::Disk(cache) => match compile_disk(rec, bench, cache, &mut m, &opts, skip) {
                Ok(served) => return served,
                Err(compiled) => compiled,
            },
            Source::Remote(remote) => compile_remote(rec, remote, &mut m, &opts, skip.is_none()),
        };
        match skip {
            Some(base) => {
                got.checksum = base.checksum;
                got.time_ms = base.time_ms;
            }
            None => simulate(rec, bench, &m, &mut got),
        }
        got
    }

    /// The sweep of `benches`: baseline and heuristic per application, then
    /// every selected loop under every sweep configuration.
    fn sweep(&mut self, benches: &[Benchmark], cold: ColdSelect) -> SweepWalk {
        let mut walk = SweepWalk::default();
        for (app, bench) in benches.iter().enumerate() {
            let name = bench.info.name;
            let base = self.point(
                bench,
                app,
                format!("{name}/baseline"),
                Transform::Baseline,
                LoopFilter::All,
                None,
            );
            let heur = self.point(
                bench,
                app,
                format!("{name}/heuristic"),
                Transform::UuHeuristic(HeuristicOptions::default()),
                LoopFilter::All,
                None,
            );
            // The harness draws two noise medians per application and one
            // per point; the seeds are private to it, so the walk times the
            // same amount of work on a seed of its own.
            for t in [base.time_ms, heur.time_ms] {
                noise(self.rec, bench, t);
            }
            walk.apps.push((base, heur));
        }
        for (app, bench) in benches.iter().enumerate() {
            let loops = self.rec.leaf("analysis.loop_list", || loop_list(bench));
            let base = walk.apps[app].0.clone();
            for (l, hot) in sweep_loops(bench, loops, cold) {
                for (config, transform) in sweep_configs() {
                    let got = self.loop_point(bench, app, &l, hot, config, transform, &base);
                    walk.points.push(WalkedPoint {
                        app,
                        loop_ref: l.clone(),
                        config,
                        got,
                    });
                }
            }
        }
        walk
    }

    /// The three-way study of `benches`: a baseline per application, then
    /// every hot loop under every study configuration.
    fn study(&mut self, benches: &[Benchmark]) -> Vec<WalkedPoint> {
        let bases: Vec<Walked> = benches
            .iter()
            .enumerate()
            .map(|(app, bench)| {
                let key = format!("{}/baseline", bench.info.name);
                self.point(bench, app, key, Transform::Baseline, LoopFilter::All, None)
            })
            .collect();
        let mut points = Vec::new();
        for (app, bench) in benches.iter().enumerate() {
            let loops = self.rec.leaf("analysis.loop_list", || loop_list(bench));
            for l in loops {
                if !bench.info.hot_kernels.contains(&l.func.as_str()) {
                    continue;
                }
                for (config, transform) in study_configs() {
                    noise(self.rec, bench, bases[app].time_ms);
                    let got = self.loop_point(bench, app, &l, true, config, transform, &bases[app]);
                    points.push(WalkedPoint {
                        app,
                        loop_ref: l.clone(),
                        config,
                        got,
                    });
                }
            }
        }
        self.rec
            .add("core.study_compiles", (bases.len() + points.len()) as f64);
        points
    }

    #[allow(clippy::too_many_arguments)]
    fn loop_point(
        &mut self,
        bench: &Benchmark,
        app: usize,
        l: &LoopRef,
        hot: bool,
        config: &'static str,
        transform: Transform,
        base: &Walked,
    ) -> Walked {
        let key = format!("{}/{}/{}/{config}", bench.info.name, l.func, l.loop_id);
        let filter = LoopFilter::Only {
            func: l.func.clone(),
            loop_id: l.loop_id,
        };
        let mut got = self.point(bench, app, key, transform, filter, (!hot).then_some(base));
        if got.checksum != base.checksum {
            got.fault = true;
        }
        noise(self.rec, bench, got.time_ms);
        got
    }
}

fn noise(rec: &mut Recorder, bench: &Benchmark, time_ms: f64) {
    rec.leaf("harness.noise", || {
        std::hint::black_box(uu_harness::stats::median_of_20(
            time_ms,
            bench.info.paper_rsd_pct,
            0,
        ))
    });
}

fn compile_local(rec: &mut Recorder, m: &mut Module, opts: &PipelineOptions) -> Walked {
    let outcome = rec.leaf("core.compile", || uu_core::compile(m, opts));
    rec.add("core.work", outcome.work as f64);
    for t in &outcome.timings {
        rec.add(&format!("core.pass.{}_s", t.name), t.elapsed.as_secs_f64());
        rec.add(&format!("core.pass.{}_work", t.name), t.work as f64);
    }
    let code_size = rec.leaf("analysis.module_size", || uu_analysis::cost::module_size(m));
    rec.add("analysis.code_size_units", code_size as f64);
    rec.add("ir.insts_after", m.total_insts() as f64);
    Walked {
        work: outcome.work,
        code_size,
        timed_out: outcome.timed_out,
        fault: !outcome.failures.is_empty(),
        ..Default::default()
    }
}

fn from_meta(meta: &uu_serve::CompileMeta) -> Walked {
    Walked {
        work: meta.work,
        code_size: meta.code_size,
        timed_out: meta.timed_out,
        fault: !meta.diag.is_empty(),
        ..Default::default()
    }
}

/// The cache path. `Ok` is a point served whole (metadata for a cold point,
/// a run artifact for a hot one); `Err` is a compiled point that still has
/// to be simulated because its run artifact was missing.
fn compile_disk(
    rec: &mut Recorder,
    bench: &Benchmark,
    cache: &CompileCache,
    m: &mut Module,
    opts: &PipelineOptions,
    skip: Option<&Walked>,
) -> Result<Walked, Walked> {
    rec.add("serve.lookups", 1.0);
    if let Some(base) = skip {
        let c = rec.leaf("serve.lookup", || cache.compile(m, opts, false));
        rec.add("serve.hits", f64::from(u8::from(c.hit)));
        let mut got = from_meta(&c.meta);
        got.checksum = base.checksum;
        got.time_ms = base.time_ms;
        return Ok(got);
    }
    // The harness's run-key tag: application, workload version, launch
    // repeats, then the (unset) engine override and memory-fault plan.
    let tag = format!(
        "{}|wl{}|x{}||",
        bench.info.name,
        uu_kernels::WORKLOAD_VERSION,
        bench.info.launch_repeats.max(1)
    );
    let key = rec.leaf("serve.key", || {
        CompileCache::run_key(CompileCache::compile_key(m, opts), &tag)
    });
    if let Some((meta, run)) = rec.leaf("serve.lookup", || cache.lookup_run(key)) {
        rec.add("serve.hits", 1.0);
        let mut got = from_meta(&meta);
        got.checksum = run.checksum;
        got.time_ms = run.time_ms;
        return Ok(got);
    }
    let c = rec.leaf("serve.lookup", || cache.compile(m, opts, true));
    Err(from_meta(&c.meta))
}

fn compile_remote(
    rec: &mut Recorder,
    remote: &Remote,
    m: &mut Module,
    opts: &PipelineOptions,
    want_module: bool,
) -> Walked {
    let config =
        uu_serve::config_name(&opts.transform).expect("sweep and study configs are nameable");
    let filter = match &opts.filter {
        LoopFilter::All => None,
        LoopFilter::Only { func, loop_id } => Some((func.as_str(), *loop_id)),
    };
    let text = rec.leaf("ir.print", || m.to_string());
    rec.add("ir.print_bytes", text.len() as f64);
    rec.add("serve.remote_requests", 1.0);
    let reply = rec.leaf("serve.remote", || {
        remote.compile(&text, &config, filter, None, want_module)
    });
    let served = reply.ok().and_then(|rc| {
        if let Some(body) = &rc.module_text {
            *m = rec.leaf("ir.parse", || uu_ir::parse_module(body)).ok()?;
        }
        rec.add("serve.remote_hits", f64::from(u8::from(rc.hit)));
        Some(from_meta(&rc.meta))
    });
    served.unwrap_or_else(|| {
        rec.add("serve.remote_fallbacks", 1.0);
        let mut got = compile_local(rec, m, opts);
        got.fault = true;
        got
    })
}

/// Run `m`'s workload on a fresh simulated GPU (default engine), recording
/// the span, the decode-cache movement and the simulated counters.
pub fn simulate(rec: &mut Recorder, bench: &Benchmark, m: &Module, got: &mut Walked) {
    let before = uu_simt::decode_cache_stats();
    let run = rec.leaf("simt.run", || (bench.run)(m, &mut Gpu::new()));
    let after = uu_simt::decode_cache_stats();
    rec.add("simt.decode_hits", after.0.saturating_sub(before.0) as f64);
    rec.add(
        "simt.decode_misses",
        after.1.saturating_sub(before.1) as f64,
    );
    match run {
        Ok(run) => {
            rec.add("simt.warp_insts", run.metrics.warp_insts as f64);
            rec.add("simt.sim_kernel_ms", run.kernel_time_ms);
            got.checksum = run.checksum;
            got.time_ms = run.kernel_time_ms * f64::from(bench.info.launch_repeats.max(1));
        }
        Err(_) => got.fault = true,
    }
}

fn same_point(p: &WalkedPoint, base: &Walked, bench: &Benchmark, harness: &LoopPoint) -> bool {
    let rest = bench.info.binary_rest_size as f64;
    let size_ratio = (rest + p.got.code_size as f64) / (rest + base.code_size as f64);
    let compile_ratio = (FRONTEND_MS + p.got.compile_ms()) / (FRONTEND_MS + base.compile_ms());
    harness.app == bench.info.name
        && harness.loop_ref == p.loop_ref
        && harness.config == p.config
        && harness.size_ratio.to_bits() == size_ratio.to_bits()
        && harness.compile_ratio.to_bits() == compile_ratio.to_bits()
        && harness.timed_out == p.got.timed_out
        && harness.diag.is_empty() != p.got.fault
}

/// Number of places where the walked sweep disagrees with the harness's:
/// per application the baseline's and heuristic's work, size, checksum and
/// simulated time; per point the size and compile-time ratios (so work and
/// code size), the timeout flag and cleanliness. A point's simulated time
/// reaches the harness's report only through a privately seeded noise
/// median, so it is checked through the checksum and the application level.
pub fn check_sweep(walk: &SweepWalk, sweep: &Sweep, benches: &[Benchmark]) -> u64 {
    let mut bad =
        walk.apps.len().abs_diff(sweep.apps.len()) + walk.points.len().abs_diff(sweep.points.len());
    for ((base, heur), app) in walk.apps.iter().zip(&sweep.apps) {
        bad += usize::from(!base.matches(&app.baseline));
        bad += usize::from(!heur.matches(&app.heuristic));
    }
    for (p, h) in walk.points.iter().zip(&sweep.points) {
        bad += usize::from(!same_point(p, &walk.apps[p.app].0, &benches[p.app], h));
    }
    bad as u64
}

/// [`check_sweep`] for the study; `bases` are the walked sweep's baselines
/// (the study recompiles them to the same numbers).
pub fn check_study(
    points: &[WalkedPoint],
    bases: &[Walked],
    study: &Study,
    benches: &[Benchmark],
) -> u64 {
    let mut bad = points.len().abs_diff(study.points.len());
    for (p, h) in points.iter().zip(&study.points) {
        bad += usize::from(!same_point(p, &bases[p.app], &benches[p.app], h));
    }
    bad as u64
}
