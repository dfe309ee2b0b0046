//! Core measurement machinery: compile a benchmark under a configuration,
//! execute it on the simulated GPU, and collect the paper's three metrics
//! (kernel time, binary size, compile time) plus hardware counters, from
//! a [`uu_serve::Artifacts`] store when there is one ([`Backend`]).

use crate::plan::Key;
use crate::profile::{self, Span};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use uu_core::{FaultKind, FaultPlan, LoopFilter, PipelineOptions, Rung, Transform};
use uu_kernels::Benchmark;
use uu_serve::{Artifacts, CompileCache, CompileMeta, RunRecord};
use uu_simt::{ExecError, Gpu, Metrics};

/// One compiled-and-executed measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Sum of kernel times (simulated milliseconds), noise-free.
    pub time_ms: f64,
    /// Lowered code size of the whole module (Figure 6b's "binary size").
    pub code_size: u64,
    /// Modeled compile time of the optimization pipeline, from the
    /// deterministic compile clock ([`uu_core::WORK_PER_MS`]); wall clock
    /// would leak scheduling noise into every compile-time figure.
    pub compile_ms: f64,
    /// Output checksum (must match the baseline's).
    pub checksum: f64,
    /// Whether compilation hit the timeout (paper: ccs at factor ≥ 4).
    pub timed_out: bool,
    /// Aggregated simulator counters; a cold point shares its baseline's,
    /// as it borrows the baseline's run.
    pub metrics: Arc<Metrics>,
    /// Host↔device transfer time (for Table I's %C).
    pub transfer_ms: f64,
    /// Which rung of the degradation ladder the compile landed on
    /// ([`Rung::Full`] on a clean compile).
    pub rung: Rung,
    /// Contained-failure diagnostics: the compile's `PassFailure` summary
    /// plus any runtime fault or equivalence violation. Empty when clean.
    pub diag: String,
}

/// A loop identified by function name + deterministic per-function index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopRef {
    /// Function name.
    pub func: String,
    /// Loop index in `LoopForest` order.
    pub loop_id: usize,
}

/// Report rows share their loop ([`crate::sweep::LoopPoint::loop_ref`]),
/// which equals the loop itself.
impl PartialEq<LoopRef> for Arc<LoopRef> {
    fn eq(&self, other: &LoopRef) -> bool {
        **self == *other
    }
}

thread_local! {
    /// Each application's module as built, keyed by its build function,
    /// built at most once per thread.
    static MODULES: RefCell<HashMap<usize, uu_ir::Module>> = RefCell::new(HashMap::new());
}

/// `bench`'s module: a clone of the one this thread built first, sharing
/// every function with it (cloning a module copies one pointer per
/// function, and a compile copies only the functions it changes). Every
/// point of an application therefore hands the compile memo the same
/// function handles, which it recognises by pointer. The harness builds
/// modules nowhere else.
pub fn shared_module(bench: &Benchmark) -> uu_ir::Module {
    MODULES.with(|modules| {
        let mut modules = modules.borrow_mut();
        modules.entry(bench.build as usize).or_insert_with(bench.build).clone()
    })
}

/// Enumerate every loop of a benchmark's module.
pub fn loop_list(bench: &Benchmark) -> Vec<LoopRef> {
    let m = shared_module(bench);
    let mut out = Vec::new();
    for (_, f) in m.iter() {
        let dom = uu_analysis::DomTree::compute(f);
        let forest = uu_analysis::LoopForest::compute(f, &dom);
        for i in 0..forest.len() {
            out.push(LoopRef {
                func: f.name().to_string(),
                loop_id: i,
            });
        }
    }
    out
}

pub use uu_core::COMPILE_TIMEOUT;

/// A failed measurement: the simulator trapped, but the compile's
/// metadata (rung, diagnostics, modeled work, code size) survives so
/// callers can degrade the data point instead of dying.
#[derive(Debug, Clone)]
pub struct MeasureError {
    /// The simulator fault.
    pub exec: ExecError,
    /// The compile of the trapping module. Its `diag` may be empty: a
    /// clean compile can still trap on an injected memory fault.
    pub meta: CompileMeta,
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exec fault: {}", self.exec)?;
        if !self.meta.diag.is_empty() {
            write!(f, " (compile: {})", self.meta.diag)?;
        }
        Ok(())
    }
}

/// Compile `bench` under `transform`/`filter`; execute the workload unless
/// `skip_run` is set (used for cold loops, whose kernel time provably equals
/// the baseline's because the workload never launches them).
///
/// The cacheless, daemonless, fault-free convenience over
/// [`measure_backed`], for tests and examples; the reports measure through
/// [`crate::plan::Plan`].
///
/// # Errors
///
/// Returns a [`MeasureError`] when the simulator traps — after a verified
/// compile that indicates a miscompilation (or an injected fault); callers
/// degrade the point rather than aborting the sweep.
pub fn measure(
    bench: &Benchmark,
    transform: Transform,
    filter: LoopFilter,
    skip_run: Option<&Measurement>,
) -> Result<Measurement, MeasureError> {
    measure_backed(bench, transform, filter, skip_run, None, Backend::default())
}

/// Measure the baseline configuration of a benchmark (see [`measure`]).
///
/// # Errors
///
/// See [`measure`].
pub fn measure_baseline(bench: &Benchmark) -> Result<Measurement, MeasureError> {
    measure(bench, Transform::Baseline, LoopFilter::All, None)
}

/// The *run*-side cache-key tag: everything outside the module + pipeline
/// config that can change simulator output — benchmark identity, workload
/// version, launch repeats and any memory-fault plan (which is armed on the
/// GPU, not the pipeline). The `||` is an empty reserved slot: stored run
/// artifacts and the benchmark's own key derivation expect these exact
/// bytes.
pub fn workload_tag(bench: &Benchmark, mem_fault: Option<&FaultPlan>) -> String {
    let mem_fault = mem_fault.map(FaultPlan::spec).unwrap_or_default();
    format!(
        "{}|wl{}|x{}||{mem_fault}",
        bench.info.name,
        uu_kernels::WORKLOAD_VERSION,
        bench.info.launch_repeats.max(1),
    )
}

/// Where a point's compile and run come from: the store — a compile
/// daemon if one is set, else a content-addressed cache — or, with
/// neither, the plain local pipeline and simulator. Copyable, so every
/// measurement can take one.
///
/// The sources are interchangeable by construction (see
/// [`uu_serve::Artifacts`]), so the backend only ever changes wall time,
/// never report bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Backend<'a> {
    /// Shared content-addressed artifact cache (compile + run artifacts).
    pub cache: Option<&'a uu_serve::CompileCache>,
    /// Compile daemon handle. When set it serves everything, and the
    /// `cache` is not consulted: the daemon keeps its own. No command sets
    /// it: it stays for e2ebench's `served-warm` until ROADMAP item 2
    /// replaces that workload, and item 1 then deletes the daemon path.
    pub remote: Option<&'a uu_serve::Remote>,
}

impl<'a> Backend<'a> {
    /// A purely local backend (optional cache, no daemon).
    pub fn local(cache: Option<&'a uu_serve::CompileCache>) -> Backend<'a> {
        Backend {
            cache,
            remote: None,
        }
    }

    /// The store that serves every point: the daemon if set, else the
    /// cache.
    fn store(self) -> Option<&'a dyn Artifacts> {
        let remote = self.remote.map(|r| r as &dyn Artifacts);
        remote.or_else(|| self.cache.map(|c| c as &dyn Artifacts))
    }
}

/// The one measurement path: compile `bench` under `transform`/`filter`
/// through `backend`, execute the workload unless `skip_run` lends the
/// baseline's run, and assemble the [`Measurement`].
///
/// Pass/verifier/budget faults go to the pipeline; a [`FaultKind::Mem`]
/// plan arms the simulated GPU's one-shot memory-fault countdown
/// (`fault.at` counts accesses) instead.
///
/// With a store ([`Backend`]), an executed point first looks its run up
/// (a warm regeneration skips pipeline and simulator alike); on a miss it
/// compiles through the store, simulates, and stores the run. A cold
/// point compiles through the store for its metadata alone. Without a
/// store the point compiles locally. Every stored field round-trips
/// exactly (f64s as bit patterns) and a store's compile metadata equals a
/// local compile's, so the backend changes wall time and nothing else.
/// Faulted simulator runs ([`MeasureError`]) are never stored.
///
/// # Errors
///
/// See [`measure`].
pub fn measure_backed(
    bench: &Benchmark,
    transform: Transform,
    filter: LoopFilter,
    skip_run: Option<&Measurement>,
    fault: Option<FaultPlan>,
    backend: Backend<'_>,
) -> Result<Measurement, MeasureError> {
    let mut m = shared_module(bench);
    let mem_fault = fault.filter(|p| p.kind == FaultKind::Mem);
    let opts = PipelineOptions {
        transform,
        filter,
        timeout: Some(COMPILE_TIMEOUT),
        fault: fault.filter(|p| p.kind != FaultKind::Mem),
        ..Default::default()
    };

    // Only executed points have a run record; cold ones borrow the
    // baseline's run and consume compile metadata alone.
    let executed = skip_run.is_none();
    let store = backend.store();
    let run_store = store.filter(|_| executed).map(|store| {
        let tag = workload_tag(bench, mem_fault.as_ref());
        (store, CompileCache::run_key(CompileCache::compile_key(&m, &opts), &tag))
    });
    let prof = profile::on();
    let looked_up = run_store.and_then(|(store, key)| {
        profile::timed(prof, Span::StoreLookup, || store.lookup_run(key))
    });
    let (meta, run) = match looked_up {
        Some(served) => served,
        None => {
            let meta = match store {
                Some(store) => profile::timed(prof, Span::StoreLookup, || {
                    store.compile(&mut m, &opts, executed)
                }),
                None => {
                    let span = if executed { Span::ExecutedCompile } else { Span::ColdCompile };
                    let outcome = profile::timed(prof, span, || uu_core::compile(&mut m, &opts));
                    debug_assert!(outcome.verify_error.is_none(), "guarded compile must emit valid IR");
                    if prof {
                        profile::passes(span, &outcome.timings);
                    }
                    CompileMeta::of(&outcome, &m)
                }
            };
            let run = match skip_run {
                Some(base) => RunRecord {
                    time_ms: base.time_ms,
                    checksum: base.checksum,
                    transfer_ms: base.transfer_ms,
                    metrics: *base.metrics,
                },
                None => {
                    let run = profile::timed(prof, Span::Simulate, || {
                        simulate(bench, &m, mem_fault)
                    })
                    .map_err(|exec| MeasureError {
                        exec,
                        meta: meta.clone(),
                    })?;
                    if let Some((store, key)) = run_store {
                        profile::timed(prof, Span::Store, || store.store_run(key, &meta, &run));
                    }
                    run
                }
            };
            (meta, run)
        }
    };
    Ok(Measurement {
        time_ms: run.time_ms,
        code_size: meta.code_size,
        compile_ms: meta.work as f64 / uu_core::WORK_PER_MS,
        checksum: run.checksum,
        timed_out: meta.timed_out,
        metrics: skip_run.map_or_else(|| Arc::new(run.metrics), |base| Arc::clone(&base.metrics)),
        transfer_ms: run.transfer_ms,
        rung: meta.rung,
        diag: meta.diag,
    })
}

/// The run half of an executed point: the workload of `bench` over the
/// optimised module on a fresh simulated GPU, with `mem_fault` armed.
fn simulate(
    bench: &Benchmark,
    optimized: &uu_ir::Module,
    mem_fault: Option<FaultPlan>,
) -> Result<RunRecord, ExecError> {
    let mut gpu = Gpu::new();
    if let Some(p) = mem_fault {
        gpu.mem.inject_fault_after(p.at);
    }
    let run = (bench.run)(optimized, &mut gpu)?;
    // The application launches its kernels `launch_repeats` times; the
    // workload simulates one representative launch (counters stay
    // per-launch; ratios are unaffected).
    let repeats = bench.info.launch_repeats.max(1) as f64;
    Ok(RunRecord {
        time_ms: run.kernel_time_ms * repeats,
        checksum: run.checksum,
        transfer_ms: run.transfer_ms(),
        metrics: run.metrics,
    })
}

/// One per-loop point measured on its own: apply `transform` to exactly
/// `loop_ref` of `bench` and measure it against the precomputed baseline.
///
/// Tasks share nothing mutable — each compiles its own copy of the module
/// on its own simulated GPU — so a batch of them is safe to fan out across
/// a `uu-par` pool.
/// The reports measure through [`crate::plan::Plan`] instead, which
/// applies the same per-point policy to its stored results: a trap or a
/// hot loop's checksum mismatch degrades the point to its baseline's
/// numbers, with the fault in [`Measurement::diag`].
#[derive(Debug, Clone)]
pub struct PointTask<'a> {
    /// The benchmark to compile and run.
    pub bench: &'a Benchmark,
    /// Its baseline measurement (skip-run source for cold loops, reference
    /// for the hot-loop equivalence check).
    pub base: &'a Measurement,
    /// The single targeted loop.
    pub loop_ref: LoopRef,
    /// Whether that loop lives in a launched (hot) kernel.
    pub hot: bool,
    /// Configuration name (`uu2`, `unroll4`, `unmerge`, …).
    pub config: &'static str,
    /// The transform behind `config`.
    pub transform: Transform,
    /// Fault-injection plan forwarded to the compile/execute of this point
    /// (`None` in production sweeps unless `UU_FAULT` is set).
    pub fault: Option<FaultPlan>,
    /// Shared content-addressed artifact cache; `None` compiles and runs
    /// everything from scratch. Cached and cacheless measurements are
    /// identical by construction, so this only changes wall time.
    pub cache: Option<&'a uu_serve::CompileCache>,
    /// Optional compile daemon; like the cache, it changes wall time
    /// only — any point the daemon cannot serve compiles locally. When
    /// set, it serves the point and `cache` is not consulted.
    pub remote: Option<&'a uu_serve::Remote>,
}

impl PointTask<'_> {
    /// Compile + execute this point (cold loops reuse the baseline run)
    /// and settle the outcome under the per-point policy (see
    /// [`PointTask`]).
    pub fn measure(&self) -> Measurement {
        let key = Key {
            bench: self.bench,
            target: Some(Arc::new(self.loop_ref.clone())),
            config: self.config,
            transform: self.transform.clone(),
        };
        let backend = Backend {
            cache: self.cache,
            remote: self.remote,
        };
        let raw = key.measure((!self.hot).then_some(self.base), self.fault, backend);
        settle(self.base, self.hot, &key.what(), raw)
    }
}

/// The per-loop point policy of the sweep and the study, applied to the
/// outcome `raw` of the point `what` against its application's `base`.
///
/// Never panics: a simulator trap degrades the point to the baseline's
/// numbers (ratio 1.0) with the fault recorded in [`Measurement::diag`],
/// and on a hot loop a checksum mismatch — a miscompile — is recorded the
/// same way. Every failure path is deterministic, so faulted sweeps stay
/// byte-identical at any worker count.
pub(crate) fn settle(
    base: &Measurement,
    hot: bool,
    what: &str,
    raw: Result<Measurement, MeasureError>,
) -> Measurement {
    let mut m = match raw {
        Ok(m) => m,
        Err(e) => {
            let mut degraded = base.clone();
            degraded.compile_ms = e.meta.work as f64 / uu_core::WORK_PER_MS;
            degraded.code_size = e.meta.code_size;
            degraded.timed_out = e.meta.timed_out;
            degraded.rung = e.meta.rung;
            degraded.diag = format!("{what}: {e}");
            return degraded;
        }
    };
    if hot {
        if let Some(d) = equivalence_diag(base, &m, what) {
            append_diag(&mut m.diag, &d);
        }
    }
    m
}

/// Append the diagnostic `d`, if any, to `diag`, `; `-separated.
pub(crate) fn append_diag(diag: &mut String, d: &str) {
    if !diag.is_empty() && !d.is_empty() {
        diag.push_str("; ");
    }
    diag.push_str(d);
}

/// The per-loop sweep configurations of the paper's Figures 6–8.
pub fn sweep_configs() -> Vec<(&'static str, Transform)> {
    let uu = |factor| Transform::Uu {
        factor,
        unmerge: uu_core::UnmergeOptions::default(),
    };
    vec![
        ("uu2", uu(2)),
        ("uu4", uu(4)),
        ("uu8", uu(8)),
        ("unroll2", Transform::Unroll { factor: 2 }),
        ("unroll4", Transform::Unroll { factor: 4 }),
        ("unroll8", Transform::Unroll { factor: 8 }),
        ("unmerge", Transform::Unmerge),
    ]
}

/// Diagnose a semantic-equivalence violation: `Some(description)` when the
/// transformed measurement's checksum diverges from the baseline's — a
/// miscompilation, which must never be reported as a speedup.
pub fn equivalence_diag(base: &Measurement, got: &Measurement, what: &str) -> Option<String> {
    (got.checksum != base.checksum).then(|| {
        format!(
            "MISCOMPILE under {what}: checksum {} != baseline {}",
            got.checksum, base.checksum
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_kernels::all_benchmarks;

    fn bench(name: &str) -> Benchmark {
        all_benchmarks()
            .into_iter()
            .find(|b| b.info.name == name)
            .unwrap()
    }

    #[test]
    fn loop_list_matches_table() {
        for b in all_benchmarks() {
            assert_eq!(loop_list(&b).len(), b.info.table_loops, "{}", b.info.name);
        }
    }

    #[test]
    fn baseline_measures_bezier() {
        let b = bench("bezier-surface");
        let m = measure_baseline(&b).unwrap();
        assert!(m.time_ms > 0.0);
        assert!(m.code_size > 0);
        assert!(!m.timed_out);
    }

    #[test]
    fn uu_on_hot_loop_preserves_semantics_and_speeds_up_bezier() {
        let b = bench("bezier-surface");
        let base = measure_baseline(&b).unwrap();
        let got = measure(
            &b,
            Transform::Uu {
                factor: 2,
                unmerge: Default::default(),
            },
            LoopFilter::Only {
                func: "bezier_blend".into(),
                loop_id: 0,
            },
            None,
        )
        .unwrap();
        assert_eq!(equivalence_diag(&base, &got, "uu2 bezier"), None);
        assert!(
            got.time_ms < base.time_ms,
            "u&u should speed up the bezier hot loop: {} vs {}",
            got.time_ms,
            base.time_ms
        );
        assert!(got.code_size > base.code_size);
    }

    #[test]
    fn launch_repeats_scale_time_but_not_ratios() {
        // complex has launch_repeats = 37000; ratios must be unaffected.
        let b = bench("complex");
        let base = measure_baseline(&b).unwrap();
        assert!(
            base.time_ms > 1.0,
            "repeats must lift complex into the ms range: {}",
            base.time_ms
        );
        let uu = measure(
            &b,
            Transform::Uu {
                factor: 2,
                unmerge: Default::default(),
            },
            LoopFilter::Only {
                func: "complex_pow".into(),
                loop_id: 0,
            },
            None,
        )
        .unwrap();
        let ratio = base.time_ms / uu.time_ms;
        assert!(ratio < 0.7, "complex uu2 slowdown survives scaling: {ratio}");
    }

    #[test]
    fn cold_loop_skip_run_reuses_baseline_time() {
        let b = bench("bezier-surface");
        let base = measure_baseline(&b).unwrap();
        let got = measure(
            &b,
            Transform::Uu {
                factor: 2,
                unmerge: Default::default(),
            },
            LoopFilter::Only {
                func: "aux_counted_0".into(),
                loop_id: 0,
            },
            Some(&base),
        )
        .unwrap();
        assert_eq!(got.time_ms, base.time_ms);
        assert_eq!(got.checksum, base.checksum);
    }
}
