//! Pipeline configurations and the fault-tolerant pass manager.
//!
//! Reproduces the paper's five measurement configurations (§IV-B):
//!
//! * **baseline** — the `-O3` stand-in: cleanup, baseline unrolling,
//!   if-conversion (predication), cleanup;
//! * **unroll** — baseline + force-unrolling the selected loop(s) with the
//!   stock unroller (no unmerging);
//! * **unmerge** — baseline + the u&u pass with factor 1;
//! * **u&u** — baseline + unroll-and-unmerge at a given factor;
//! * **u&u heuristic** — baseline + the §III-C heuristic (`c = 1024`,
//!   `u_max = 8`).
//!
//! All transform configurations insert the pass *early* in the pipeline, as
//! the paper does, so every subsequent optimization can exploit the
//! duplicated control flow. [`PassPosition::Late`] exists for the ablation
//! showing why a late position is ineffective.
//!
//! ## Crash recovery
//!
//! Every pass invocation is *guarded* (see [`crate::recover`]): the
//! function is snapshotted, the pass runs under `catch_unwind`, and any
//! change is re-verified. A panicking or verifier-rejected pass is rolled
//! back and recorded as a [`PassFailure`] instead of aborting the compile;
//! [`CompileOutcome::rung`] reports which rung of the degradation ladder
//! the compile landed on. An opt-bisect limit
//! ([`PipelineOptions::bisect_limit`]) skips pass invocations past a
//! given index, which is what lets `uu-check` binary-search a miscompile
//! down to the first bad pass.
//!
//! ## Function memo
//!
//! The per-function stage (`optimize_function`) is a pure function of the
//! function it is handed, `max_rounds` and the baseline-unroll thresholds,
//! and a per-loop sweep point changes one function of its module. So
//! `optimize_module` looks every function the transform left alone up in a
//! thread-local, content-addressed memo (see `memo.rs`) and, on a hit,
//! replays the stored run's per-invocation charges through the same
//! counter, log and clock a real run drives — the [`CompileOutcome`] is the
//! one a memo-less compile returns, wall time aside. Compiles whose
//! invocation indices are addressed from outside (a pass-level fault plan,
//! an opt-bisect limit) do not touch the memo.
//!
//! ## Settled passes
//!
//! Each function is run in its own [`PassScope`]: its cached analyses and
//! the passes settled on its current state. Re-running a settled pass
//! would change nothing, so the invocation is elided — it keeps its index,
//! log entry and clock charge and returns `false` — unless a pass-level
//! fault plan targets it. The outcome is the one an un-elided run returns.

use crate::baseline_unroll::{baseline_unroll, BaselineUnrollOptions};
use crate::heuristic::{run_heuristic, HeuristicOptions, LoopDecision};
use crate::memo;
use crate::opt::{cleanup_round, ifconvert::IfConvert, Pass, PassScope};
use crate::recover::{
    corrupt_function, miscompile_function, panic_message, FailureReason, FaultKind, FaultPlan,
    PassFailure, PassInvocation, Rung,
};
use crate::unmerge::UnmergeOptions;
use crate::unroll::unroll_loop;
use crate::uu::{uu_loop, UuOptions};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uu_analysis::{DomTree, LoopForest};
use uu_ir::{FuncId, Function, Module};

/// Which transform (if any) the pipeline applies on top of the baseline.
#[derive(Debug, Clone)]
pub enum Transform {
    /// Plain `-O3` stand-in.
    Baseline,
    /// Stock loop unrolling of the selected loops by `factor`.
    Unroll {
        /// Unroll factor.
        factor: u32,
    },
    /// Unmerge-only (u&u with factor 1).
    Unmerge,
    /// Unroll-and-unmerge at `factor`.
    Uu {
        /// Unroll factor.
        factor: u32,
        /// Unmerge cascade options.
        unmerge: UnmergeOptions,
    },
    /// The size heuristic deciding per-loop factors.
    UuHeuristic(HeuristicOptions),
    /// DARM-style control-flow melding of divergent diamonds in the
    /// selected loops (see [`crate::opt::meld`]) — the rival philosophy the
    /// three-way study compares against unmerging.
    Meld,
    /// Unroll-and-unmerge at `factor`, then meld whatever divergent
    /// diamonds remain in the selected loops — the "both" leg of the
    /// three-way study.
    UuMeld {
        /// Unroll factor for the u&u step.
        factor: u32,
        /// Unmerge cascade options for the u&u step.
        unmerge: UnmergeOptions,
    },
}

/// Which loops the transform applies to.
#[derive(Debug, Clone, Default)]
pub enum LoopFilter {
    /// All loops of all functions (the heuristic always works this way).
    #[default]
    All,
    /// Only the loop with the given deterministic id in the given function.
    ///
    /// Loop ids follow [`LoopForest`] order (header reverse post-order),
    /// matching the paper's "consistent, deterministic unique ids" that let
    /// users select loops on the command line.
    Only {
        /// Function name.
        func: String,
        /// Deterministic loop index within the function.
        loop_id: usize,
    },
}

/// Where the transform sits in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PassPosition {
    /// Before all cleanup (the paper's choice).
    #[default]
    Early,
    /// After cleanup and if-conversion, with only one cleanup round after —
    /// the ablation position the paper argues is ineffective.
    Late,
}

/// Full pipeline options.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// The transform configuration.
    pub transform: Transform,
    /// Loop selection.
    pub filter: LoopFilter,
    /// Transform position.
    pub position: PassPosition,
    /// Maximum cleanup fixpoint rounds per stage.
    pub max_rounds: usize,
    /// Baseline unroller thresholds.
    pub baseline_unroll: BaselineUnrollOptions,
    /// Abort compilation when exceeded (the paper's ccs runs hit a 5-minute
    /// timeout at factor 4+). Interpreted on the deterministic compile
    /// clock (see [`WORK_PER_MS`]), not wall time, so whether a
    /// configuration times out is a pure function of the input.
    pub timeout: Option<Duration>,
    /// Deterministic fault-injection plan (see [`FaultPlan`]); `None` in
    /// production. [`FaultKind::Mem`] plans are ignored here — they target
    /// the simulator and are armed by the harness.
    pub fault: Option<FaultPlan>,
    /// Opt-bisect limit: pass invocations with index `>= limit` are
    /// skipped (LLVM's `-opt-bisect-limit`). Invocation `i` behaves
    /// identically under every limit `> i`, so a binary search over the
    /// limit pinpoints the first bad pass.
    pub bisect_limit: Option<u64>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            transform: Transform::Baseline,
            filter: LoopFilter::All,
            position: PassPosition::Early,
            max_rounds: 8,
            baseline_unroll: BaselineUnrollOptions::default(),
            timeout: None,
            fault: None,
            bisect_limit: None,
        }
    }
}

impl PipelineOptions {
    /// Convenience constructor for a named configuration applied to one
    /// loop.
    pub fn for_loop(transform: Transform, func: &str, loop_id: usize) -> Self {
        PipelineOptions {
            transform,
            filter: LoopFilter::Only {
                func: func.to_string(),
                loop_id,
            },
            ..Default::default()
        }
    }
}

/// Wall-clock attribution per pass (the paper's Figure 6c measures compile
/// time; §IV notes most of it is spent in the constant-propagation pass
/// processing duplicated code, not in u&u itself).
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// Pass name.
    pub name: &'static str,
    /// Accumulated wall time.
    pub elapsed: Duration,
    /// Accumulated deterministic compile-clock work (see [`WORK_PER_MS`]):
    /// this pass's share of [`CompileOutcome::work`].
    pub work: u64,
}

/// Deterministic compile-clock calibration: modeled work units per
/// millisecond. Every pass invocation charges the size of the function it
/// just processed, so modeled compile time grows with duplicated code the
/// same way the paper's Figure 6c wall clock does — but it is a pure
/// function of the input module and options, which is what lets sweep
/// reports be byte-identical across runs and worker counts.
///
/// Calibrated against release-build wall clock on the bundled benchmarks
/// (≈100 units/ms at the time of freezing), so modeled compile times —
/// and the Figure 6c ratios on top of the harness's frontend stand-in —
/// stay on the familiar milliseconds scale.
///
/// **Frozen.** The constant feeds [`pipeline_fingerprint`] and every
/// committed report, so it must NOT track later optimizer speedups (the
/// dense side-tables and cached analyses roughly halved real wall time
/// per work unit). `cargo bench -p uu-bench --bench compile` prints the
/// measured calibration as `units_per_ms`; the report clock stays fixed so
/// the corpus stays comparable.
pub const WORK_PER_MS: f64 = 100.0;

/// Every pass the pipeline can invoke, with a per-pass version counter.
/// **Bump a pass's version whenever its behaviour changes**: the list is
/// the input to [`pipeline_fingerprint`], which keys the `uu-serve`
/// content-addressed artifact cache — a stale fingerprint would let a
/// behaviourally different compiler serve old artifacts.
pub const PASS_VERSIONS: &[(&str, u32)] = &[
    ("simplifycfg", 1),
    ("instsimplify", 1),
    ("sccp", 1),
    ("gvn", 1),
    ("condprop", 1),
    ("dce", 1),
    ("ifconvert", 1),
    ("baseline-unroll", 1),
    ("unroll", 1),
    ("unmerge", 1),
    ("uu", 1),
    ("uu-heuristic", 1),
    ("meld", 1),
];

/// Version of the pipeline *structure* (pass order, guarding, degradation
/// ladder, compile clock). Bump on any pipeline.rs change that can alter a
/// compile's output or modeled work without touching an individual pass.
pub const PIPELINE_SCHEMA_VERSION: u32 = 1;

/// Deterministic fingerprint of the whole pass pipeline: the cache-key
/// component that invalidates every cached artifact when any pass (or the
/// pipeline itself) changes. Stable across processes and machines
/// (FNV-1a, not `DefaultHasher`).
pub fn pipeline_fingerprint() -> u64 {
    fingerprint_of(PIPELINE_SCHEMA_VERSION, PASS_VERSIONS)
}

/// [`pipeline_fingerprint`] over an explicit pass list — split out so
/// tests can prove that adding, removing, renaming or re-versioning any
/// pass changes the fingerprint.
pub fn fingerprint_of(schema: u32, passes: &[(&str, u32)]) -> u64 {
    let mut h = uu_ir::fnv1a(b"uu-pipeline");
    h = uu_ir::fnv1a_continue(h, &schema.to_le_bytes());
    h = uu_ir::fnv1a_continue(h, &WORK_PER_MS.to_bits().to_le_bytes());
    for (name, version) in passes {
        h = uu_ir::fnv1a_continue(h, name.as_bytes());
        h = uu_ir::fnv1a_continue(h, &[0]); // separator: ("ab",1) != ("a",b1)
        h = uu_ir::fnv1a_continue(h, &version.to_le_bytes());
    }
    h
}

/// Result of compiling a module.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Per-pass timings, aggregated over rounds and functions.
    pub timings: Vec<PassTiming>,
    /// Total wall time. Diagnostics only — derive metrics from [`work`]
    /// instead, which is deterministic.
    ///
    /// [`work`]: CompileOutcome::work
    pub total: Duration,
    /// Modeled compile work in deterministic units (see [`WORK_PER_MS`]):
    /// the sum over pass invocations of the processed function's size.
    pub work: u64,
    /// Whether the timeout fired (compilation stopped early but the IR is
    /// valid).
    pub timed_out: bool,
    /// Heuristic decisions (only for [`Transform::UuHeuristic`]).
    pub decisions: Vec<(String, LoopDecision)>,
    /// Contained pass failures, in invocation order (empty on a clean
    /// compile).
    pub failures: Vec<PassFailure>,
    /// Which rung of the degradation ladder the compile landed on.
    pub rung: Rung,
    /// The executed pass invocations (the opt-bisect log). Skipped
    /// invocations — past [`PipelineOptions::bisect_limit`] — are absent;
    /// entries carry their stable index.
    pub pass_log: Vec<PassInvocation>,
    /// The final whole-module verification result, surfaced instead of
    /// panicked: `None` means the emitted module verifies. With guarding
    /// on this is always `None` — an unverifiable module degrades to
    /// [`Rung::Unoptimized`], restoring the input — but the diagnostic
    /// that forced the restore is kept in [`failures`].
    ///
    /// [`failures`]: CompileOutcome::failures
    pub verify_error: Option<String>,
}

impl CompileOutcome {
    /// Time attributed to `name`.
    pub fn time_of(&self, name: &str) -> Duration {
        self.timings
            .iter()
            .filter(|t| t.name == name)
            .map(|t| t.elapsed)
            .sum()
    }

    /// One-line summary of all contained failures (empty when clean) —
    /// the diagnostic string sweep reports carry per data point.
    pub fn failure_summary(&self) -> String {
        self.failures
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Pass names that belong to the transform under measurement (not the
/// baseline pipeline): a contained failure in one of these means the
/// config effectively ran without u&u.
fn is_transform_pass(name: &str) -> bool {
    matches!(name, "unroll" | "unmerge" | "uu" | "uu-heuristic" | "meld")
}

struct Ctx {
    timings: Vec<PassTiming>,
    start: Instant,
    work: u64,
    work_budget: Option<u64>,
    timed_out: bool,
    // Recovery state.
    fault: Option<FaultPlan>,
    bisect_limit: Option<u64>,
    counter: u64,
    pass_log: Vec<PassInvocation>,
    failures: Vec<PassFailure>,
    /// Name of the function last logged, shared by its log entries.
    fn_name: Arc<str>,
    /// `(pass, work)` of the invocations since a memo miss armed it.
    trace: Option<Vec<(&'static str, u64)>>,
    /// Whether this compile may consult the function memo at all. Off
    /// under an opt-bisect limit and under a pass-level fault plan: both
    /// address invocations by index *inside* a function's run, which a
    /// replay does not execute.
    memo: bool,
    /// Per function: the caller's input, kept from just before the
    /// function's first mutation — what the `module-verify` last rung
    /// restores.
    originals: Vec<Option<Function>>,
    /// Per function: whether a transform invocation changed it.
    transformed: Vec<bool>,
}

impl Ctx {
    fn new(opts: &PipelineOptions, num_functions: usize) -> Self {
        Ctx {
            timings: Vec::new(),
            start: Instant::now(),
            work: 0,
            work_budget: opts
                .timeout
                .map(|t| (t.as_secs_f64() * 1e3 * WORK_PER_MS) as u64),
            timed_out: false,
            fault: opts.fault,
            bisect_limit: opts.bisect_limit,
            counter: 0,
            pass_log: Vec::new(),
            failures: Vec::new(),
            fn_name: Arc::from(""),
            trace: None,
            memo: opts.bisect_limit.is_none()
                && opts.fault.is_none_or(|p| p.kind == FaultKind::Mem),
            originals: vec![None; num_functions],
            transformed: vec![false; num_functions],
        }
    }

    /// Keep `f` as function `id`'s original unless one is kept already.
    fn keep_original(&mut self, id: FuncId, f: &Function) {
        self.originals[id.index()].get_or_insert_with(|| f.clone());
    }

    /// Append one executed invocation to the opt-bisect log.
    fn log(&mut self, index: u64, pass: &'static str, f: &Function) {
        if *self.fn_name != *f.name() {
            self.fn_name = Arc::from(f.name());
        }
        self.pass_log.push(PassInvocation {
            index,
            pass,
            function: Arc::clone(&self.fn_name),
        });
    }

    /// Record one pass invocation: wall time for the diagnostic breakdown,
    /// plus `work` deterministic units (the processed function's size)
    /// driving the modeled clock and the timeout.
    fn record(&mut self, name: &'static str, elapsed: Duration, work: u64) {
        match self.timings.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.elapsed += elapsed;
                t.work += work;
            }
            None => self.timings.push(PassTiming { name, elapsed, work }),
        }
        self.work += work;
        if let Some(b) = self.work_budget {
            if self.work > b {
                self.timed_out = true;
            }
        }
        if let Some(t) = &mut self.trace {
            t.push((name, work));
        }
    }

    /// Run one guarded invocation of `pass` over `f` in the function's
    /// `scope`. Returns whether the pass reported a change that survived
    /// verification; a contained failure rolls `f` back and returns
    /// `false`. A pass settled on `f` (see [`PassScope`]) is elided: it
    /// takes its counter step, log entry and clock charge and returns
    /// `false` without running — unless a pass-level fault plan targets
    /// this invocation.
    fn invoke(&mut self, f: &mut Function, scope: &mut PassScope, pass: &mut dyn Pass) -> bool {
        let name = pass.name();
        let index = self.counter;
        self.counter += 1;
        if let Some(limit) = self.bisect_limit {
            if index >= limit {
                return false; // opt-bisect: pass skipped, no work charged
            }
        }
        self.log(index, name, f);
        let fault = self.fault.filter(|p| p.at == index && p.kind != FaultKind::Mem);
        let t0 = Instant::now();
        let settled = scope.settled(name).filter(|_| fault.is_none());
        count_invocation(settled.is_some());
        if let Some(size) = settled {
            self.record(name, t0.elapsed(), size);
            return false;
        }

        // Arm the in-place undo journal instead of cloning the whole
        // function: first writes record pre-images, and rollback restores
        // them exactly (see `Function::snapshot_begin`). The journal's
        // buffers are retained across invocations, so the guarded happy
        // path allocates nothing in steady state.
        f.snapshot_begin();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, Some(p) if p.kind == FaultKind::Panic) {
                panic!("injected fault: {}", fault.unwrap().spec());
            }
            pass.run_with(f, scope.cache())
        }));
        let mut changed = match outcome {
            Ok(c) => c,
            Err(payload) => {
                f.snapshot_rollback();
                self.record(name, t0.elapsed(), uu_analysis::cost::function_size(f));
                self.failures.push(PassFailure {
                    pass: name,
                    index,
                    function: f.name().to_string(),
                    reason: FailureReason::Panic(panic_message(payload)),
                    rolled_back: true,
                });
                return false;
            }
        };
        // Post-pass fault effects.
        let mut must_verify = false;
        if let Some(p) = fault {
            match p.kind {
                FaultKind::Corrupt => {
                    changed |= corrupt_function(f, p.seed);
                    must_verify = true;
                }
                FaultKind::Miscompile => {
                    changed |= miscompile_function(f, p.seed);
                }
                FaultKind::Exhaust => {
                    self.timed_out = true;
                    self.failures.push(PassFailure {
                        pass: name,
                        index,
                        function: f.name().to_string(),
                        reason: FailureReason::Budget(format!(
                            "injected work-budget exhaustion: {}",
                            p.spec()
                        )),
                        rolled_back: false,
                    });
                }
                FaultKind::Panic | FaultKind::Mem => {}
            }
        }
        // Post-pass verification, on change only: an untouched function was
        // verified when it was produced, and skipping it keeps the guarded
        // happy path close to the unguarded one.
        if changed || must_verify {
            if let Err(e) = uu_ir::verify_function(f) {
                f.snapshot_rollback();
                self.record(name, t0.elapsed(), uu_analysis::cost::function_size(f));
                self.failures.push(PassFailure {
                    pass: name,
                    index,
                    function: f.name().to_string(),
                    reason: FailureReason::Verifier(e.to_string()),
                    rolled_back: true,
                });
                return false;
            }
        }
        let exact = f.snapshot_changed();
        f.snapshot_commit();
        let size = uu_analysis::cost::function_size(f);
        scope.after(pass, changed, exact, size);
        self.record(name, t0.elapsed(), size);
        changed
    }
}

/// A closure as a [`Pass`]: how the transforms and the baseline unroller
/// run under the same guard as the cleanup passes.
struct Step<F>(&'static str, F);

impl<F: FnMut(&mut Function) -> bool> Pass for Step<F> {
    fn name(&self) -> &'static str {
        self.0
    }

    fn run(&mut self, f: &mut Function) -> bool {
        (self.1)(f)
    }
}

thread_local! {
    /// `(elided, invoked)` pass invocations on this thread.
    static ELISION: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_invocation(elided: bool) {
    ELISION.with(|c| {
        let (e, n) = c.get();
        c.set((e + elided as u64, n + 1));
    });
}

/// This thread's `(elided, invoked)` counters over guarded pass
/// invocations: how many invocations the pass manager elided because the
/// pass was settled on the function (see [`PassScope`]), out of all it
/// handled. Invocations skipped by an opt-bisect limit or replayed from
/// the function memo count in neither. Diagnostics only: kept off
/// [`CompileOutcome`], whose contents do not depend on elision.
pub fn pass_elision_stats() -> (u64, u64) {
    ELISION.with(Cell::get)
}

/// Compile (optimize) a module under the given configuration.
///
/// Never panics on pass misbehaviour: failures are contained, rolled back,
/// and reported through [`CompileOutcome::failures`] /
/// [`CompileOutcome::rung`], with the whole-module verdict in
/// [`CompileOutcome::verify_error`].
pub fn compile(m: &mut Module, opts: &PipelineOptions) -> CompileOutcome {
    let mut ctx = Ctx::new(opts, m.num_functions());
    let mut decisions = Vec::new();

    if opts.position == PassPosition::Early {
        apply_transform(m, opts, &mut ctx, &mut decisions);
    }
    optimize_module(m, opts, &mut ctx);
    if opts.position == PassPosition::Late && !ctx.timed_out {
        apply_transform(m, opts, &mut ctx, &mut decisions);
        // A single cleanup round after — the point of the ablation is that
        // the pipeline does not restart.
        let funcs: Vec<_> = m.iter().map(|(id, _)| id).collect();
        for id in funcs {
            // `optimize_module` ran to the end, so every original is kept.
            run_timed_cleanup(m.function_mut(id), 1, &mut ctx, &mut PassScope::default());
        }
    }

    // The degradation ladder's verdict: which rung did this compile land
    // on, and does the emitted module verify?
    let mut rung = if ctx.failures.iter().all(|f| matches!(f.reason, FailureReason::Budget(_))) {
        Rung::Full
    } else if ctx.failures.iter().any(|f| is_transform_pass(f.pass)) {
        Rung::NoTransform
    } else {
        Rung::DroppedPass
    };
    let mut verify_error = uu_ir::verify_module(m).err().map(|e| e.to_string());
    if let Some(err) = &verify_error {
        // Last rung: the recovered module still does not verify (a pass
        // corrupted a function while reporting no change, slipping past
        // the on-change check). Restore the caller's input verbatim: every
        // function that was handed to a pass has its original kept.
        ctx.failures.push(PassFailure {
            pass: "module-verify",
            index: ctx.counter,
            function: "<module>".to_string(),
            reason: FailureReason::Verifier(err.clone()),
            rolled_back: true,
        });
        for (ix, orig) in std::mem::take(&mut ctx.originals).into_iter().enumerate() {
            if let Some(orig) = orig {
                *m.function_mut(FuncId::from_index(ix)) = orig;
            }
        }
        rung = Rung::Unoptimized;
        verify_error = uu_ir::verify_module(m).err().map(|e| e.to_string());
    }

    CompileOutcome {
        total: ctx.start.elapsed(),
        work: ctx.work,
        timed_out: ctx.timed_out,
        timings: ctx.timings,
        decisions,
        failures: ctx.failures,
        rung,
        pass_log: ctx.pass_log,
        verify_error,
    }
}

fn apply_transform(
    m: &mut Module,
    opts: &PipelineOptions,
    ctx: &mut Ctx,
    decisions: &mut Vec<(String, LoopDecision)>,
) {
    if matches!(opts.transform, Transform::Baseline) {
        return;
    }
    let funcs: Vec<_> = m.iter().map(|(id, _)| id).collect();
    for id in funcs {
        if ctx.timed_out {
            return;
        }
        let f = m.function_mut(id);
        // The name test comes before the analyses: a per-loop point skips
        // every function but one.
        if matches!(&opts.filter, LoopFilter::Only { func, .. } if func != f.name()) {
            continue;
        }
        // Determine target loop headers under the filter.
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let headers: Vec<uu_ir::BlockId> = match &opts.filter {
            LoopFilter::All => forest.loops().iter().map(|l| l.header).collect(),
            LoopFilter::Only { loop_id, .. } => {
                if *loop_id >= forest.len() {
                    continue;
                }
                vec![forest.loops()[*loop_id].header]
            }
        };
        ctx.keep_original(id, f);
        let uu = |factor: u32, unmerge: UnmergeOptions| {
            let headers = &headers;
            move |f: &mut Function| {
                let mut changed = false;
                for &h in headers {
                    changed |= uu_loop(
                        f,
                        h,
                        &UuOptions {
                            factor,
                            unmerge,
                            ..Default::default()
                        },
                    )
                    .applied;
                }
                changed
            }
        };
        let meld = |f: &mut Function| {
            let mut changed = false;
            for &h in &headers {
                changed |= crate::opt::meld::meld_loop(f, h);
            }
            changed
        };
        let scope = &mut PassScope::default();
        let changed = match &opts.transform {
            Transform::Baseline => unreachable!("returned above"),
            Transform::Unroll { factor } => {
                let factor = *factor;
                ctx.invoke(f, scope, &mut Step("unroll", |f: &mut Function| {
                    let mut changed = false;
                    for &h in &headers {
                        let dom = DomTree::compute(f);
                        let forest = LoopForest::compute(f, &dom);
                        if let Some(l) = forest.loops().iter().find(|l| l.header == h).cloned() {
                            if uu_analysis::convergence::loop_has_convergent(
                                f,
                                &forest,
                                uu_analysis::LoopId(
                                    forest.loops().iter().position(|x| x.header == h).unwrap(),
                                ),
                            ) {
                                continue;
                            }
                            if unroll_loop(f, l.header, &l.blocks, &l.latches, factor).is_some() {
                                // The stock unroller owns this loop now.
                                f.set_loop_pragma(h, uu_ir::LoopPragma::NoUnroll);
                                changed = true;
                            }
                        }
                    }
                    changed
                }))
            }
            Transform::Unmerge => {
                ctx.invoke(f, scope, &mut Step("unmerge", uu(1, UnmergeOptions::default())))
            }
            Transform::Uu { factor, unmerge } => {
                ctx.invoke(f, scope, &mut Step("uu", uu(*factor, *unmerge)))
            }
            Transform::UuHeuristic(hopts) => {
                let mut local = Vec::new();
                let changed = ctx.invoke(
                    f,
                    scope,
                    &mut Step("uu-heuristic", |f: &mut Function| {
                        local = run_heuristic(f, hopts);
                        !local.is_empty()
                    }),
                );
                let fname = f.name().to_string();
                decisions.extend(local.into_iter().map(|d| (fname.clone(), d)));
                changed
            }
            Transform::Meld => ctx.invoke(f, scope, &mut Step("meld", meld)),
            Transform::UuMeld { factor, unmerge } => {
                // Two guarded invocations so each step degrades
                // independently: a panicking meld rolls back to the u&u
                // result, not all the way to baseline. The loop header
                // block survives `uu_loop` (the unrolled loop keeps it),
                // so the meld step can target the same headers.
                let unmerged = ctx.invoke(f, scope, &mut Step("uu", uu(*factor, *unmerge)));
                ctx.invoke(f, scope, &mut Step("meld", meld)) | unmerged
            }
        };
        ctx.transformed[id.index()] |= changed;
    }
}

fn optimize_module(m: &mut Module, opts: &PipelineOptions, ctx: &mut Ctx) {
    let funcs: Vec<_> = m.iter().map(|(id, _)| id).collect();
    for id in funcs {
        if ctx.timed_out {
            return;
        }
        let f = m.function_mut(id);
        // The memo admits exactly the functions no transform invocation
        // changed in this compile: those recur on every point of the
        // application's sweep, a transformed variant at most once more (in
        // the study), and holding both costs more peak RSS than the
        // end-to-end benchmark allows.
        if !ctx.memo || ctx.transformed[id.index()] {
            memo::count_bypass();
            ctx.keep_original(id, f);
            optimize_function(f, opts, ctx);
            continue;
        }
        let room = ctx.work_budget.map(|b| b.saturating_sub(ctx.work));
        if let Some(hit) = memo::lookup(f, opts.max_rounds, &opts.baseline_unroll, room) {
            // Replay the run's charges — one counter step, log entry and
            // clock charge per invocation, so the outcome is the one the
            // real run produces — then swap the stored body in. The input
            // moves into the snapshot instead of being cloned.
            for &(pass, work) in &hit.trace {
                ctx.log(ctx.counter, pass, f);
                ctx.counter += 1;
                ctx.record(pass, Duration::ZERO, work);
            }
            let input = std::mem::replace(f, hit.output.clone());
            ctx.originals[id.index()].get_or_insert(input);
            continue;
        }
        ctx.keep_original(id, f);
        let input = f.clone();
        let failures = ctx.failures.len();
        ctx.trace = Some(Vec::new());
        optimize_function(f, opts, ctx);
        let trace = ctx.trace.take().expect("armed above");
        // Only a run that finished is a function of its input alone.
        if !ctx.timed_out && ctx.failures.len() == failures {
            memo::insert(input, opts.max_rounds, opts.baseline_unroll, f.clone(), trace);
        }
    }
}

/// The per-function stage of the pipeline: cleanup, baseline unrolling,
/// cleanup, if-conversion, cleanup. Reads `f`, `opts.max_rounds` and
/// `opts.baseline_unroll`, plus — only when a limit, budget or fault plan
/// cuts it short — the invocation counter and compile clock in `ctx`.
fn optimize_function(f: &mut Function, opts: &PipelineOptions, ctx: &mut Ctx) {
    // Dominators, loops and settled passes survive across the stages as
    // long as the function does not change under them (see `PassScope`).
    let scope = &mut PassScope::default();
    run_timed_cleanup(f, opts.max_rounds, ctx, scope);
    if ctx.timed_out {
        return;
    }
    let bopts = opts.baseline_unroll;
    ctx.invoke(
        f,
        scope,
        &mut Step("baseline-unroll", |f: &mut Function| {
            let stats = baseline_unroll(f, &bopts);
            stats.full + stats.runtime + stats.pragma > 0
        }),
    );
    run_timed_cleanup(f, opts.max_rounds, ctx, scope);
    if ctx.timed_out {
        return;
    }
    ctx.invoke(f, scope, &mut IfConvert);
    run_timed_cleanup(f, opts.max_rounds, ctx, scope);
}

fn run_timed_cleanup(f: &mut Function, max_rounds: usize, ctx: &mut Ctx, scope: &mut PassScope) {
    for _ in 0..max_rounds {
        if ctx.timed_out || !cleanup_round(|p| ctx.invoke(f, scope, p)) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    fn branchy_module() -> Module {
        let mut f = uu_ir::Function::new(
            "k",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let t = b.create_block();
        let e2 = b.create_block();
        let m = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, t, exit);
        b.switch_to(t);
        b.cond_br(Value::Arg(1), e2, m);
        b.switch_to(e2);
        b.br(m);
        b.switch_to(m);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, t, Value::imm(1i64));
        b.add_phi_incoming(p, e2, Value::imm(2i64));
        let i1 = b.add(i, p);
        b.add_phi_incoming(i, m, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut m_ = Module::new("t");
        m_.add_function(f);
        m_
    }

    #[test]
    fn all_configs_produce_valid_ir() {
        for transform in [
            Transform::Baseline,
            Transform::Unroll { factor: 2 },
            Transform::Unmerge,
            Transform::Uu {
                factor: 2,
                unmerge: UnmergeOptions::default(),
            },
            Transform::UuHeuristic(HeuristicOptions::default()),
            Transform::Meld,
            Transform::UuMeld {
                factor: 2,
                unmerge: UnmergeOptions::default(),
            },
        ] {
            let mut m = branchy_module();
            let opts = PipelineOptions {
                transform,
                ..Default::default()
            };
            let out = compile(&mut m, &opts);
            assert!(!out.timed_out);
            // The verifier verdict is carried in the outcome, not panicked
            // from inside the pipeline.
            assert_eq!(
                out.verify_error, None,
                "config {:?} produced invalid IR",
                opts.transform
            );
            assert_eq!(out.rung, crate::recover::Rung::Full, "{:?}", opts.transform);
            assert!(out.failures.is_empty(), "{:?}: {}", opts.transform, out.failure_summary());
        }
    }

    #[test]
    fn baseline_ifconverts_the_diamond() {
        let mut m = branchy_module();
        compile(&mut m, &PipelineOptions::default());
        let f = m.function(uu_ir::FuncId::from_index(0));
        let selects = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, uu_ir::InstKind::Select { .. }))
            .count();
        assert!(selects >= 1, "baseline should predicate:\n{f}");
    }

    #[test]
    fn uu_leaves_no_selects_in_unmerged_body() {
        let mut m = branchy_module();
        compile(
            &mut m,
            &PipelineOptions {
                transform: Transform::Uu {
                    factor: 2,
                    unmerge: UnmergeOptions::default(),
                },
                ..Default::default()
            },
        );
        let f = m.function(uu_ir::FuncId::from_index(0));
        let selects = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, uu_ir::InstKind::Select { .. }))
            .count();
        assert_eq!(selects, 0, "u&u replaces predication with branches:\n{f}");
    }

    #[test]
    fn loop_filter_restricts_to_named_loop() {
        let mut m = branchy_module();
        let before = m.total_insts();
        compile(
            &mut m,
            &PipelineOptions::for_loop(
                Transform::Uu {
                    factor: 4,
                    unmerge: UnmergeOptions::default(),
                },
                "nonexistent",
                0,
            ),
        );
        // Transform targeted a nonexistent function: only baseline cleanup
        // ran. The loop body survives (baseline may still simplify a bit).
        let after = m.total_insts();
        assert!(after <= before);
    }

    /// The paper's argument for placing u&u early: a late placement leaves
    /// the subsequent optimizations no room to exploit the duplication, so
    /// the late-compiled kernel retains (at best) baseline-level cleanup.
    #[test]
    fn late_position_is_less_effective() {
        let run = |pos| {
            let mut m = branchy_module();
            let out = compile(
                &mut m,
                &PipelineOptions {
                    transform: Transform::Uu {
                        factor: 2,
                        unmerge: UnmergeOptions::default(),
                    },
                    position: pos,
                    ..Default::default()
                },
            );
            assert_eq!(out.verify_error, None, "position {pos:?}");
            let f = m.function(uu_ir::FuncId::from_index(0));
            f.iter_insts()
                .filter(|(_, i)| matches!(i.kind, uu_ir::InstKind::Select { .. }))
                .count()
        };
        let early = run(PassPosition::Early);
        let late = run(PassPosition::Late);
        // Early u&u pre-empts predication and specializes the paths (no
        // selects); placed late, the body was already if-converted, so the
        // duplication finds nothing to unmerge and the selects survive —
        // the pass is ineffective.
        assert_eq!(early, 0, "early u&u must remove all predication");
        assert!(late > 0, "late u&u leaves the baseline's selects in place");
    }

    #[test]
    fn timings_are_recorded() {
        let mut m = branchy_module();
        let out = compile(&mut m, &PipelineOptions::default());
        assert!(out.timings.iter().any(|t| t.name == "sccp"));
        assert!(out.timings.iter().any(|t| t.name == "gvn"));
        assert!(out.total >= out.time_of("sccp"));
    }

    #[test]
    fn compile_work_is_deterministic() {
        // The modeled compile clock must be a pure function of the input;
        // wall clock is diagnostics only.
        let run = |transform: Transform| {
            let mut m = branchy_module();
            let out = compile(
                &mut m,
                &PipelineOptions {
                    transform,
                    ..Default::default()
                },
            );
            (out.work, out.timed_out)
        };
        for transform in [
            Transform::Baseline,
            Transform::Uu {
                factor: 4,
                unmerge: UnmergeOptions::default(),
            },
        ] {
            let a = run(transform.clone());
            let b = run(transform);
            assert_eq!(a, b);
            assert!(a.0 > 0, "compiling must cost work");
        }
    }

    #[test]
    fn work_budget_timeout_fires_deterministically() {
        // A one-work-unit budget trips on the first pass, every time,
        // independent of machine speed — and leaves valid IR behind.
        let run = || {
            let mut m = branchy_module();
            let out = compile(
                &mut m,
                &PipelineOptions {
                    timeout: Some(Duration::from_nanos(1)),
                    ..Default::default()
                },
            );
            assert_eq!(out.verify_error, None);
            (out.timed_out, out.work)
        };
        let a = run();
        let b = run();
        assert!(a.0, "tiny budget must time out");
        assert_eq!(a, b);
    }

    #[test]
    fn injected_panic_is_contained_and_rolled_back() {
        use crate::recover::{FaultKind, FaultPlan};
        // Panic the very first pass invocation (the uu transform): the
        // compile must finish on the no-transform rung with valid IR
        // identical in spirit to a baseline compile.
        let mut m = branchy_module();
        let out = compile(
            &mut m,
            &PipelineOptions {
                transform: Transform::Uu {
                    factor: 2,
                    unmerge: UnmergeOptions::default(),
                },
                fault: Some(FaultPlan { kind: FaultKind::Panic, at: 0, seed: 0 }),
                ..Default::default()
            },
        );
        assert_eq!(out.verify_error, None);
        assert_eq!(out.rung, crate::recover::Rung::NoTransform);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].pass, "uu");
        assert!(matches!(out.failures[0].reason, FailureReason::Panic(_)));
        assert!(out.failures[0].rolled_back);
        // The u&u never survived, so the baseline's predication remains.
        let f = m.function(uu_ir::FuncId::from_index(0));
        let selects = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, uu_ir::InstKind::Select { .. }))
            .count();
        assert!(selects >= 1, "rolled-back u&u must leave the baseline result");
    }

    /// `branchy_module` with the diamond condition derived from
    /// `threadIdx.x`, so the meld pass has a divergent diamond to chew on.
    fn divergent_branchy_module() -> Module {
        let mut f = uu_ir::Function::new("k", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let t = b.create_block();
        let a1 = b.create_block();
        let a2 = b.create_block();
        let m = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        let tid = b.thread_idx();
        let tid64 = b.cast(uu_ir::CastOp::Sext, tid, Type::I64);
        let bit = b.and(tid64, Value::imm(1i64));
        let odd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, t, exit);
        b.switch_to(t);
        b.cond_br(odd, a1, a2);
        b.switch_to(a1);
        let x2 = b.mul(i, Value::imm(2i64));
        b.br(m);
        b.switch_to(a2);
        let x3 = b.mul(i, Value::imm(3i64));
        b.br(m);
        b.switch_to(m);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, a1, x2);
        b.add_phi_incoming(p, a2, x3);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, m, i1);
        let _ = p;
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut m_ = Module::new("t");
        m_.add_function(f);
        m_
    }

    #[test]
    fn meld_config_compiles_the_divergent_diamond_cleanly() {
        let mut m = divergent_branchy_module();
        let out = compile(
            &mut m,
            &PipelineOptions {
                transform: Transform::Meld,
                ..Default::default()
            },
        );
        assert_eq!(out.verify_error, None);
        assert_eq!(out.rung, crate::recover::Rung::Full, "{}", out.failure_summary());
        assert!(out.pass_log.iter().any(|p| p.pass == "meld"));
    }

    #[test]
    fn injected_meld_panic_degrades_to_no_transform() {
        use crate::recover::{FaultKind, FaultPlan};
        // Under uu+meld, invocation 0 is the uu step and invocation 1 the
        // meld step. Panicking the meld must roll back to the u&u result
        // and land the compile on the no-transform rung ("the measured
        // transform did not fully run"), with valid IR.
        let mut m = divergent_branchy_module();
        let out = compile(
            &mut m,
            &PipelineOptions {
                transform: Transform::UuMeld {
                    factor: 2,
                    unmerge: UnmergeOptions::default(),
                },
                fault: Some(FaultPlan { kind: FaultKind::Panic, at: 1, seed: 0 }),
                ..Default::default()
            },
        );
        assert_eq!(out.verify_error, None);
        assert_eq!(out.rung, crate::recover::Rung::NoTransform);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].pass, "meld");
        assert!(out.failures[0].rolled_back);
    }

    #[test]
    fn injected_corruption_is_caught_by_the_verifier_and_rolled_back() {
        use crate::recover::{FaultKind, FaultPlan};
        for at in [0u64, 2, 5] {
            let mut m = branchy_module();
            let out = compile(
                &mut m,
                &PipelineOptions {
                    transform: Transform::Uu {
                        factor: 2,
                        unmerge: UnmergeOptions::default(),
                    },
                    fault: Some(FaultPlan { kind: FaultKind::Corrupt, at, seed: at }),
                    ..Default::default()
                },
            );
            assert_eq!(out.verify_error, None, "at {at}");
            assert_eq!(out.failures.len(), 1, "at {at}");
            assert!(
                matches!(out.failures[0].reason, FailureReason::Verifier(_)),
                "at {at}: {}",
                out.failure_summary()
            );
        }
    }

    #[test]
    fn injected_exhaustion_times_out_without_failing_the_compile() {
        use crate::recover::{FaultKind, FaultPlan};
        let mut m = branchy_module();
        let out = compile(
            &mut m,
            &PipelineOptions {
                fault: Some(FaultPlan { kind: FaultKind::Exhaust, at: 1, seed: 0 }),
                ..Default::default()
            },
        );
        assert!(out.timed_out, "injected exhaustion must trip the budget");
        assert_eq!(out.verify_error, None, "exhaustion leaves valid IR");
        assert_eq!(out.rung, crate::recover::Rung::Full);
        assert!(out
            .failures
            .iter()
            .any(|f| matches!(f.reason, FailureReason::Budget(_))));
    }

    #[test]
    fn unverifiable_module_is_restored_from_the_per_function_originals() {
        // `bad` returns nothing from an i64 function: no pass changes it, so
        // no per-invocation check sees it, and the whole-module verdict
        // lands the compile on the last rung. The restore must undo the
        // optimisation of `k` too — when its original was cloned (memo
        // miss) and when it was moved out by a memo hit.
        let build = || {
            let mut m = branchy_module();
            let mut bad = uu_ir::Function::new("bad", vec![], Type::I64);
            let entry = bad.entry();
            let mut b = FunctionBuilder::new(&mut bad);
            b.switch_to(entry);
            b.ret(None);
            m.add_function(bad);
            m
        };
        let input = build().to_string();
        crate::compile_memo_clear();
        for (round, hits) in [("miss", 0), ("hit", 2)] {
            let mut m = build();
            let out = compile(&mut m, &PipelineOptions::default());
            assert_eq!(crate::compile_memo_stats().0, hits, "{round}");
            assert_eq!(out.rung, Rung::Unoptimized, "{round}");
            assert_eq!(out.failures.last().unwrap().pass, "module-verify", "{round}");
            assert!(out.verify_error.is_some(), "{round}: the input itself is invalid");
            assert_eq!(m.to_string(), input, "{round}: input not restored verbatim");
        }
    }

    #[test]
    fn settled_passes_do_not_carry_over_to_the_next_function() {
        // Two equal functions under `LoopFilter::All`: what settled on the
        // first must not elide anything on the second, so both compile to
        // what each compiles to alone.
        let uu2 = PipelineOptions {
            transform: Transform::Uu {
                factor: 2,
                unmerge: UnmergeOptions::default(),
            },
            ..Default::default()
        };
        let mut alone = branchy_module();
        compile(&mut alone, &uu2);
        let alone = alone.function(FuncId::from_index(0)).to_string();
        let mut twice = branchy_module();
        twice.add_function(branchy_module().function(FuncId::from_index(0)).clone());
        let (elided, _) = pass_elision_stats();
        let out = compile(&mut twice, &uu2);
        assert!(pass_elision_stats().0 > elided, "nothing settled, nothing tested");
        assert_eq!(out.pass_log.iter().filter(|p| p.pass == "uu").count(), 2);
        for (_, f) in twice.iter() {
            assert_eq!(f.to_string(), alone);
        }
    }

    #[test]
    fn bisect_limit_prefixes_are_stable() {
        // Invocation i must behave identically under every limit > i: the
        // pass log under limit k is exactly the first k entries of the
        // full log.
        let full = {
            let mut m = branchy_module();
            compile(
                &mut m,
                &PipelineOptions {
                    transform: Transform::Uu {
                        factor: 2,
                        unmerge: UnmergeOptions::default(),
                    },
                    ..Default::default()
                },
            )
            .pass_log
        };
        assert!(full.len() > 4, "expected a multi-pass pipeline");
        for k in [0usize, 1, 3, full.len() - 1] {
            let mut m = branchy_module();
            let out = compile(
                &mut m,
                &PipelineOptions {
                    transform: Transform::Uu {
                        factor: 2,
                        unmerge: UnmergeOptions::default(),
                    },
                    bisect_limit: Some(k as u64),
                    ..Default::default()
                },
            );
            assert_eq!(out.verify_error, None, "limit {k}");
            assert_eq!(&out.pass_log[..], &full[..k], "limit {k}");
        }
    }

    #[test]
    fn zero_bisect_limit_is_the_identity_compile() {
        let mut m = branchy_module();
        let before = format!("{}", m.function(uu_ir::FuncId::from_index(0)));
        let out = compile(
            &mut m,
            &PipelineOptions {
                bisect_limit: Some(0),
                ..Default::default()
            },
        );
        assert_eq!(out.work, 0);
        assert!(out.pass_log.is_empty());
        let after = format!("{}", m.function(uu_ir::FuncId::from_index(0)));
        assert_eq!(before, after, "limit 0 must not touch the module");
    }

    #[test]
    fn pipeline_fingerprint_is_stable_and_sensitive() {
        let base = pipeline_fingerprint();
        assert_eq!(base, fingerprint_of(PIPELINE_SCHEMA_VERSION, PASS_VERSIONS));

        // Bumping any pass version must invalidate the fingerprint.
        for i in 0..PASS_VERSIONS.len() {
            let mut v = PASS_VERSIONS.to_vec();
            v[i].1 += 1;
            assert_ne!(
                fingerprint_of(PIPELINE_SCHEMA_VERSION, &v),
                base,
                "version bump of {} must change the fingerprint",
                PASS_VERSIONS[i].0
            );
        }
        // So must removing, adding or renaming a pass, or a schema bump.
        assert_ne!(fingerprint_of(PIPELINE_SCHEMA_VERSION, &PASS_VERSIONS[1..]), base);
        let mut added = PASS_VERSIONS.to_vec();
        added.push(("newpass", 1));
        assert_ne!(fingerprint_of(PIPELINE_SCHEMA_VERSION, &added), base);
        let mut renamed = PASS_VERSIONS.to_vec();
        renamed[0].0 = "renamed";
        assert_ne!(fingerprint_of(PIPELINE_SCHEMA_VERSION, &renamed), base);
        assert_ne!(fingerprint_of(PIPELINE_SCHEMA_VERSION + 1, PASS_VERSIONS), base);
        // The name/version separator prevents adjacent-field aliasing.
        assert_ne!(
            fingerprint_of(1, &[("ab", 1), ("c", 1)]),
            fingerprint_of(1, &[("a", 1), ("bc", 1)])
        );
    }
}
