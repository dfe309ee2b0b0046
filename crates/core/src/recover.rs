//! Crash recovery and deterministic fault injection for the pipeline.
//!
//! The paper's experiment is a large product space — 16 kernels × every
//! loop × every configuration — pushed through an aggressive pass stack.
//! Chained loop transformations composing into invalid IR is a known
//! failure mode of exactly this kind of pipeline (Kruse & Finkel's loop
//! framework survey), and LLVM answers it operationally with
//! `CrashRecoveryContext` and `-opt-bisect-limit`. This module provides
//! the native equivalents:
//!
//! * [`PassFailure`] — the structured diagnostic recorded when a guarded
//!   pass invocation panics or produces verifier-rejected IR; the function
//!   is rolled back to its pre-pass snapshot and compilation continues;
//! * [`Rung`] — the degradation ladder a compile walks instead of
//!   aborting: full config → offending pass dropped → transform abandoned
//!   (the config retried as baseline `-O3`) → unoptimized input IR;
//! * [`FaultPlan`] — a seeded, deterministic fault-injection plan
//!   (`UU_FAULT=<kind>@<index>[:<seed>]`) that exercises every recovery
//!   path reproducibly: injected pass panics, verifier-detectable IR
//!   corruption, silent miscompiles (for bisection tests), work-budget
//!   exhaustion, and simulator memory faults.
//!
//! Every recovery decision is a pure function of the input module, the
//! options and the plan — never of wall-clock time or worker count — so
//! sweep reports stay byte-identical under `UU_JOBS=1` and `UU_JOBS=4`
//! even while faults are being injected.

use std::sync::Arc;
use uu_ir::{BinOp, Function, ICmpPred, Inst, InstKind, Type};

/// Which fault a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the targeted pass invocation (exercises
    /// `catch_unwind` + rollback).
    Panic,
    /// Verifier-detectable IR corruption after the targeted pass
    /// (exercises post-pass verification + rollback).
    Corrupt,
    /// A verifier-clean but semantics-changing IR mutation after the
    /// targeted pass — a synthetic miscompile, the target the opt-bisect
    /// machinery must pinpoint.
    Miscompile,
    /// Work-budget exhaustion at the targeted pass (exercises the
    /// deterministic-timeout path).
    Exhaust,
    /// A device-memory fault after `at` kernel memory accesses. Ignored
    /// by the pipeline; consumed by the harness, which arms
    /// `uu_simt::GlobalMemory::inject_fault_after`.
    Mem,
}

impl FaultKind {
    /// The spec-grammar keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Miscompile => "miscompile",
            FaultKind::Exhaust => "exhaust",
            FaultKind::Mem => "mem",
        }
    }
}

/// A deterministic fault-injection plan.
///
/// Spec grammar (the value of the binaries' `UU_FAULT` knob):
///
/// ```text
/// <kind>@<index>[:<seed>]
/// kind  := panic | corrupt | miscompile | exhaust | mem
/// index := pass-invocation index within each compile (decimal),
///          or the kernel memory-access index for `mem`
/// seed  := u64 (decimal or 0x-hex) driving mutation-site selection;
///          defaults to 0
/// ```
///
/// The index counts guarded pass invocations *within one compile*, always
/// starting at zero, so the same plan fires at the same point of every
/// (kernel, loop, config) compile regardless of execution order — the
/// property that keeps fault-injected sweeps byte-identical across worker
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to inject.
    pub kind: FaultKind,
    /// Pass-invocation index (or memory-access index for
    /// [`FaultKind::Mem`]) at which the fault fires.
    pub at: u64,
    /// Seed selecting the mutation site for `corrupt` / `miscompile`.
    pub seed: u64,
}

impl FaultPlan {
    /// Parse a spec string (see the type-level grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (kind_s, at, seed) = split_fault_spec(spec)?;
        let kind = match kind_s {
            "panic" => FaultKind::Panic,
            "corrupt" => FaultKind::Corrupt,
            "miscompile" => FaultKind::Miscompile,
            "exhaust" => FaultKind::Exhaust,
            "mem" => FaultKind::Mem,
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (expected panic|corrupt|miscompile|exhaust|mem)"
                ))
            }
        };
        Ok(FaultPlan { kind, at, seed })
    }

    /// Render the plan back in spec-grammar form.
    pub fn spec(&self) -> String {
        if self.seed == 0 {
            format!("{}@{}", self.kind.as_str(), self.at)
        } else {
            format!("{}@{}:{:#x}", self.kind.as_str(), self.at, self.seed)
        }
    }
}

/// Split one `<kind>@<index>[:<seed>]` fault spec into its kind keyword,
/// decimal u64 index and u64 seed (decimal or 0x-hex, defaulting to 0):
/// the grammar of [`FaultPlan::parse`], which maps the keyword onto
/// [`FaultKind`].
fn split_fault_spec(spec: &str) -> Result<(&str, u64, u64), String> {
    let s = spec.trim();
    let (kind, rest) = s
        .split_once('@')
        .ok_or_else(|| format!("fault spec `{s}` is missing `@<index>`"))?;
    let (at_s, seed_s) = match rest.split_once(':') {
        Some((a, b)) => (a, Some(b)),
        None => (rest, None),
    };
    let at = at_s
        .parse::<u64>()
        .map_err(|_| format!("fault index `{at_s}` is not a u64"))?;
    let seed = match seed_s {
        None => 0,
        Some(t) => match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => t.parse::<u64>(),
        }
        .map_err(|_| format!("fault seed `{t}` is not a u64"))?,
    };
    Ok((kind, at, seed))
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec())
    }
}

/// Why a guarded pass invocation was rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// The pass panicked; the payload message is preserved.
    Panic(String),
    /// The pass completed but left verifier-rejected IR.
    Verifier(String),
    /// The compile's work budget was exhausted at this pass (injected or
    /// organic); the IR is valid but later passes did not run.
    Budget(String),
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Only the first line: verifier reports are multi-line, and these
        // strings end up in single-line report rows.
        let (tag, msg) = match self {
            FailureReason::Panic(m) => ("panic", m),
            FailureReason::Verifier(m) => ("verifier", m),
            FailureReason::Budget(m) => ("budget", m),
        };
        write!(f, "{tag}: {}", msg.lines().next().unwrap_or(""))
    }
}

/// The structured diagnostic for one contained pass failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassFailure {
    /// Pass name (as in [`crate::pipeline::PassTiming`]).
    pub pass: &'static str,
    /// Pass-invocation index within the compile (the opt-bisect counter).
    pub index: u64,
    /// Function being processed.
    pub function: String,
    /// What went wrong.
    pub reason: FailureReason,
    /// Whether the function was rolled back to its pre-pass snapshot
    /// (false only for budget exhaustion, which leaves valid IR behind).
    pub rolled_back: bool,
}

impl std::fmt::Display for PassFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}#{}@{}: {}{}",
            self.pass,
            self.index,
            self.function,
            self.reason,
            if self.rolled_back { " [rolled back]" } else { "" }
        )
    }
}

/// One executed pass invocation (the opt-bisect log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassInvocation {
    /// Invocation index (stable across bisect limits: invocation `i`
    /// depends only on invocations `< i`).
    pub index: u64,
    /// Pass name.
    pub pass: &'static str,
    /// Function processed: its log run's name, shared by every entry the
    /// run yields (see [`PassLog`]).
    pub function: Arc<str>,
}

impl std::fmt::Display for PassInvocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}@{}", self.pass, self.index, self.function)
    }
}

/// A compile's opt-bisect log: its executed pass invocations, in order.
///
/// A bisect limit cuts the invocations off and never thins them, so entry
/// `i` is invocation `i` and the log stores no index. It holds one run per
/// stretch of invocations over one function; a memo replay appends the
/// memo entry's run, shared rather than copied, so replaying a function
/// costs one push whatever its number of invocations. [`PassLog::iter`]
/// yields the entries as [`PassInvocation`]s, and `Debug` prints the list
/// a `Vec<PassInvocation>` of them prints.
#[derive(Clone, Default)]
pub struct PassLog {
    runs: Vec<(Arc<str>, Passes)>,
    len: usize,
}

/// The passes of one run of a [`PassLog`].
#[derive(Clone)]
enum Passes {
    /// Invocations executed by this compile.
    Own(Vec<&'static str>),
    /// A memoised run, shared with the memo entry it was replayed from.
    Shared(Arc<[&'static str]>),
}

impl Passes {
    fn as_slice(&self) -> &[&'static str] {
        match self {
            Passes::Own(passes) => passes,
            Passes::Shared(passes) => passes,
        }
    }
}

impl PassLog {
    /// The number of logged invocations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no invocation was logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The logged invocations, in order.
    pub fn iter(&self) -> impl Iterator<Item = PassInvocation> + '_ {
        self.runs
            .iter()
            .flat_map(|(function, passes)| {
                passes.as_slice().iter().map(move |&pass| (function, pass))
            })
            .enumerate()
            .map(|(index, (function, pass))| PassInvocation {
                index: index as u64,
                pass,
                function: Arc::clone(function),
            })
    }

    /// The number of runs the log holds.
    #[cfg(test)]
    pub(crate) fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// The logged invocations as a list.
    pub fn to_vec(&self) -> Vec<PassInvocation> {
        self.iter().collect()
    }

    /// Log invocation `index` of `pass` over the function named `function`.
    pub(crate) fn push(&mut self, index: u64, pass: &'static str, function: &str) {
        debug_assert_eq!(index, self.len as u64, "the log is a prefix of the invocations");
        self.len += 1;
        match self.runs.last_mut() {
            Some((name, Passes::Own(passes))) if **name == *function => passes.push(pass),
            last => {
                let name = match last {
                    Some((name, _)) if **name == *function => Arc::clone(name),
                    _ => Arc::from(function),
                };
                self.runs.push((name, Passes::Own(vec![pass])));
            }
        }
    }

    /// Log a memoised run over the function named `function`, starting at
    /// invocation `index`.
    pub(crate) fn push_shared(
        &mut self,
        index: u64,
        function: &Arc<str>,
        passes: &Arc<[&'static str]>,
    ) {
        debug_assert_eq!(index, self.len as u64, "the log is a prefix of the invocations");
        self.len += passes.len();
        self.runs.push((Arc::clone(function), Passes::Shared(Arc::clone(passes))));
    }
}

impl std::fmt::Debug for PassLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The degradation ladder: which rung a compile landed on instead of
/// aborting. Ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The requested configuration ran cleanly.
    Full,
    /// At least one cleanup/baseline pass panicked or mis-verified; it was
    /// rolled back and dropped, the transform survived.
    DroppedPass,
    /// The transform pass itself failed and was rolled back: the config
    /// effectively retried without u&u, i.e. as the baseline `-O3`
    /// pipeline (possibly with further cleanup passes dropped).
    NoTransform,
    /// Even the recovered module failed whole-module verification; the
    /// input IR was restored verbatim and nothing was optimized.
    Unoptimized,
}

impl Rung {
    /// Every rung, best to worst — the indexing base for per-rung stats.
    pub const ALL: [Rung; 4] = [
        Rung::Full,
        Rung::DroppedPass,
        Rung::NoTransform,
        Rung::Unoptimized,
    ];

    /// Stable report label.
    pub fn as_str(&self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::DroppedPass => "dropped-pass",
            Rung::NoTransform => "no-transform",
            Rung::Unoptimized => "unoptimized",
        }
    }

    /// Parse an [`as_str`](Rung::as_str) label back — the disk round-trip
    /// for cached compile artifacts.
    pub fn from_str(s: &str) -> Option<Rung> {
        Rung::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Position in [`Rung::ALL`] (0 = full ... 3 = unoptimized).
    pub fn index(&self) -> usize {
        Rung::ALL.iter().position(|r| r == self).unwrap_or(0)
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One SplitMix64 step — the workspace's standard seed mixer, reproduced
/// here so `uu-core` stays dependency-free on `uu-check`.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Corrupt `f` in a verifier-detectable way: append a second terminator
/// to a seed-chosen linked block, violating the "exactly one terminator,
/// at the end" invariant. Returns whether a mutation was applied.
pub fn corrupt_function(f: &mut Function, seed: u64) -> bool {
    let layout: Vec<_> = f.layout().to_vec();
    if layout.is_empty() {
        return false;
    }
    let victim = layout[(mix(seed) % layout.len() as u64) as usize];
    if f.block(victim).insts.is_empty() {
        return false;
    }
    let inst = Inst::new(InstKind::Br { target: victim }, Type::Void);
    f.append_inst(victim, inst);
    true
}

/// Mutate `f` in a verifier-clean but semantics-changing way — a
/// synthetic miscompile. Prefers flipping a seed-chosen signed `<` compare
/// to `<=` (changes trip counts while preserving termination); falls back
/// to turning an `add` into a `sub`. Returns whether a mutation was
/// applied (a function with neither site is left untouched).
pub fn miscompile_function(f: &mut Function, seed: u64) -> bool {
    let mut icmps = Vec::new();
    let mut adds = Vec::new();
    for &b in f.layout() {
        for &id in &f.block(b).insts {
            match &f.inst(id).kind {
                InstKind::ICmp {
                    pred: ICmpPred::Slt,
                    ..
                } => icmps.push(id),
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs,
                    rhs,
                } if lhs != rhs => adds.push(id),
                _ => {}
            }
        }
    }
    if !icmps.is_empty() {
        let id = icmps[(mix(seed) % icmps.len() as u64) as usize];
        if let InstKind::ICmp { pred, .. } = &mut f.inst_mut(id).kind {
            *pred = ICmpPred::Sle;
        }
        return true;
    }
    if !adds.is_empty() {
        let id = adds[(mix(seed) % adds.len() as u64) as usize];
        if let InstKind::Bin { op, .. } = &mut f.inst_mut(id).kind {
            *op = BinOp::Sub;
        }
        return true;
    }
    false
}

/// Convert a `catch_unwind` payload into a printable message.
pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, Param, Value};

    fn small_loop() -> Function {
        let mut f = Function::new("k", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i));
        f
    }

    #[test]
    fn spec_grammar_round_trips() {
        for s in ["panic@3", "corrupt@0", "miscompile@12:0x5eed", "exhaust@7", "mem@40"] {
            let p = FaultPlan::parse(s).unwrap();
            assert_eq!(FaultPlan::parse(&p.spec()).unwrap(), p, "{s}");
        }
        assert_eq!(
            FaultPlan::parse("panic@3:17").unwrap(),
            FaultPlan { kind: FaultKind::Panic, at: 3, seed: 17 }
        );
    }

    #[test]
    fn at_seed_tail_parses_decimal_and_hex() {
        assert_eq!(split_fault_spec("k@3").unwrap(), ("k", 3, 0));
        assert_eq!(split_fault_spec(" k@3:17 ").unwrap(), ("k", 3, 17));
        assert_eq!(split_fault_spec("k-2@0:0x5eed").unwrap(), ("k-2", 0, 0x5eed));
        for bad in ["k", "k@", "k@x", "k@3:", "k@3:zz", "k@-1"] {
            assert!(split_fault_spec(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for s in ["panic", "panic@", "panic@x", "frobnicate@3", "panic@3:zz", ""] {
            assert!(FaultPlan::parse(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn corruption_is_verifier_detectable() {
        for seed in 0..8 {
            let mut f = small_loop();
            uu_ir::verify_function(&f).unwrap();
            assert!(corrupt_function(&mut f, seed));
            assert!(
                uu_ir::verify_function(&f).is_err(),
                "seed {seed}: corruption must not be verifier-clean"
            );
        }
    }

    #[test]
    fn miscompile_is_verifier_clean_but_changes_semantics() {
        for seed in 0..8 {
            let mut f = small_loop();
            assert!(miscompile_function(&mut f, seed));
            uu_ir::verify_function(&f)
                .unwrap_or_else(|e| panic!("seed {seed}: miscompile must stay clean: {e}"));
            // The only Slt in the loop guard became Sle.
            let sle = f
                .iter_insts()
                .filter(|(_, i)| {
                    matches!(i.kind, InstKind::ICmp { pred: ICmpPred::Sle, .. })
                })
                .count();
            assert_eq!(sle, 1, "seed {seed}");
        }
    }
}
