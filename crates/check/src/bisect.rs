//! Opt-bisect: given an oracle-detected miscompile, binary-search the
//! pass-invocation counter to the first bad pass and emit a replayable
//! crash-report artifact.
//!
//! This is the native equivalent of LLVM's `-opt-bisect-limit` workflow.
//! The pipeline numbers every pass invocation with a stable counter and
//! skips invocations at indices `>= limit` (see
//! [`uu_core::PipelineOptions::bisect_limit`]); because invocation `i`
//! depends only on invocations `< i`, the predicate "compiling with limit
//! `k` reproduces the failure" is evaluated by recompiling from scratch at
//! each probe, and a standard binary search over `k` lands on the first
//! invocation whose inclusion flips the compile from good to bad — in at
//! most ⌈log₂ n⌉ + 1 recompiles for an n-invocation pipeline.
//!
//! The resulting [`BisectReport`] carries the offending
//! [`PassInvocation`], the IR snapshot from *just before* that pass (the
//! minimized repro), and the spec + configuration needed to replay the
//! failure; [`write_crash_report`] persists it atomically under
//! `crash-reports/` (override with `UU_CRASH_DIR`).

use crate::oracle::{build_kernel, execute, KernelSpec};
use std::path::PathBuf;
use uu_core::{compile, FaultPlan, LoopFilter, PassInvocation, PipelineOptions, Transform};
use uu_ir::Module;

/// The outcome of one bisection run.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// The first pass invocation whose inclusion makes the compile bad.
    pub first_bad: PassInvocation,
    /// Total pass invocations in the full (unlimited) compile.
    pub total_invocations: u64,
    /// Recompiles spent by the binary search (excluding the initial full
    /// compile that sized the search space); always ≤ ⌈log₂ n⌉ + 1.
    pub recompiles: u32,
    /// Printed IR of the module just before the first bad pass ran — the
    /// minimized repro input.
    pub pre_pass_ir: String,
    /// The diagnosis of the full (bad) compile.
    pub diagnosis: String,
    /// The failing configuration.
    pub transform: Transform,
    /// The spec that exposed the failure (corpus `.seed` format via
    /// `Display`).
    pub spec: KernelSpec,
    /// The fault plan in effect, if the failure was injected.
    pub fault: Option<FaultPlan>,
}

impl std::fmt::Display for BisectReport {
    /// The crash-report artifact format: a self-contained, replayable
    /// description of the failure.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# uu crash report")?;
        writeln!(f, "first-bad-pass = {}#{}@{}", self.first_bad.pass, self.first_bad.index, self.first_bad.function)?;
        writeln!(f, "total-invocations = {}", self.total_invocations)?;
        writeln!(f, "bisect-recompiles = {}", self.recompiles)?;
        writeln!(f, "transform = {:?}", self.transform)?;
        match &self.fault {
            Some(p) => writeln!(f, "fault = {p}")?,
            None => writeln!(f, "fault = none")?,
        }
        writeln!(f, "\n## diagnosis\n{}", self.diagnosis)?;
        writeln!(f, "\n## spec (corpus .seed format — replay with uu-fuzz corpus)\n{}", self.spec)?;
        writeln!(f, "\n## pre-pass IR (module before the first bad pass)\n{}", self.pre_pass_ir)
    }
}

/// The bad-compile predicate: compile `spec` under `transform` with the
/// given bisect `limit` and report the failure diagnosis (`None` = clean).
fn probe(
    spec: &KernelSpec,
    transform: &Transform,
    fault: Option<FaultPlan>,
    limit: Option<u64>,
    golden: &[i64],
) -> (Option<String>, Module, Vec<PassInvocation>) {
    let mut m = Module::new("bisect");
    let id = m.add_function(build_kernel(spec));
    let out = compile(
        &mut m,
        &PipelineOptions {
            transform: transform.clone(),
            filter: LoopFilter::All,
            fault,
            bisect_limit: limit,
            ..Default::default()
        },
    );
    let diag = if let Some(e) = &out.verify_error {
        Some(format!("invalid IR: {e}"))
    } else {
        match execute(m.function(id), spec) {
            Err(e) => Some(e),
            Ok(got) if got != golden => {
                Some(format!("diverged\n  want: {golden:?}\n  got:  {got:?}"))
            }
            Ok(_) => None,
        }
    };
    (diag, m, out.pass_log)
}

/// Bisect an oracle-detected failure of `transform` on `spec` down to the
/// first bad pass invocation.
///
/// # Errors
///
/// Returns a diagnosis string when the premise does not hold — the full
/// compile is actually clean (nothing to bisect), the raw kernel itself
/// fails (generator bug), or the failure fires even with every pass
/// disabled.
pub fn bisect(
    spec: &KernelSpec,
    transform: &Transform,
    fault: Option<FaultPlan>,
) -> Result<BisectReport, String> {
    let kernel = build_kernel(spec);
    let golden = execute(&kernel, spec).map_err(|e| format!("raw kernel fails: {e}"))?;

    // Size the search space with one full compile and confirm it is bad.
    let (full_diag, _, full_log) = probe(spec, transform, fault, None, &golden);
    let diagnosis = full_diag.ok_or("full compile is clean; nothing to bisect")?;
    let n = full_log.len() as u64;
    if n == 0 {
        return Err("full compile ran no passes yet failed".into());
    }
    // Invariant: limit `lo` is good, limit `hi` is bad.
    let (mut lo, mut hi) = (0u64, n);
    let mut recompiles = 0u32;
    let (zero_diag, _, _) = probe(spec, transform, fault, Some(0), &golden);
    recompiles += 1;
    if let Some(d) = zero_diag {
        return Err(format!("failure persists with all passes disabled: {d}"));
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (diag, _, _) = probe(spec, transform, fault, Some(mid), &golden);
        recompiles += 1;
        if diag.is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // The first bad invocation is the one limit `hi` enables and limit
    // `lo = hi - 1` excludes: index hi - 1. Its pre-pass IR is the module
    // compiled with exactly the passes before it.
    let first_bad = full_log[(hi - 1) as usize].clone();
    let (_, pre_module, _) = probe(spec, transform, fault, Some(hi - 1), &golden);
    Ok(BisectReport {
        first_bad,
        total_invocations: n,
        recompiles,
        pre_pass_ir: pre_module.to_string(),
        diagnosis,
        transform: transform.clone(),
        spec: spec.clone(),
        fault,
    })
}

/// Directory crash reports are written to: `UU_CRASH_DIR` if set, else
/// `crash-reports/` under the current directory.
pub fn crash_dir() -> PathBuf {
    std::env::var_os("UU_CRASH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("crash-reports"))
}

/// Persist a crash report atomically (temp file + rename) under
/// [`crash_dir`], named by a stable content hash so identical failures
/// dedupe. Returns the final path.
///
/// # Errors
///
/// Propagates I/O errors (unwritable dir, full disk) as strings.
pub fn write_crash_report(report: &BisectReport) -> Result<PathBuf, String> {
    let dir = crash_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let body = report.to_string();
    let identity = format!("{}\n{:?}\n{:?}", report.spec, report.transform, report.fault);
    let name = format!("crash-{:016x}.txt", uu_ir::fnv1a(identity.as_bytes()));
    let path = dir.join(&name);
    let tmp = dir.join(format!(".{name}.tmp"));
    std::fs::write(&tmp, &body).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_core::FaultKind;

    fn spec() -> KernelSpec {
        KernelSpec {
            bound: 6,
            straight_ops: vec![(0, 0, 1), (2, 1, 3)],
            arm_ops: vec![(1, 0, 2)],
            else_ops: vec![(0, 1, 1)],
            cond_sel: 1,
            divergent: true,
            input_a: 3,
            inner_trip: 0,
        }
    }

    #[test]
    fn bisection_pinpoints_injected_miscompile_within_log_bound() {
        let transform = Transform::Uu {
            factor: 2,
            unmerge: Default::default(),
        };
        // Probe a few injection points; not every index produces an
        // observable divergence (the mutation may hit dead code), so
        // assert on the ones that do — and require at least one to.
        let mut exercised = 0;
        for at in 0..8u64 {
            let fault = Some(FaultPlan {
                kind: FaultKind::Miscompile,
                at,
                seed: at.wrapping_mul(0x9E37),
            });
            let Ok(report) = bisect(&spec(), &transform, fault) else {
                continue; // this injection point was not observable
            };
            exercised += 1;
            assert_eq!(
                report.first_bad.index, at,
                "bisection must land exactly on the injected pass"
            );
            let n = report.total_invocations;
            let bound = 64 - u64::leading_zeros(n.max(1)) + 1; // ⌈log₂ n⌉ + 1
            assert!(
                report.recompiles <= bound,
                "{} recompiles for n={n} (bound {bound})",
                report.recompiles
            );
            assert!(!report.pre_pass_ir.is_empty());
            assert!(report.diagnosis.contains("diverged") || report.diagnosis.contains("fail"));
        }
        assert!(exercised >= 2, "expected ≥2 observable injection points, got {exercised}");
    }

    #[test]
    fn bisection_pinpoints_miscompiles_in_the_meld_pass() {
        // The combined uu+meld config runs "uu" as invocation 0 and "meld"
        // as invocation 1; a miscompile injected into the meld invocation
        // must bisect back to the meld pass by name, exactly like any
        // other transform. Not every seed produces an observable mutation,
        // so probe a few and require at least one hit.
        let transform = Transform::UuMeld {
            factor: 2,
            unmerge: Default::default(),
        };
        let mut meld_hits = 0;
        for seed in [7u64, 0x9E37, 0xBEEF, 0x1234, 0xFEED5] {
            let fault = Some(FaultPlan {
                kind: FaultKind::Miscompile,
                at: 1,
                seed,
            });
            let Ok(report) = bisect(&spec(), &transform, fault) else {
                continue;
            };
            assert_eq!(report.first_bad.index, 1);
            assert_eq!(
                report.first_bad.pass, "meld",
                "invocation 1 under uu+meld must be the meld pass"
            );
            meld_hits += 1;
        }
        assert!(
            meld_hits >= 1,
            "no seed produced an observable meld miscompile"
        );
    }

    #[test]
    fn clean_compiles_refuse_to_bisect() {
        let transform = Transform::Baseline;
        let err = bisect(&spec(), &transform, None).unwrap_err();
        assert!(err.contains("clean"), "{err}");
    }

    #[test]
    fn crash_report_is_replayable_and_atomic() {
        let transform = Transform::Uu {
            factor: 2,
            unmerge: Default::default(),
        };
        let mut report = None;
        for at in 0..8u64 {
            let fault = Some(FaultPlan { kind: FaultKind::Miscompile, at, seed: 7 });
            if let Ok(r) = bisect(&spec(), &transform, fault) {
                report = Some(r);
                break;
            }
        }
        let report = report.expect("no observable injection point");
        let dir = std::env::temp_dir().join(format!("uu-crash-test-{}", std::process::id()));
        std::env::set_var("UU_CRASH_DIR", &dir);
        let path = write_crash_report(&report).unwrap();
        std::env::remove_var("UU_CRASH_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        // The artifact replays: the embedded spec parses back to the input.
        let spec_part = text
            .split("## spec (corpus .seed format — replay with uu-fuzz corpus)\n")
            .nth(1)
            .unwrap()
            .split("\n\n## pre-pass IR")
            .next()
            .unwrap();
        let parsed = crate::corpus::parse_spec(spec_part.trim()).unwrap();
        assert_eq!(parsed, report.spec);
        assert!(text.contains("first-bad-pass = "));
        // No temp file left behind.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| {
            !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")
        }));
        std::fs::remove_dir_all(&dir).ok();
    }
}
