//! Property-based differential testing of the whole compiler stack.
//!
//! Random loop kernels are generated (random arithmetic bodies, optional
//! diamonds/triangles, random trip counts), compiled under every pipeline
//! configuration, and executed on the SIMT simulator. Every configuration
//! must produce bit-identical output memory — any divergence is a
//! miscompilation in the transforms or the cleanup optimizer.
//!
//! Generation, shrinking and the oracle live in `uu-check`
//! (`crates/check`); this file wires them to the runner. Case counts are
//! deliberately modest for the default `cargo test`; CI's fuzz smoke raises
//! them with `UU_CHECK_CASES` (see `ci.sh`), and any failure prints a
//! shrunk spec in the corpus format ready to check in under
//! `crates/check/corpus/`.

use uu_check::{build_kernel, check, execute, Config, DiffOracle, Gen, KernelSpec, Rng};

/// Replay the checked-in regression corpus through the full oracle before
/// any novel fuzzing. Historical counterexamples keep running forever.
#[test]
fn corpus_replays_clean() {
    let oracle = DiffOracle::default();
    let corpus = uu_check::corpus::load_corpus();
    assert!(corpus.len() >= 2, "regression corpus went missing");
    for (name, spec) in corpus {
        oracle
            .check_spec(&spec)
            .unwrap_or_else(|e| panic!("corpus entry {name} regressed: {e}"));
    }
}

/// Every pipeline configuration preserves the semantics of random loop
/// kernels, and produces verifier-clean IR.
#[test]
fn all_configs_preserve_semantics() {
    let oracle = DiffOracle::default();
    check(
        "all_configs_preserve_semantics",
        &Config::from_env(48),
        |spec: &KernelSpec| oracle.check_spec(spec),
    );
}

/// A spec paired with an unroll factor in 2..6, for the raw-transform
/// properties.
#[derive(Debug, Clone)]
struct SpecWithFactor {
    spec: KernelSpec,
    factor: u32,
}

impl Gen for SpecWithFactor {
    fn generate(rng: &mut Rng) -> Self {
        SpecWithFactor {
            spec: KernelSpec::generate(rng),
            factor: rng.gen_range_u64(2, 6) as u32,
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = self
            .spec
            .shrink()
            .into_iter()
            .map(|spec| SpecWithFactor {
                spec,
                factor: self.factor,
            })
            .collect();
        if self.factor > 2 {
            out.push(SpecWithFactor {
                spec: self.spec.clone(),
                factor: 2,
            });
        }
        out
    }
}

/// The raw transforms (without cleanup) are themselves
/// semantics-preserving.
#[test]
fn raw_uu_preserves_semantics() {
    check(
        "raw_uu_preserves_semantics",
        &Config::from_env(48),
        |sf: &SpecWithFactor| {
            let kernel = build_kernel(&sf.spec);
            let golden = execute(&kernel, &sf.spec)?;
            let mut transformed = kernel.clone();
            let dom = uu_analysis::DomTree::compute(&transformed);
            let forest = uu_analysis::LoopForest::compute(&transformed, &dom);
            if let Some(l) = forest.loops().first().cloned() {
                uu_core::uu_loop(
                    &mut transformed,
                    l.header,
                    sf.factor,
                    uu_core::UnmergeOptions::default(),
                );
                uu_ir::verify_function(&transformed)
                    .map_err(|e| format!("invalid IR after raw u&u: {e}"))?;
            }
            let got = execute(&transformed, &sf.spec)?;
            if got == golden {
                Ok(())
            } else {
                Err(format!(
                    "raw u&u (factor {}) diverged\n  want: {golden:?}\n  got:  {got:?}",
                    sf.factor
                ))
            }
        },
    );
}

/// Runtime unrolling alone preserves semantics.
#[test]
fn raw_runtime_unroll_preserves_semantics() {
    check(
        "raw_runtime_unroll_preserves_semantics",
        &Config::from_env(48),
        |sf: &SpecWithFactor| {
            let kernel = build_kernel(&sf.spec);
            let golden = execute(&kernel, &sf.spec)?;
            let mut transformed = kernel.clone();
            let dom = uu_analysis::DomTree::compute(&transformed);
            let forest = uu_analysis::LoopForest::compute(&transformed, &dom);
            if let Some(l) = forest.loops().first().cloned() {
                uu_core::runtime_unroll::runtime_unroll(
                    &mut transformed,
                    l.header,
                    &l.blocks,
                    &l.latches,
                    sf.factor,
                );
                uu_ir::verify_function(&transformed)
                    .map_err(|e| format!("invalid IR after runtime unroll: {e}"))?;
            }
            let got = execute(&transformed, &sf.spec)?;
            if got == golden {
                Ok(())
            } else {
                Err(format!(
                    "runtime unroll (factor {}) diverged\n  want: {golden:?}\n  got:  {got:?}",
                    sf.factor
                ))
            }
        },
    );
}

/// The raw meld transform (without cleanup) preserves semantics, emits
/// verifier-clean IR, and preserves the structural invariants the rest of
/// the stack depends on.
#[test]
fn raw_meld_preserves_semantics() {
    check(
        "raw_meld_preserves_semantics",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let kernel = build_kernel(spec);
            let golden = execute(&kernel, spec)?;
            let mut melded = kernel.clone();
            uu_core::meld_function(&mut melded);
            uu_ir::verify_function(&melded)
                .map_err(|e| format!("invalid IR after raw meld: {e}\n{melded}"))?;
            let got = execute(&melded, spec)?;
            if got == golden {
                Ok(())
            } else {
                Err(format!(
                    "raw meld diverged\n  want: {golden:?}\n  got:  {got:?}"
                ))
            }
        },
    );
}

/// Melding preserves the analysis invariants it claims to: dominance is
/// recomputable (no orphaned blocks), the convergent-instruction count is
/// untouched, and the number of *divergent* conditional branches reported
/// by `uu_analysis::Divergence` never increases — reducing them is the
/// pass's entire purpose.
#[test]
fn meld_preserves_divergence_and_convergence_invariants() {
    fn divergent_branches(f: &uu_ir::Function) -> usize {
        let div = uu_analysis::Divergence::compute(f);
        f.iter_insts()
            .filter(|(_, i)| match i.kind {
                uu_ir::InstKind::CondBr { cond, .. } => div.is_divergent(cond),
                _ => false,
            })
            .count()
    }
    fn convergent_insts(f: &uu_ir::Function) -> usize {
        f.iter_insts().filter(|(_, i)| i.kind.is_convergent()).count()
    }
    check(
        "meld_preserves_divergence_and_convergence_invariants",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let kernel = build_kernel(spec);
            let before_div = divergent_branches(&kernel);
            let before_conv = convergent_insts(&kernel);
            let mut melded = kernel.clone();
            uu_core::meld_function(&mut melded);
            uu_ir::verify_function(&melded)
                .map_err(|e| format!("invalid IR after meld: {e}"))?;
            // Dominance must be recomputable over a coherent CFG: every
            // reachable block is in the layout and entry dominates all.
            let dom = uu_analysis::DomTree::compute(&melded);
            for b in melded.reachable_blocks() {
                if !dom.dominates(melded.entry(), b) {
                    return Err(format!("entry no longer dominates {b} after meld"));
                }
            }
            let after_div = divergent_branches(&melded);
            if after_div > before_div {
                return Err(format!(
                    "meld increased divergent branches: {before_div} -> {after_div}"
                ));
            }
            if convergent_insts(&melded) != before_conv {
                return Err(format!(
                    "meld changed the convergent-instruction count: {before_conv} -> {}",
                    convergent_insts(&melded)
                ));
            }
            Ok(())
        },
    );
}

/// The textual printer and parser round-trip on generated kernels: one
/// parse normalizes instruction numbering; after that, print∘parse is
/// the identity, and semantics are preserved throughout.
#[test]
fn printer_parser_roundtrip() {
    check(
        "printer_parser_roundtrip",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let kernel = build_kernel(spec);
            let printed = kernel.to_string();
            let reparsed =
                uu_ir::parse_function(&printed).map_err(|e| format!("{e}\n{printed}"))?;
            uu_ir::verify_function(&reparsed).map_err(|e| format!("reparsed invalid: {e}"))?;
            let normalized = reparsed.to_string();
            let again =
                uu_ir::parse_function(&normalized).map_err(|e| format!("{e}\n{normalized}"))?;
            if again.to_string() != normalized {
                return Err("round-trip not idempotent".to_string());
            }
            // And the reparsed kernel executes identically.
            let golden = execute(&kernel, spec)?;
            if execute(&reparsed, spec)? != golden || execute(&again, spec)? != golden {
                return Err("reparsed kernel diverged from original".to_string());
            }
            Ok(())
        },
    );
}

/// The text round trip holds for *optimized* IR too — the gapped ids and
/// removed blocks every pipeline configuration leaves behind: printed
/// output is a print → parse → print fixpoint, and compiling the re-parsed
/// kernel prints the same bytes, for the same work, as compiling the
/// original (the function memo is cleared first, so both really compile).
#[test]
fn optimized_ir_round_trips_and_reparsed_kernels_compile_identically() {
    let compiled = |f: &uu_ir::Function, transform: &uu_core::Transform| {
        uu_core::compile_memo_clear();
        let mut m = uu_ir::Module::new("round_trip");
        m.add_function(f.clone());
        let options = uu_core::PipelineOptions {
            transform: transform.clone(),
            ..Default::default()
        };
        let work = uu_core::compile(&mut m, &options).work;
        (m.to_string(), work)
    };
    check(
        "optimized_ir_round_trips_and_reparsed_kernels_compile_identically",
        &Config::from_env(48),
        |spec: &KernelSpec| {
            let kernel = build_kernel(spec);
            let printed = kernel.to_string();
            let reparsed =
                uu_ir::parse_function(&printed).map_err(|e| format!("{e}\n{printed}"))?;
            for t in uu_check::oracle::default_transforms() {
                let (text, work) = compiled(&kernel, &t);
                let again = uu_ir::parse_module(&text)
                    .map_err(|e| format!("{t:?}: optimized IR does not parse: {e}\n{text}"))?
                    .to_string();
                if again != text {
                    return Err(format!(
                        "{t:?}: optimized IR is not a print/parse fixpoint\n\
                         {text}\nreprinted:\n{again}"
                    ));
                }
                if compiled(&reparsed, &t) != (text, work) {
                    return Err(format!("{t:?}: the re-parsed kernel compiles differently"));
                }
            }
            Ok(())
        },
    );
}
