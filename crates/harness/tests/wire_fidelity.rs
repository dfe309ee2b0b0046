//! Print → parse fidelity for every benchmark module.
//!
//! The remote-compile backend ships modules to the daemon as printed IR,
//! and the disk cache stores optimized modules the same way — so the
//! round trip must preserve everything the optimizer can observe: SSA id
//! numbering (pass tie-breaks are id-order-sensitive) and `restrict`
//! qualifiers (GVN's load elimination consults them). Both were once
//! lost in transit; rainflow's daemon-backed sweep drifted by fractions
//! of a percent because its `__restrict__` arrays came back unqualified
//! and its phi ids renumbered. These tests pin the fix.
//!
//! The daemon's hit path stands on the same identity over *optimized*
//! IR: it keys a request as `fnv1a(body)` without parsing it and forwards
//! stored artifact text without printing it, which is only sound because
//! printed text — gapped ids, removed blocks and all — is a parse/print
//! fixpoint and `module_hash` is the hash of exactly those bytes.

use uu_core::{compile, PipelineOptions, Transform};

/// Printed text must be a parse/print fixpoint for every benchmark: the
/// parser honors printed ids (void instructions slot into the unused
/// numbers), so nothing is renumbered in transit.
#[test]
fn every_benchmark_module_round_trips_to_identical_text() {
    for b in uu_kernels::all_benchmarks() {
        let m = (b.build)();
        let text = m.to_string();
        let reparsed = uu_ir::parse_module(&text)
            .unwrap_or_else(|e| panic!("{}: printed IR must parse: {e}", b.info.name));
        assert_eq!(
            reparsed.to_string(),
            text,
            "{}: print -> parse -> print is not a fixpoint",
            b.info.name
        );
    }
}

/// The streamed `module_hash` is the hash of the printed string, for every
/// benchmark input — the identity that lets a holder of the text key it
/// with `fnv1a` alone.
#[test]
fn module_hash_is_fnv1a_of_the_printed_text() {
    for b in uu_kernels::all_benchmarks() {
        let m = (b.build)();
        assert_eq!(
            uu_ir::module_hash(&m),
            uu_ir::fnv1a(m.to_string().as_bytes()),
            "{}",
            b.info.name
        );
    }
}

/// Every compile artifact a disk-cached fast sweep + study stores —
/// optimized IR, with the id gaps and removed blocks passes leave behind —
/// is a parse/print fixpoint whose `module_hash` is `fnv1a` of its bytes.
#[test]
fn every_stored_compile_artifact_is_a_fixpoint_keyed_by_its_bytes() {
    let benches: Vec<_> = uu_kernels::all_benchmarks()
        .into_iter()
        .filter(|b| ["mandelbrot", "quicksort", "XSBench"].contains(&b.info.name))
        .collect();
    assert_eq!(benches.len(), 3);
    let dir = std::env::temp_dir().join(format!("uu-wire-fidelity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cache = uu_serve::CompileCache::at_dir(&dir).unwrap();
        let backend = uu_harness::Backend::local(Some(&cache));
        uu_harness::run_sweep_backed(&benches, true, 1, None, backend);
        uu_harness::run_study_backed(&benches, 1, None, backend);
    }
    let mut checked = 0;
    for shard in std::fs::read_dir(&dir).unwrap() {
        for file in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = file.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let Some(uu_serve::Artifact::Compile { ir, .. }) = uu_serve::Artifact::decode(&text)
            else {
                continue; // run artifacts carry no IR
            };
            let parsed = uu_ir::parse_module(&ir)
                .unwrap_or_else(|e| panic!("{}: stored IR must parse: {e}", path.display()));
            assert!(parsed.to_string() == ir, "{}: not a fixpoint", path.display());
            assert_eq!(
                uu_ir::module_hash(&parsed),
                uu_ir::fnv1a(ir.as_bytes()),
                "{}",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 100, "only {checked} compile artifacts were stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The optimizer must not be able to tell a round-tripped module from
/// the original. rainflow is the canary: it is `restrict`-qualified and
/// its builder allocates phi ids out of textual order, so it catches
/// both a dropped qualifier and renumbering-sensitive tie-breaks.
#[test]
fn rainflow_round_trip_optimizes_identically() {
    let b = uu_kernels::all_benchmarks()
        .into_iter()
        .find(|b| b.info.name == "rainflow")
        .unwrap();
    let mut built = (b.build)();
    let mut reparsed = uu_ir::parse_module(&built.to_string()).unwrap();
    let opts = || PipelineOptions {
        transform: Transform::Uu {
            factor: 4,
            unmerge: Default::default(),
        },
        ..Default::default()
    };
    let o1 = compile(&mut built, &opts());
    let o2 = compile(&mut reparsed, &opts());
    assert_eq!(o1.work, o2.work, "pipeline work diverged across the round trip");
    assert_eq!(
        built.to_string(),
        reparsed.to_string(),
        "optimized IR diverged across the round trip"
    );
}

/// `restrict` itself must survive the trip — parameter-level check,
/// independent of what any pass does with it.
#[test]
fn restrict_qualifier_survives_print_and_parse() {
    let text = "; module r\nfn @k(ptr restrict %x, ptr %y, i64 %n) -> void {\nbb0:\n  ret void\n}\n";
    let m = uu_ir::parse_module(text).unwrap();
    let f = m.iter().next().unwrap().1;
    assert!(f.params()[0].restrict);
    assert!(!f.params()[1].restrict);
    let printed = m.to_string();
    assert!(
        printed.contains("ptr restrict %x"),
        "restrict must print back in place"
    );
    let reparsed = uu_ir::parse_module(&printed).unwrap();
    assert_eq!(reparsed.to_string(), printed, "printed form must be a fixpoint");
    assert!(reparsed.iter().next().unwrap().1.params()[0].restrict);
}
