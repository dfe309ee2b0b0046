//! Smoke test of the benchmark binary: every workload at `--smoke` size,
//! plain and traced. Run it optimised (`cargo test --release`); a debug
//! build of the stack is some twenty times slower.

use std::process::Command;
use uu_e2e::json::Json;
use uu_e2e::spec;

const EXE: &str = env!("CARGO_BIN_EXE_uu-e2e");

fn smoke(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(EXE)
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line");
    uu_check::json::validate(line).expect("well-formed JSON");
    Json::parse(line).expect("a JSON object")
}

fn names(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .expect(name)
}

fn name_ok(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        spec::benchmark_json(),
        "BENCHMARK.json must be `uu-e2e --spec`"
    );
    let doc = Json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let (workloads, e2e, layers) = (
        names(doc.get("workloads").unwrap()),
        names(doc.get("end_to_end").unwrap()),
        names(doc.get("per_layer").unwrap()),
    );
    assert!(workloads.len() <= 8 && e2e.len() <= 16 && layers.len() <= 128);
    assert!(workloads
        .iter()
        .chain(&e2e)
        .chain(&layers)
        .all(|n| name_ok(n)));
    assert!(e2e.contains(&"setup_s".to_string()));
}

#[test]
fn every_workload_reports_the_named_metrics_and_exact_ones_repeat() {
    let e2e: Vec<String> = spec::end_to_end().into_iter().map(|m| m.name).collect();
    let layers: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
    for w in &spec::WORKLOADS {
        let (plain, again) = (smoke(w.name, 1, false), smoke(w.name, 2, false));
        let traced = smoke(w.name, 1, true);
        for (result, want) in [(&plain, &e2e), (&again, &e2e), (&traced, &layers)] {
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{}",
                w.name
            );
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let got: Vec<&String> = result
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(got, want.iter().collect::<Vec<_>>(), "{}", w.name);
        }
        for m in spec::end_to_end() {
            let (a, b) = (metric(&plain, &m.name), metric(&again, &m.name));
            assert!(a != 0.0 && a.is_finite(), "{} {} = {a}", w.name, m.name);
            if m.bound <= spec::EXACT_BOUND {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {} differs between seeds",
                    w.name,
                    m.name
                );
            }
        }
        assert_eq!(metric(&traced, "simt.engine_mismatches"), 0.0);
        assert!(metric(&traced, "trace.accounted_share") > 0.5, "{}", w.name);
    }
}

#[test]
fn a_set_fault_knob_makes_the_run_refuse() {
    let out = Command::new(EXE)
        .args(["--workload", "sim-launch", "--smoke"])
        .env("UU_FAULT", "panic@0")
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("UU_FAULT"));
}

#[test]
fn an_unknown_workload_is_an_error() {
    let out = Command::new(EXE)
        .args(["--workload", "nope"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success() && out.stdout.is_empty());
}
