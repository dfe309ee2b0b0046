//! Timing-model fingerprint: one FNV-1a line per kernel in
//! `golden/model.fnv`, over the simulated kernel time (its `f64` bits) and
//! the [`uu_simt::Metrics`] of the kernel's baseline and heuristic
//! measurements. The file's first line records the
//! [`SIMT_MODEL_VERSION`] it was blessed under.
//!
//! A simulator change meant to move no simulated cycle must leave the file
//! alone. One that moves a line fails here until `SIMT_MODEL_VERSION` is
//! bumped — which also moves the run key of every cached measurement — and
//! the file is re-blessed:
//!
//! ```sh
//! UU_UPDATE_GOLDEN=1 cargo test --release -p uu-tests --test model_fingerprint
//! ```
//!
//! Re-blessing refuses to record moved lines under the version the file
//! already records.

use std::collections::BTreeMap;
use std::path::PathBuf;
use uu_core::{HeuristicOptions, LoopFilter, Transform};
use uu_harness::experiment::measure;
use uu_ir::fnv1a;
use uu_kernels::{all_benchmarks, Benchmark};
use uu_simt::SIMT_MODEL_VERSION;

/// The file's first line: `SIMT_MODEL_VERSION <n>`.
const HEADER: &str = "SIMT_MODEL_VERSION";

/// Measure `b` under baseline and heuristic; hash first, name after.
fn line(b: &Benchmark) -> String {
    let mut text = String::new();
    for transform in [
        Transform::Baseline,
        Transform::UuHeuristic(HeuristicOptions::default()),
    ] {
        let m = measure(b, transform, LoopFilter::All, None)
            .unwrap_or_else(|e| panic!("{}: {e:?}", b.info.name));
        text += &format!("{:016x} {:?}\n", m.time_ms.to_bits(), m.metrics);
    }
    format!("{:016x} {}", fnv1a(text.as_bytes()), b.info.name)
}

fn label_of(line: &str) -> &str {
    line.split_once(' ').map_or(line, |(_, label)| label)
}

#[test]
fn simulated_time_and_metrics_match_the_blessed_model() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/model.fnv");
    let jobs = uu_par::parse_jobs(None).unwrap();
    let got = uu_par::par_map(jobs, &all_benchmarks(), |_, b| line(b));
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines = text.lines();
    let version = lines
        .next()
        .and_then(|l| l.strip_prefix(HEADER))
        .and_then(|v| v.trim().parse::<u32>().ok());
    let blessed: BTreeMap<&str, &str> = lines.map(|l| (label_of(l), l)).collect();
    let mut moved: Vec<String> = got
        .iter()
        .filter_map(|l| match blessed.get(label_of(l)) {
            Some(was) if was == l => None,
            Some(was) => Some(format!("{l} (blessed: {})", &was[..16])),
            None => Some(format!("{l} (not in the blessed file)")),
        })
        .collect();
    if got.len() != blessed.len() {
        moved.push(format!(
            "{} kernels measured, {} blessed",
            got.len(),
            blessed.len()
        ));
    }
    let same_version = version == Some(SIMT_MODEL_VERSION);
    if std::env::var_os("UU_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty()) {
        assert!(
            !same_version || moved.is_empty(),
            "refusing to re-bless {} moved line(s) under the SIMT_MODEL_VERSION ({}) they \
             were blessed under: bump the constant first\n{}",
            moved.len(),
            SIMT_MODEL_VERSION,
            moved.join("\n")
        );
        let body = format!("{HEADER} {SIMT_MODEL_VERSION}\n{}\n", got.join("\n"));
        std::fs::write(&path, body).expect("write model.fnv");
        return;
    }
    assert!(
        moved.is_empty() || !same_version,
        "{} kernel(s) no longer simulate to the blessed time and metrics under \
         SIMT_MODEL_VERSION {}: bump `uu_simt::SIMT_MODEL_VERSION` if this is intended, \
         then re-bless with UU_UPDATE_GOLDEN=1\n{}",
        moved.len(),
        SIMT_MODEL_VERSION,
        moved.join("\n")
    );
    assert!(
        same_version,
        "model.fnv was blessed under SIMT_MODEL_VERSION {version:?}, the simulator is at \
         {SIMT_MODEL_VERSION}: re-bless with UU_UPDATE_GOLDEN=1"
    );
}
