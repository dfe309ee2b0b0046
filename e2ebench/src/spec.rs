//! The benchmark's contract in code: workload names, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` is `uu-e2e --spec`.

/// One workload and why it exists.
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The four workloads. Names are fixed; later issues cite them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "regen-fast",
        why: "cacheless all --fast path (sweep, figures, study) on four apps: ~95% core, the only place duplicate study compiles and report rendering show",
    },
    WorkloadSpec {
        name: "cold-loops",
        why: "per-loop XSBench points, each re-optimising 105 untouched functions: >95% core, so incremental-compile work shows here and simulator work must not",
    },
    WorkloadSpec {
        name: "sim-launch",
        why: "precompiled hot modules run once then twice back to back: core does no timed work, simt does all of it, decode-miss-heavy versus decode-hit",
    },
    WorkloadSpec {
        name: "served-warm",
        why: "the same sweep and study from a primed cache, once through a one-worker daemon and once from disk: core ~0, serve and ir print/parse dominate",
    },
];

/// A metric's name, unit and good direction (`lower` or `higher`).
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

fn metric(name: &str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: 0.0,
    }
}

/// Bound of the metrics that are pure functions of the inputs: they repeat
/// bit for bit, so any worsening at all is a regression.
pub const EXACT_BOUND: f64 = 1e-9;

/// End-to-end metrics; every workload reports all of them.
pub fn end_to_end() -> Vec<MetricSpec> {
    let e = |name: &str, unit, better, bound| MetricSpec {
        bound,
        ..metric(name, unit, better)
    };
    vec![
        e("setup_s", "s", "lower", 0.25),
        e("wall_s", "s", "lower", 0.25),
        e("cpu_s", "s", "lower", 0.25),
        e("peak_rss_mb", "MB", "lower", 0.10),
        e("sim_speedup_geomean", "ratio", "higher", EXACT_BOUND),
        e("code_size_ratio_geomean", "ratio", "lower", EXACT_BOUND),
        e("compile_work_munits", "Munits", "lower", EXACT_BOUND),
    ]
}

/// Pass names of `CompileOutcome::timings` that get a time and a work row.
pub const PASSES: [&str; 13] = [
    "uu",
    "uu-heuristic",
    "unroll",
    "unmerge",
    "baseline-unroll",
    "meld",
    "sccp",
    "gvn",
    "condprop",
    "simplifycfg",
    "ifconvert",
    "instsimplify",
    "dce",
];

/// Per-layer metrics (layer = crate), all from the traced run.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = vec![
        metric("kernels.build_s", "s", "lower"),
        metric("kernels.build_calls", "count", "lower"),
        metric("core.compile_s", "s", "lower"),
        metric("core.compile_calls", "count", "lower"),
        metric("core.work_munits", "Munits", "lower"),
        metric("core.units_per_ms", "1/ms", "higher"),
    ];
    for p in PASSES {
        v.push(metric(&format!("core.pass.{p}_s"), "s", "lower"));
        v.push(metric(&format!("core.pass.{p}_work"), "units", "lower"));
    }
    v.extend([
        metric("core.untouched_fn_compiles", "count", "lower"),
        metric("core.changed_point_share", "ratio", "higher"),
        metric("core.dup_compile_share", "ratio", "lower"),
        metric("analysis.module_size_s", "s", "lower"),
        metric("analysis.loop_list_s", "s", "lower"),
        metric("analysis.code_size_units", "units", "lower"),
        metric("simt.run_s", "s", "lower"),
        metric("simt.run_calls", "count", "lower"),
        metric("simt.warp_insts", "count", "lower"),
        metric("simt.mwarp_insts_per_s", "M/s", "higher"),
        metric("simt.sim_kernel_ms", "ms", "lower"),
        metric("simt.once_round_s", "s", "lower"),
        metric("simt.twice_round_s", "s", "lower"),
        metric("simt.decode_saved_share", "ratio", "higher"),
        metric("simt.decode_hits", "count", "higher"),
        metric("simt.decode_misses", "count", "lower"),
        metric("simt.decode_hit_share", "ratio", "higher"),
        metric("simt.ref_engine_s", "s", "lower"),
        metric("simt.engine_mismatches", "count", "lower"),
        metric("ir.print_s", "s", "lower"),
        metric("ir.parse_s", "s", "lower"),
        metric("ir.print_bytes", "B", "lower"),
        metric("ir.module_hash_s", "s", "lower"),
        metric("ir.insts_after", "count", "lower"),
        metric("serve.key_s", "s", "lower"),
        metric("serve.lookup_s", "s", "lower"),
        metric("serve.artifact_decode_s", "s", "lower"),
        metric("serve.artifact_encode_s", "s", "lower"),
        metric("serve.artifact_bytes", "B", "lower"),
        metric("serve.remote_requests", "count", "lower"),
        metric("serve.remote_rtt_p50_ms", "ms", "lower"),
        metric("serve.remote_rtt_p90_ms", "ms", "lower"),
        metric("serve.remote_fallbacks", "count", "lower"),
        metric("serve.remote_pass_s", "s", "lower"),
        metric("serve.disk_pass_s", "s", "lower"),
        metric("serve.prime_pass_s", "s", "lower"),
        metric("serve.hit_share", "ratio", "higher"),
        metric("serve.daemon_lookup_us", "us", "lower"),
        metric("serve.daemon_compile_us", "us", "lower"),
        metric("harness.sweep_s", "s", "lower"),
        metric("harness.study_s", "s", "lower"),
        metric("harness.figures_s", "s", "lower"),
        metric("harness.noise_s", "s", "lower"),
        metric("harness.points", "count", "lower"),
        metric("harness.point_p50_ms", "ms", "lower"),
        metric("harness.point_p90_ms", "ms", "lower"),
        metric("harness.report_bytes", "B", "lower"),
        metric("harness.glue_s", "s", "lower"),
        metric("trace.overhead_share", "ratio", "lower"),
        metric("trace.accounted_share", "ratio", "higher"),
    ]);
    v
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 20;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", ",
            "\"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"e2ebench\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        list(workloads),
        list(e2e),
        list(layers)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn spec_is_within_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(end_to_end().into_iter().map(|m| m.name));
        names.extend(per_layer().into_iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        crate::json::Json::parse(&benchmark_json()).unwrap();
    }
}
