//! `BENCH_sim` — interpreter throughput over the 16-kernel suite.
//!
//! Each `sim/<name>` entry times one full workload run (`Benchmark::run`)
//! of a kernel suite member and records the dynamic warp-instruction count
//! as its work units, so the JSON report carries warp-insts/sec — the
//! repo's interpreter-throughput trajectory. A synthetic
//! `sim/suite-total` entry aggregates the suite (total warp instructions
//! over summed median runtimes). End-to-end sweep wall time is not
//! measured here: that is `e2ebench/`'s `regen-fast` workload.
//!
//! The engine under test follows `UU_SIMT_ENGINE` (see
//! `uu_simt::ExecEngine`), so a reference-interpreter baseline is
//! `UU_SIMT_ENGINE=reference cargo bench -p uu-bench --bench sim`.
//! `UU_BENCH_APPS=a,b` restricts the run to the named applications
//! (ci.sh's verify-uniform smoke uses a two-app slice to stay fast), and
//! the suite-total aggregate is skipped for partial runs so a filtered
//! report is never mistaken for a suite trajectory row.

use uu_check::bench::{BenchResult, Harness};
use uu_kernels::all_benchmarks;
use uu_simt::Gpu;

fn main() {
    let mut h = Harness::new("BENCH_sim");
    let filter = std::env::var("UU_BENCH_APPS").unwrap_or_default();
    let benches: Vec<uu_kernels::Benchmark> = all_benchmarks()
        .into_iter()
        .filter(|b| filter.is_empty() || filter.split(',').any(|f| f == b.info.name))
        .collect();

    let mut total_units = 0u64;
    let mut total_median_ns = 0.0f64;
    for b in &benches {
        let m = (b.build)();
        // Probe run: learn the workload's dynamic warp-instruction count
        // (deterministic, so it holds for every timed iteration).
        let probe = (b.run)(&m, &mut Gpu::new()).expect("suite workload must execute");
        let units = probe.metrics.warp_insts;
        h.bench_batched_units(
            &format!("sim/{}", b.info.name),
            units,
            || (),
            |()| (b.run)(&m, &mut Gpu::new()).unwrap(),
        );
        let r = h.results().last().unwrap();
        total_units += units;
        total_median_ns += r.median_ns();
    }
    if filter.is_empty() {
        // Suite aggregate: one synthetic sample whose throughput is
        // total-warp-insts over the sum of per-kernel median runtimes.
        h.push_result(BenchResult {
            name: "sim/suite-total".into(),
            iters_per_sample: 1,
            samples_ns: vec![total_median_ns],
            units_per_iter: total_units,
        });
    }

    h.finish();
}
