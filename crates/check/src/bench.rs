//! A wall-clock micro-benchmark harness (the workspace's `criterion`
//! replacement): warmup-based calibration and median-of-N sampling.
//!
//! Bench targets are plain binaries (`harness = false` in the manifest)
//! whose `main` drives a [`Harness`]:
//!
//! ```no_run
//! use uu_check::bench::Harness;
//!
//! let mut h = Harness::new("example");
//! h.bench("fib20", || {
//!     fn fib(n: u64) -> u64 { if n < 2 { n } else { fib(n - 1) + fib(n - 2) } }
//!     fib(20)
//! });
//! h.finish();
//! ```
//!
//! Each benchmark prints one row to stderr as it completes: median, range,
//! sample shape and, for throughput benchmarks, units per second. Nothing
//! is written to disk.
//!
//! ## Environment
//!
//! * `UU_BENCH_SAMPLES` — number of timed samples per benchmark;
//! * `UU_BENCH_WARMUP_MS` — calibration/warmup duration per benchmark.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Tunable knobs for a bench run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Warmup/calibration time per benchmark.
    pub warmup_ms: u64,
    /// Number of timed samples collected per benchmark.
    pub samples: usize,
    /// Target wall time per sample; calibration picks the iteration count
    /// per sample to approximate it.
    pub target_sample_ms: f64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            warmup_ms: 200,
            samples: 15,
            target_sample_ms: 10.0,
        }
    }
}

impl BenchOptions {
    /// Defaults with `UU_BENCH_SAMPLES` / `UU_BENCH_WARMUP_MS` applied.
    pub fn from_env() -> Self {
        let mut o = BenchOptions::default();
        if let Some(n) = env_u64("UU_BENCH_SAMPLES") {
            o.samples = (n as usize).max(3);
        }
        if let Some(ms) = env_u64("UU_BENCH_WARMUP_MS") {
            o.warmup_ms = ms;
        }
        o
    }
}

/// A `UU_BENCH_*` integer; an empty value means unset.
fn env_u64(key: &str) -> Option<u64> {
    let v = std::env::var(key).ok().filter(|v| !v.trim().is_empty())?;
    match v.trim().parse() {
        Ok(n) => Some(n),
        Err(_) => panic!("{key}={v}: expected an integer"),
    }
}

/// Timing results of one benchmark. `Display` renders the row the harness
/// prints.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id (e.g. `"pass/sccp/8"`).
    pub name: String,
    /// Iterations per timed sample (chosen by calibration).
    pub iters_per_sample: u64,
    /// Per-iteration wall time of each sample, in nanoseconds.
    pub samples_ns: Vec<f64>,
    /// Work units performed per iteration (e.g. bytes parsed), for
    /// throughput reporting; `0` means "not a throughput benchmark".
    pub units_per_iter: u64,
}

impl BenchResult {
    /// Median per-iteration time in nanoseconds; `0.0` when no samples
    /// were collected (an aborted or zero-sample run must report a defined
    /// value, not panic on an out-of-bounds index).
    pub fn median_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let mut v = self.samples_ns.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    /// Fastest per-iteration sample in nanoseconds; `0.0` when empty.
    pub fn min_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest per-iteration sample in nanoseconds; `0.0` when empty.
    pub fn max_ns(&self) -> f64 {
        self.samples_ns.iter().copied().fold(0.0, f64::max)
    }

    /// Mean per-iteration time in nanoseconds; `0.0` when empty (the
    /// `sum / len` form would return NaN).
    pub fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64
    }

    /// Median throughput in work units per second; `0.0` for
    /// non-throughput benchmarks or empty sample sets.
    pub fn units_per_sec(&self) -> f64 {
        let med = self.median_ns();
        if self.units_per_iter == 0 || med <= 0.0 {
            return 0.0;
        }
        self.units_per_iter as f64 / (med * 1e-9)
    }
}

impl fmt::Display for BenchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} {:>12}  ({} .. {}, {} samples x {} iters)",
            self.name,
            fmt_ns(self.median_ns()),
            fmt_ns(self.min_ns()),
            fmt_ns(self.max_ns()),
            self.samples_ns.len(),
            self.iters_per_sample,
        )?;
        if self.units_per_iter > 0 {
            write!(f, "  {:.2} Munits/s", self.units_per_sec() / 1e6)?;
        }
        Ok(())
    }
}

/// A bench suite in progress. Create with [`Harness::new`], run
/// benchmarks with [`Harness::bench`] / [`Harness::bench_batched`], then
/// call [`Harness::finish`].
pub struct Harness {
    suite: String,
    opts: BenchOptions,
    rows: usize,
}

impl Harness {
    /// Start a suite named `suite` with environment-derived options.
    pub fn new(suite: &str) -> Self {
        eprintln!("uu-bench suite '{suite}'");
        Harness::with_options(suite, BenchOptions::from_env())
    }

    /// Start a suite with explicit options (ignores the environment).
    pub fn with_options(suite: &str, opts: BenchOptions) -> Self {
        Harness {
            suite: suite.to_string(),
            opts,
            rows: 0,
        }
    }

    /// Benchmark a routine. The closure runs repeatedly; its return value
    /// is passed through [`black_box`] so the work is not optimized away.
    pub fn bench<R>(&mut self, name: &str, mut routine: impl FnMut() -> R) -> BenchResult {
        self.bench_batched(name, || (), move |()| routine())
    }

    /// Benchmark a routine that consumes fresh per-iteration state.
    /// `setup` runs outside the timed region (use it to clone inputs the
    /// routine mutates); only `routine` is timed.
    pub fn bench_batched<S, R>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> S,
        routine: impl FnMut(S) -> R,
    ) -> BenchResult {
        self.bench_batched_units(name, 0, setup, routine)
    }

    /// Like [`Harness::bench_batched`], but records that each iteration
    /// performs `units_per_iter` work units (e.g. bytes parsed), so the
    /// row carries a units-per-second throughput.
    pub fn bench_batched_units<S, R>(
        &mut self,
        name: &str,
        units_per_iter: u64,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) -> BenchResult {
        // Warmup + calibration: run until the warmup budget elapses,
        // measuring per-iteration cost.
        let warmup = Duration::from_millis(self.opts.warmup_ms);
        let t0 = Instant::now();
        let mut warm_iters = 0u64;
        let mut warm_ns = 0.0f64;
        while warm_iters == 0 || t0.elapsed() < warmup {
            let state = setup();
            let t = Instant::now();
            black_box(routine(state));
            warm_ns += t.elapsed().as_nanos() as f64;
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter_ns = (warm_ns / warm_iters as f64).max(1.0);
        let iters_per_sample =
            ((self.opts.target_sample_ms * 1e6 / per_iter_ns) as u64).clamp(1, 1_000_000);

        let mut samples_ns = Vec::with_capacity(self.opts.samples);
        for _ in 0..self.opts.samples {
            let mut total_ns = 0.0f64;
            for _ in 0..iters_per_sample {
                let state = setup();
                let t = Instant::now();
                black_box(routine(state));
                total_ns += t.elapsed().as_nanos() as f64;
            }
            samples_ns.push(total_ns / iters_per_sample as f64);
        }

        let r = BenchResult {
            name: name.to_string(),
            iters_per_sample,
            samples_ns,
            units_per_iter,
        };
        eprintln!("  {r}");
        self.rows += 1;
        r
    }

    /// Close the suite: one line naming it and how many rows it printed.
    pub fn finish(self) {
        eprintln!("uu-bench suite '{}': {} rows", self.suite, self.rows);
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> BenchOptions {
        BenchOptions {
            warmup_ms: 1,
            samples: 3,
            target_sample_ms: 0.05,
        }
    }

    #[test]
    fn collects_samples_and_serializes() {
        let mut h = Harness::with_options("selftest", tiny_opts());
        let sum = h.bench("sum", || (0..100u64).sum::<u64>());
        let sort = h.bench_batched(
            "sort",
            || vec![5u32, 3, 1, 4, 2],
            |mut v| {
                v.sort();
                v
            },
        );
        assert_eq!(h.rows, 2);
        for r in [&sum, &sort] {
            assert_eq!(r.samples_ns.len(), 3);
            assert!(r.median_ns() > 0.0);
            assert!(r.min_ns() <= r.median_ns());
            assert!(r.median_ns() <= r.max_ns());
        }
        let row = sum.to_string();
        assert!(row.starts_with("sum "), "{row}");
        assert!(row.contains("3 samples x "), "{row}");
        assert!(!row.contains("Munits/s"), "{row}");
    }

    #[test]
    fn empty_sample_sets_have_defined_statistics() {
        let r = BenchResult {
            name: "empty".into(),
            iters_per_sample: 1,
            samples_ns: Vec::new(),
            units_per_iter: 7,
        };
        assert_eq!(r.median_ns(), 0.0, "median must not index out of bounds");
        assert_eq!(r.mean_ns(), 0.0, "mean must not be NaN");
        assert_eq!(r.min_ns(), 0.0);
        assert_eq!(r.max_ns(), 0.0);
        assert_eq!(r.units_per_sec(), 0.0, "throughput must not divide by 0");
    }

    #[test]
    fn units_yield_throughput() {
        let r = BenchResult {
            name: "t".into(),
            iters_per_sample: 1,
            samples_ns: vec![1000.0, 1000.0, 1000.0], // 1 µs per iter
            units_per_iter: 500,
        };
        // 500 units per microsecond = 5e8 units/s.
        assert!((r.units_per_sec() - 5e8).abs() < 1.0);
        assert!(r.to_string().ends_with("  500.00 Munits/s"), "{r}");
        let mut h = Harness::with_options("units", tiny_opts());
        let work = h.bench_batched_units("work", 100, || (), |()| (0..100u64).sum::<u64>());
        assert_eq!(work.units_per_iter, 100);
        assert!(work.units_per_sec() > 0.0);
    }

    #[test]
    fn empty_result_serializes_without_nan() {
        let row = BenchResult {
            name: "none".into(),
            iters_per_sample: 1,
            samples_ns: Vec::new(),
            units_per_iter: 3,
        }
        .to_string();
        assert!(!row.contains("NaN") && !row.contains("inf"), "{row}");
        assert!(
            row.contains("0 ns  (0 ns .. 0 ns, 0 samples x 1 iters)"),
            "{row}"
        );
        assert!(row.ends_with("0.00 Munits/s"), "{row}");
    }
}
