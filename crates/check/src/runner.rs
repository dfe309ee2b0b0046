//! The property-test runner: seeded case generation, iteration budget,
//! greedy shrinking and replayable failure reports.
//!
//! ```
//! use uu_check::{check, Config};
//!
//! // Addition of small numbers commutes.
//! check("add_commutes", &Config::new(64), |&(a, b): &(i64, i64)| {
//!     if a.wrapping_add(b) == b.wrapping_add(a) {
//!         Ok(())
//!     } else {
//!         Err("addition does not commute".to_string())
//!     }
//! });
//! ```
//!
//! ## Reproducibility
//!
//! Every case is generated from a per-case seed derived by
//! [`SplitMix64`] from the master seed (see [`case_seeds`]), so case `i`
//! depends only on `(master_seed, i)` — never on how many random draws
//! earlier cases made, and never on which worker thread ran it.
//! `UU_CHECK_SEED` replays an entire run; the failure report additionally
//! prints the failing case's own seed.
//!
//! ## Parallel execution
//!
//! With [`Config::jobs`] > 1 the case scan fans out over a `uu-par`
//! work-stealing pool. Each worker re-derives its cases' generators from
//! the per-case seeds (the same stream split that [`Rng::fork`] performs:
//! a fresh xoshiro generator seeded from one draw of the parent stream,
//! with the draw recorded so a single case replays), so parallel runs
//! visit exactly the serial run's cases. The reported failure is always
//! the one with the **lowest case index** — workers racing past it are
//! cancelled and later failures discarded — and shrinking stays serial,
//! so the failure report is byte-identical at any worker count.
//!
//! ## Environment
//!
//! [`Config::from_env`] is the test and fuzz binaries' one reader of these;
//! an empty value means unset:
//!
//! * `UU_CHECK_CASES` — overrides the per-property case count (CI smoke
//!   runs use `UU_CHECK_CASES=200`);
//! * `UU_CHECK_SEED` — overrides the master seed (decimal or `0x…` hex);
//! * `UU_JOBS` — worker count (default: available parallelism; `1`
//!   reproduces the serial scan exactly).

use crate::gen::Gen;
use crate::rng::{Rng, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

/// Default master seed. Fixed so every checkout fuzzes the same cases;
/// grow coverage by raising `UU_CHECK_CASES`, not by randomizing the seed.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE_0000_0001;

/// Runner configuration for one property.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Master seed; each case derives its own seed from it.
    pub seed: u64,
    /// Upper bound on property evaluations spent shrinking a failure.
    pub max_shrink_iters: u32,
    /// Worker threads for the case scan. `1` (the [`Config::new`]
    /// default) runs serially on the calling thread; [`Config::from_env`]
    /// defaults to the machine's parallelism via `UU_JOBS`.
    pub jobs: usize,
}

impl Config {
    /// A configuration with the default seed and shrink budget, running
    /// serially.
    pub fn new(cases: u32) -> Self {
        Config {
            cases,
            seed: DEFAULT_SEED,
            max_shrink_iters: 400,
            jobs: 1,
        }
    }

    /// Like [`Config::new`], with `UU_CHECK_CASES` / `UU_CHECK_SEED` /
    /// `UU_JOBS` environment overrides applied (empty = unset); the case
    /// scan runs on all available cores unless `UU_JOBS` says otherwise.
    ///
    /// # Panics
    ///
    /// Panics with `UU_X=<value>: <reason>` on a malformed value: a typo'd
    /// knob must never silently fall back.
    pub fn from_env(default_cases: u32) -> Self {
        fn knob<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
            let v = std::env::var(name).ok().filter(|v| !v.trim().is_empty())?;
            Some(parse(v.trim()).unwrap_or_else(|e| panic!("{name}={v}: {e}")))
        }
        let mut cfg = Config::new(default_cases);
        let jobs = std::env::var("UU_JOBS").ok();
        cfg.jobs = uu_par::parse_jobs(jobs.as_deref())
            .unwrap_or_else(|e| panic!("UU_JOBS={}: {e}", jobs.unwrap_or_default()));
        if let Some(n) = knob("UU_CHECK_CASES", |v| {
            v.parse::<u32>().map_err(|_| "expected an integer".to_string())
        }) {
            cfg.cases = n;
        }
        if let Some(s) = knob("UU_CHECK_SEED", |v| {
            match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse::<u64>(),
            }
            .map_err(|_| "expected a u64 (decimal or 0x-hex)".to_string())
        }) {
            cfg.seed = s;
        }
        cfg
    }
}

/// A minimized counterexample, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Failure<T> {
    /// Property name as passed to [`check`].
    pub name: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Index of the failing case within the run.
    pub case_index: u32,
    /// Seed that generated the failing case.
    pub case_seed: u64,
    /// The input as originally generated.
    pub original: T,
    /// The input after greedy shrinking (equal to `original` if no shrink
    /// candidate reproduced the failure).
    pub shrunk: T,
    /// Number of successful shrink steps taken.
    pub shrink_steps: u32,
    /// The error produced by the shrunk input.
    pub error: String,
}

impl<T: std::fmt::Debug> std::fmt::Display for Failure<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "uu-check: property '{}' failed (master seed {:#x}, case {}, case seed {:#x})",
            self.name, self.seed, self.case_index, self.case_seed
        )?;
        writeln!(f, "  original: {:?}", self.original)?;
        writeln!(
            f,
            "  shrunk ({} steps): {:?}",
            self.shrink_steps, self.shrunk
        )?;
        writeln!(f, "  error: {}", self.error)?;
        write!(
            f,
            "  replay the whole run with UU_CHECK_SEED={:#x}",
            self.seed
        )
    }
}

fn panic_payload_to_string(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn run_case<T, F>(prop: &F, input: &T) -> Result<(), String>
where
    F: Fn(&T) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| prop(input))) {
        Ok(r) => r,
        Err(p) => Err(panic_payload_to_string(p)),
    }
}

/// The per-case seeds of a run with master seed `master`: case `i` is
/// always generated from element `i`, independent of worker count and of
/// how many random draws other cases made. This is the recordable half of
/// an [`Rng::fork`]-style stream split — the seed is one draw of the
/// master stream, and the case's generator is built fresh from it, which
/// is what lets a single case (or a whole run) replay from one `u64`.
pub fn case_seeds(master: u64, cases: u32) -> Vec<u64> {
    let mut seeder = SplitMix64::new(master);
    (0..cases).map(|_| seeder.next_u64()).collect()
}

/// Scan the run's cases for the failure with the lowest case index, using
/// `cfg.jobs` workers. Returns `(case_index, case_seed, input, error)`.
fn find_first_failure<T, F>(cfg: &Config, prop: &F) -> Option<(u32, u64, T, String)>
where
    T: Gen + Send,
    F: Fn(&T) -> Result<(), String> + Sync,
{
    let seeds = case_seeds(cfg.seed, cfg.cases);
    if cfg.jobs <= 1 {
        for (case_index, &case_seed) in seeds.iter().enumerate() {
            let mut rng = Rng::seed_from_u64(case_seed);
            let input = T::generate(&mut rng);
            if let Err(e) = run_case(prop, &input) {
                return Some((case_index as u32, case_seed, input, e));
            }
        }
        return None;
    }
    // Parallel scan. `earliest` lets workers skip cases that can no longer
    // be the first failure; it only ever decreases, and a case is only
    // skipped when a *lower-indexed* failure is already known, so the
    // minimum over all reported failures equals the serial scan's first
    // failure regardless of scheduling.
    let earliest = AtomicU32::new(u32::MAX);
    let failures = uu_par::par_map(cfg.jobs, &seeds, |i, &case_seed| {
        let case_index = i as u32;
        if case_index > earliest.load(Ordering::Relaxed) {
            return None;
        }
        let mut rng = Rng::seed_from_u64(case_seed);
        let input = T::generate(&mut rng);
        match run_case(prop, &input) {
            Ok(()) => None,
            Err(e) => {
                earliest.fetch_min(case_index, Ordering::Relaxed);
                Some((case_index, case_seed, input, e))
            }
        }
    });
    // par_map preserves input order, so the first surviving entry has the
    // lowest case index.
    failures.into_iter().flatten().next()
}

/// Run a property over `cfg.cases` generated inputs; on failure, greedily
/// shrink and return the minimized [`Failure`]. `Ok(cases_run)` otherwise.
///
/// Prefer [`check`] in tests; this variant exists for asserting *on* the
/// framework itself (e.g. that an injected miscompilation is caught).
pub fn check_result<T, F>(name: &str, cfg: &Config, prop: F) -> Result<u32, Box<Failure<T>>>
where
    T: Gen + Send,
    F: Fn(&T) -> Result<(), String> + Sync,
{
    let Some((case_index, case_seed, input, first_error)) = find_first_failure(cfg, &prop)
    else {
        return Ok(cfg.cases);
    };
    // Shrinking is greedy and inherently sequential (each step depends on
    // the previous accepted candidate); it stays on the calling thread so
    // the minimized counterexample is identical at any worker count.
    let mut shrunk = input.clone();
    let mut error = first_error;
    let mut steps = 0u32;
    let mut iters = 0u32;
    'shrinking: while iters < cfg.max_shrink_iters {
        for cand in shrunk.shrink() {
            iters += 1;
            if let Err(e) = run_case(&prop, &cand) {
                shrunk = cand;
                error = e;
                steps += 1;
                continue 'shrinking;
            }
            if iters >= cfg.max_shrink_iters {
                break;
            }
        }
        break;
    }
    Err(Box::new(Failure {
        name: name.to_string(),
        seed: cfg.seed,
        case_index,
        case_seed,
        original: input,
        shrunk,
        shrink_steps: steps,
        error,
    }))
}

/// Run a property and panic with a replayable report on failure.
///
/// The property either returns `Err(message)` or panics (asserts are fine;
/// panics are caught and treated as failures).
pub fn check<T, F>(name: &str, cfg: &Config, prop: F)
where
    T: Gen + Send,
    F: Fn(&T) -> Result<(), String> + Sync,
{
    if let Err(failure) = check_result(name, cfg, prop) {
        panic!("{failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let n = check_result("tautology", &Config::new(25), |_: &u32| Ok(())).unwrap();
        assert_eq!(n, 25);
    }

    #[test]
    fn failure_is_shrunk_to_the_boundary() {
        // "No value is >= 100" — minimal counterexample is exactly 100.
        let f = check_result("lt100", &Config::new(500), |&x: &u32| {
            if x < 100 {
                Ok(())
            } else {
                Err(format!("{x} >= 100"))
            }
        })
        .unwrap_err();
        assert_eq!(f.shrunk, 100, "greedy shrink must land on the boundary");
        assert!(f.original >= 100);
    }

    #[test]
    fn vec_failure_shrinks_structurally() {
        // "No vec contains an element >= 50" — minimal form is one element
        // of exactly 50.
        let f = check_result("no_big_elem", &Config::new(200), |v: &Vec<u8>| {
            match v.iter().find(|&&x| x >= 50) {
                None => Ok(()),
                Some(x) => Err(format!("{x} >= 50")),
            }
        })
        .unwrap_err();
        assert_eq!(f.shrunk.len(), 1);
        assert_eq!(f.shrunk[0], 50);
    }

    #[test]
    fn panicking_properties_are_caught() {
        let f = check_result("panics", &Config::new(10), |&x: &u64| {
            assert!(x == u64::MAX, "unlucky");
            Ok(())
        })
        .unwrap_err();
        assert!(f.error.contains("panic"), "error was {:?}", f.error);
    }

    #[test]
    fn same_seed_same_failure() {
        let run = || {
            check_result("det", &Config::new(300), |&x: &u32| {
                if x % 7 != 3 {
                    Ok(())
                } else {
                    Err("hit".into())
                }
            })
            .unwrap_err()
        };
        let a = run();
        let b = run();
        assert_eq!(a.case_index, b.case_index);
        assert_eq!(a.original, b.original);
        assert_eq!(a.shrunk, b.shrunk);
    }

    #[test]
    fn different_seeds_generate_different_cases() {
        let collect = |seed: u64| {
            let seen = std::sync::Mutex::new(Vec::new());
            let cfg = Config {
                seed,
                ..Config::new(20)
            };
            check_result("collect", &cfg, |&x: &u64| {
                seen.lock().unwrap().push(x);
                Ok(())
            })
            .unwrap();
            seen.into_inner().unwrap()
        };
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn case_seeds_match_the_serial_seeder() {
        let seeds = case_seeds(0xABCD, 4);
        let mut sm = SplitMix64::new(0xABCD);
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, sm.next_u64(), "case {i}");
        }
    }

    #[test]
    fn parallel_scan_reports_the_same_failure_as_serial() {
        // The failing predicate is scattered through the run; whichever
        // worker finds a later failure first, the report must still name
        // the lowest failing case index — byte-identical to serial.
        for seed in [DEFAULT_SEED, 0xFEED_F00D] {
            let run = |jobs: usize| {
                let cfg = Config {
                    seed,
                    jobs,
                    ..Config::new(400)
                };
                check_result("par_det", &cfg, |&x: &u32| {
                    if x % 11 != 5 {
                        Ok(())
                    } else {
                        Err(format!("{x} hits the predicate"))
                    }
                })
                .unwrap_err()
            };
            let serial = run(1);
            for jobs in [2, 4, 16] {
                let par = run(jobs);
                assert_eq!(
                    format!("{serial}"),
                    format!("{par}"),
                    "failure report diverged at jobs = {jobs}, seed {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn parallel_scan_passes_exactly_like_serial() {
        for jobs in [1, 4] {
            let cfg = Config {
                jobs,
                ..Config::new(200)
            };
            assert_eq!(check_result("taut", &cfg, |_: &u64| Ok(())).unwrap(), 200);
        }
    }
}
