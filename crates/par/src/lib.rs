//! # uu-par — a zero-dependency work-stealing thread pool
//!
//! The uu workspace's evaluation walks a large product space — benchmarks ×
//! loops × configurations for the sweep, thousands of generated kernels for
//! the fuzz oracle — and every point is independent of every other. This
//! crate supplies, in-tree and on top of nothing but `std::thread` and
//! `std::sync` (in the spirit of `uu-check` replacing `rand`/`proptest`),
//! the one primitive those drivers need: a deterministic parallel map.
//! The [`pool`] module adds the service-side complement: a closeable
//! blocking [`TaskQueue`] and a fixed worker crew ([`run_crew`]) for
//! workloads — like the `uu-serve` daemon's connections — that arrive
//! over time and must drain cleanly on shutdown.
//!
//! ## Determinism contract
//!
//! [`par_map`] returns results **in input order**, regardless of how the
//! scheduler interleaves workers. Callers that keep their per-item work
//! deterministic (seeded PRNGs, no shared mutable state) therefore produce
//! byte-identical reports at any worker count; `UU_JOBS=1` degenerates to a
//! plain serial loop on the calling thread — no threads are spawned at all.
//!
//! ## Scheduling
//!
//! Tasks are block-distributed over per-worker deques up front. A worker
//! drains its own deque from the front; when empty it steals from the
//! *back* of a victim's deque, scanning victims round-robin from its own
//! index. Stealing from the opposite end keeps contention low and hands
//! thieves the largest remaining runs of work. The task set is static (no
//! task spawns another), so a single failed scan over all deques means the
//! pool is drained and the worker can retire.
//!
//! A panicking task cannot take the pool down with it: deque mutexes are
//! locked with poison *recovery* (`unwrap_or_else(into_inner)`), so one
//! panic never cascades into every surviving worker — the remaining tasks
//! drain and the original panic is then propagated to the caller.
//!
//! ## Worker count
//!
//! The crate reads no environment: every caller passes `jobs`. Binaries
//! turn their `UU_JOBS` value into one with [`parse_jobs`] (unset or empty
//! means [`std::thread::available_parallelism`]); `jobs = 1` reproduces
//! serial behaviour exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::{run_crew, TaskQueue};

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::Mutex;

/// The worker count a `UU_JOBS` value asks for: `None` or an empty value
/// means the machine's available parallelism (1 if that cannot be
/// determined), anything else must be a positive integer.
///
/// # Errors
///
/// Returns the reason a present value is rejected (zero, negative,
/// non-integer): a typo'd knob must never silently fall back and skew an
/// experiment.
pub fn parse_jobs(v: Option<&str>) -> Result<usize, String> {
    match v.map(str::trim).filter(|v| !v.is_empty()) {
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(t) => match t.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err("expected a positive integer".to_string()),
        },
    }
}

/// Apply `f(index, &item)` to every item across `jobs` workers and return
/// the results **in input order** — the deterministic-merge primitive
/// behind the sweep and fuzz drivers.
///
/// With `jobs <= 1` (or fewer than two items) this is a plain serial loop
/// on the calling thread. Otherwise scoped worker threads drain a
/// work-stealing task pool; each worker buffers `(index, result)` pairs
/// locally and the scope join writes them into their input slots, so the
/// output is independent of scheduling.
///
/// # Panics
///
/// A panic inside `f` is propagated to the caller (after the remaining
/// workers drain), matching the serial loop's behaviour.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = jobs.min(items.len());
    let deques: Vec<Mutex<VecDeque<usize>>> = block_distribute(items.len(), workers)
        .into_iter()
        .map(Mutex::new)
        .collect();
    let f = &f;
    let deques = &deques;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    while let Some(i) = claim_task(w, deques) {
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None)
            .take(items.len())
            .collect();
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|o| o.expect("work-stealing pool dropped a task"))
            .collect()
    })
}

/// Split `0..n` into `workers` contiguous index runs, front-loading the
/// remainder so run lengths differ by at most one.
fn block_distribute(n: usize, workers: usize) -> Vec<VecDeque<usize>> {
    let base = n / workers;
    let extra = n % workers;
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let q: VecDeque<usize> = (start..start + len).collect();
            start += len;
            q
        })
        .collect()
}

/// Lock a deque, recovering from poisoning. A task body that panics can
/// leave a deque mutex poisoned (e.g. a panic unwinding through a caller
/// that holds the guard); treating that as fatal would cascade the panic
/// into every surviving worker and defeat the fault isolation that
/// `uu-core`'s guarded pipeline provides. The protected data — a queue of
/// plain indices mutated only by `pop_front`/`pop_back` — cannot be left
/// in a torn state, so recovering the guard is sound.
fn lock_deque(m: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Pop the next task for worker `w`: own deque front first, then steal
/// from the back of the other deques, round-robin from `w + 1`.
fn claim_task(w: usize, deques: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    if let Some(i) = lock_deque(&deques[w]).pop_front() {
        return Some(i);
    }
    for k in 1..deques.len() {
        let victim = (w + k) % deques.len();
        if let Some(i) = lock_deque(&deques[victim]).pop_back() {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_serial_map_at_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
        for jobs in [1, 2, 3, 8, 64, 1000] {
            let got = par_map(jobs, &items, |i, x| x * 3 + i as u64);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(4, &none, |_, x| *x).is_empty());
        assert_eq!(par_map(4, &[7u32], |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn results_keep_input_order_under_unbalanced_load() {
        // Early items sleep, late items return instantly: thieves finish
        // out of temporal order, but the merge must restore input order.
        let items: Vec<u64> = (0..48).collect();
        let got = par_map(8, &items, |_, &x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        par_map(7, &(0..100usize).collect::<Vec<_>>(), |_, &i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn work_is_actually_spread_across_threads() {
        let items: Vec<u32> = (0..64).collect();
        let ids = Mutex::new(HashSet::new());
        par_map(4, &items, |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            // Give other workers a chance to start before the pool drains.
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        assert!(
            ids.lock().unwrap().len() > 1,
            "expected multiple worker threads"
        );
    }

    #[test]
    fn serial_path_spawns_no_threads() {
        let main_id = std::thread::current().id();
        par_map(1, &[1u8, 2, 3], |_, _| {
            assert_eq!(std::thread::current().id(), main_id);
        });
    }

    #[test]
    fn poisoned_deques_are_recovered_not_cascaded() {
        // Poison-injection: panic while holding a deque guard, as a
        // panicking task unwinding through pool internals would. Work must
        // remain claimable from both the poisoned own deque and a
        // poisoned victim deque — a poisoned mutex must degrade to a
        // recovered lock, not to a panic in every surviving worker.
        let deques: Vec<Mutex<VecDeque<usize>>> = block_distribute(4, 2)
            .into_iter()
            .map(Mutex::new)
            .collect();
        for victim in 0..deques.len() {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = deques[victim].lock().unwrap();
                panic!("injected poison");
            }));
            assert!(r.is_err());
            assert!(deques[victim].is_poisoned(), "deque {victim} must be poisoned");
        }
        // Own-deque pop and steal both still work.
        let mut claimed = Vec::new();
        while let Some(i) = claim_task(0, &deques) {
            claimed.push(i);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, vec![0, 1, 2, 3], "all tasks claimable after poisoning");
        assert_eq!(claim_task(1, &deques), None, "drained pool still terminates");
    }

    #[test]
    fn panicking_task_does_not_lose_other_results() {
        // One task panics; the pool must still drain every other task and
        // then propagate the panic (no deadlock, no cascaded poison).
        let done: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(4, &(0..64usize).collect::<Vec<_>>(), |_, &i| {
                assert!(i != 20, "boom on 20");
                done[i].fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(r.is_err(), "the injected panic must propagate");
        let completed = done.iter().filter(|d| d.load(Ordering::Relaxed) == 1).count();
        assert!(completed >= 62, "only the panicking task may be missing: {completed}");
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let items: Vec<u32> = (0..32).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, &x| {
                assert!(x != 17, "boom on 17");
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn block_distribution_covers_all_indices() {
        for n in [0usize, 1, 5, 16, 17, 100] {
            for workers in [1usize, 2, 3, 7, 16] {
                let qs = block_distribute(n, workers);
                assert_eq!(qs.len(), workers);
                let all: Vec<usize> = qs.iter().flatten().copied().collect();
                assert_eq!(all, (0..n).collect::<Vec<_>>());
                let (min, max) = qs
                    .iter()
                    .map(|q| q.len())
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(n == 0 || max - min <= 1, "unbalanced split: {min}..{max}");
            }
        }
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs(Some("1")), Ok(1));
        assert_eq!(parse_jobs(Some(" 16 ")), Ok(16));
        let default = parse_jobs(None).unwrap();
        assert!(default >= 1);
        for unset in ["", "  "] {
            assert_eq!(parse_jobs(Some(unset)), Ok(default), "{unset:?} means unset");
        }
        for bad in ["0", "-2", "many", "1.5"] {
            assert!(parse_jobs(Some(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
