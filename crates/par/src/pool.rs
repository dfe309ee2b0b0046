//! A closeable blocking task queue and a fixed worker crew — the
//! service-side companion to [`par_map`](crate::par_map)'s static fan-out.
//!
//! [`par_map`](crate::par_map) solves the batch problem: a task list known
//! up front, distributed once, merged in input order. A long-running
//! service has the opposite shape — tasks (connections) arrive over time,
//! the pool must hand each to the first free worker, and shutdown must
//! *drain*: stop admitting, finish what was accepted, then retire the
//! crew. [`TaskQueue`] plus [`run_crew`] provide exactly that on the same
//! zero-dependency footing (`Mutex` + `Condvar`), with the workspace's
//! poison-recovery idiom so one panicking task never wedges the queue for
//! the surviving workers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// A multi-producer multi-consumer blocking queue with explicit close
/// semantics:
///
/// * [`push`](TaskQueue::push) enqueues unless the queue is closed (the
///   item is handed back so the producer can dispose of it — for a
///   connection, dropping it closes the socket);
/// * [`pop`](TaskQueue::pop) blocks until an item is available or the
///   queue is closed **and** empty — closing does not discard accepted
///   work, which is what makes drain-on-shutdown possible;
/// * [`close`](TaskQueue::close) wakes every blocked consumer.
pub struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for TaskQueue<T> {
    fn default() -> Self {
        TaskQueue::new()
    }
}

impl<T> TaskQueue<T> {
    /// An open, empty queue.
    pub fn new() -> TaskQueue<T> {
        TaskQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Lock the state, recovering from poisoning (a consumer panicking
    /// between `pop` and its task body can poison the mutex; the queue —
    /// a `VecDeque` mutated only by push/pop — cannot be torn).
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue `item` and wake one waiting consumer. Returns `Err(item)`
    /// if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.lock();
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the next item, blocking while the queue is open but empty.
    /// Returns `None` once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Close the queue: producers are refused from now on, consumers drain
    /// the remaining items and then retire. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Run `feeder` on the calling thread while `workers` scoped threads drain
/// `queue`, applying `work` to each item. When `feeder` returns (or
/// panics), the queue is closed, the workers finish every already-queued
/// item, and the crew retires — drain semantics, not abort semantics.
///
/// A panic inside `work` is contained to that one item: the worker logs
/// nothing, keeps its thread, and pops the next task — the caller's `work`
/// closure is expected to do its own failure accounting (the compile
/// service counts contained panics in its stats). This mirrors the guarded
/// pass pipeline one layer down: one poisoned task must never take the
/// crew down. `work` runs under [`AssertUnwindSafe`]; closures that share
/// state across items must keep it panic-consistent (atomics, or mutexes
/// locked with poison recovery).
///
/// Returns the feeder's result.
pub fn run_crew<T, R>(
    workers: usize,
    queue: &TaskQueue<T>,
    work: impl Fn(T) + Sync,
    feeder: impl FnOnce() -> R,
) -> R
where
    T: Send,
{
    // Close even if the feeder panics: a wedged accept loop must not
    // leave the workers blocked forever (that would turn one panic into
    // a deadlocked process).
    struct CloseOnDrop<'a, T>(&'a TaskQueue<T>);
    impl<T> Drop for CloseOnDrop<'_, T> {
        fn drop(&mut self) {
            self.0.close();
        }
    }

    let workers = workers.max(1);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(item) = queue.pop() {
                    let _ = catch_unwind(AssertUnwindSafe(|| work(item)));
                }
            });
        }
        let _close = CloseOnDrop(queue);
        feeder()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn queue_is_fifo_for_a_single_consumer() {
        let q = TaskQueue::new();
        for i in 0..10 {
            q.push(i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: TaskQueue<u32> = TaskQueue::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn push_after_close_returns_the_item() {
        let q = TaskQueue::new();
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(2));
        // Accepted work is still drainable after close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn crew_processes_every_item_and_drains_on_feeder_exit() {
        let q = TaskQueue::new();
        let done = AtomicUsize::new(0);
        let fed = run_crew(
            4,
            &q,
            |_item: usize| {
                done.fetch_add(1, Ordering::Relaxed);
            },
            || {
                for i in 0..100 {
                    q.push(i).unwrap();
                }
                100
            },
        );
        assert_eq!(fed, 100);
        assert_eq!(done.load(Ordering::Relaxed), 100, "drain must finish queued work");
    }

    #[test]
    fn crew_contains_task_panics() {
        let q = TaskQueue::new();
        let done = AtomicUsize::new(0);
        run_crew(
            2,
            &q,
            |item: usize| {
                assert!(item != 7, "boom on 7");
                done.fetch_add(1, Ordering::Relaxed);
            },
            || {
                for i in 0..32 {
                    q.push(i).unwrap();
                }
            },
        );
        assert_eq!(
            done.load(Ordering::Relaxed),
            31,
            "all but the panicking task must complete"
        );
    }

    #[test]
    fn crew_closes_queue_when_feeder_panics() {
        let q: TaskQueue<usize> = TaskQueue::new();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_crew(2, &q, |_| {}, || panic!("feeder dies"));
        }));
        assert!(r.is_err(), "feeder panic propagates");
        // The queue must be closed — a fresh pop returns instead of blocking.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = TaskQueue::new();
        let seen = AtomicUsize::new(0);
        run_crew(
            3,
            &q,
            |_: usize| {
                seen.fetch_add(1, Ordering::Relaxed);
            },
            || {
                std::thread::scope(|s| {
                    for p in 0..4 {
                        let q = &q;
                        s.spawn(move || {
                            for i in 0..50 {
                                q.push(p * 50 + i).unwrap();
                            }
                        });
                    }
                });
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 200);
    }
}
