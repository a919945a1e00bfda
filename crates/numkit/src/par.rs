//! The workspace's one CPU fan-out: a bounded, order-preserving scoped map
//! and a two-way join.
//!
//! [`map`] runs at most [`std::thread::available_parallelism`] workers per
//! call, the calling thread being one of them. Workers claim items in input
//! order from a shared counter and the results come back in input order,
//! so callers see the same values a serial loop would produce; only the
//! number of threads running at once differs. The workers are scoped to
//! the call, so closures and items may borrow from the caller. The CPU
//! count is read once per process.
//!
//! **Nesting runs inline.** A [`map`] or [`join`] called from inside a
//! `map` worker (the calling thread included), or from either side of a
//! `join`, runs on the thread that called it: a nested `map` is a serial
//! loop and a nested `join` runs `a` then `b`. The bound of at most nproc
//! live workers therefore holds across nesting, not just per call, and a
//! library routine may use `par` internally without knowing whether its
//! caller already fans out: called alone it gets every CPU, called from a
//! fan-out it adds no threads. A thread-local flag marks the workers; a
//! drop guard restores it, so it survives an unwind. A `map` over one item
//! runs that item on the caller without setting the flag, so the item's
//! own nested calls still fan out.
//!
//! A panic inside a worker stops that worker only: the other workers keep
//! claiming items until none are left, and the panic is then re-raised on
//! the caller with its original payload. An inline `join` keeps the same
//! contract: it runs both closures and then re-raises.
//!
//! ```
//! let squares = numkit::par::map((0..10u64).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! let (a, b) = numkit::par::join(|| "left", || 2);
//! assert_eq!((a, b), ("left", 2));
//! ```

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// [`thread::available_parallelism`], read once per process: each call
/// reads the cgroup limits anew, and std's docs advise caching it.
fn parallelism() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

thread_local! {
    /// Set while this thread runs as a `map` worker or a side of a `join`.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a worker until dropped, then restores the
/// previous mark — on an unwind too.
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> Self {
        WorkerMark(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Maps `f` over `items` on at most `available_parallelism()` workers and
/// returns the results in input order. Called from inside a worker, it
/// runs serially on the calling thread (see the module docs).
///
/// # Panics
///
/// Re-raises a worker's panic on the caller once every worker has stopped.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = if in_worker() { 1 } else { parallelism().min(n) };
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each slot is taken exactly once, by the worker that claimed its index.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let _mark = WorkerMark::set();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let item = slot
                .lock()
                .expect("slot lock is never held across a panic")
                .take()
                .expect("each index is claimed once");
            done.push((i, f(item)));
        }
    };
    let finished: Vec<(usize, R)> = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut finished = work();
        for helper in helpers {
            finished.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        finished
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in finished {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Runs `a` on a scoped worker and `b` on the calling thread, returning
/// both results. Called from inside a worker, or with one CPU, it runs `a`
/// and then `b` on the calling thread (see the module docs).
///
/// # Panics
///
/// Re-raises a panic of either closure after both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if in_worker() || parallelism() == 1 {
        let a = catch_unwind(AssertUnwindSafe(a));
        let b = b();
        return (a.unwrap_or_else(|p| resume_unwind(p)), b);
    }
    thread::scope(|s| {
        let a = s.spawn(|| {
            let _mark = WorkerMark::set();
            a()
        });
        let b = {
            let _mark = WorkerMark::set();
            b()
        };
        (a.join().unwrap_or_else(|p| resume_unwind(p)), b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn map_preserves_input_order() {
        let p = parallelism();
        for n in [0, 1, p, 10 * p] {
            let out = map((0..n).collect(), |i| i * 3);
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>(), "n = {n}");
        }
    }

    /// Counts the threads inside `body` at once and the peak of that count.
    #[derive(Default)]
    struct Live {
        now: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Live {
        fn run<R>(&self, body: impl FnOnce() -> R) -> R {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(2));
            let r = body();
            self.now.fetch_sub(1, Ordering::SeqCst);
            r
        }

        fn peak(&self) -> usize {
            self.peak.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn map_never_runs_more_workers_than_cpus() {
        let live = Live::default();
        map((0..8 * parallelism()).collect(), |_| live.run(|| ()));
        let peak = live.peak();
        assert!(peak >= 1 && peak <= parallelism(), "peak {peak}");
    }

    /// The bound holds across nesting: a `map` inside a `map`, and a `map`
    /// on each side of a `join`, run inline on the enclosing workers.
    #[test]
    fn nested_calls_never_run_more_workers_than_cpus() {
        let p = parallelism();
        let live = Live::default();
        let inner = |i: usize| map((0..4 * p).collect(), |j| live.run(|| i * 100 + j));
        let out = map((0..2 * p).collect(), inner);
        assert!(live.peak() <= p, "map in map: peak {}", live.peak());
        for (i, row) in out.iter().enumerate() {
            assert_eq!(*row, (0..4 * p).map(|j| i * 100 + j).collect::<Vec<_>>());
        }

        let live = Live::default();
        let (a, b) = join(
            || map((0..4 * p).collect(), |j| live.run(|| j)),
            || map((0..4 * p).collect(), |j| live.run(|| 2 * j)),
        );
        assert!(live.peak() <= p, "map in join: peak {}", live.peak());
        assert_eq!(a, (0..4 * p).collect::<Vec<_>>());
        assert_eq!(b, (0..4 * p).map(|j| 2 * j).collect::<Vec<_>>());
    }

    /// A panic inside a nested (inline) call reaches the outermost caller
    /// with its payload; an inline `join` still runs its second closure
    /// first. Afterwards the caller is no longer marked, and a top-level
    /// `map` fans out again.
    #[test]
    fn nested_panics_reach_the_outer_caller_and_leave_no_mark() {
        let caught = std::panic::catch_unwind(|| {
            map((0..4).collect(), |i: usize| {
                map((0..4).collect(), |j: usize| {
                    if (i, j) == (2, 1) {
                        panic!("inner {i}.{j}");
                    }
                })
            })
        });
        let payload = caught.expect_err("the nested panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "inner 2.1");

        let ran_b = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            join(
                || {
                    join(
                        || panic!("inner join"),
                        || ran_b.fetch_add(1, Ordering::SeqCst),
                    )
                },
                || (),
            )
        });
        let payload = caught.expect_err("the nested join panic reaches the caller");
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "inner join");
        assert_eq!(ran_b.load(Ordering::SeqCst), 1);

        assert!(!in_worker());
        // Each item waits (up to a generous deadline) until two threads
        // have run items, so the count does not depend on start-up timing.
        let threads = Mutex::new(std::collections::HashSet::new());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        map((0..2 * parallelism()).collect(), |_| {
            threads.lock().unwrap().insert(thread::current().id());
            while parallelism() > 1
                && threads.lock().unwrap().len() < 2
                && std::time::Instant::now() < deadline
            {
                thread::sleep(Duration::from_millis(1));
            }
        });
        let used = threads.lock().unwrap().len();
        assert_eq!(used > 1, parallelism() > 1, "{used} threads");
    }

    #[test]
    fn a_panicking_item_reraises_after_the_others_finish() {
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            map((0..20).collect(), |i: usize| {
                if i == 3 {
                    panic!("item {i} failed");
                }
                thread::sleep(Duration::from_millis(1));
                ran.fetch_add(1, Ordering::SeqCst);
            })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 3 failed");
        // With one CPU the caller is the only worker, so nothing is left to
        // run the items after the panicking one.
        if parallelism() > 1 {
            assert_eq!(ran.load(Ordering::SeqCst), 19);
        }
    }

    #[test]
    fn nested_map_terminates() {
        let out = map((0..4).collect(), |i: usize| {
            map((0..4).collect(), |j: usize| i * 4 + j)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(out, vec![6, 22, 38, 54]);
    }

    #[test]
    fn join_returns_both_values() {
        let data = [1.5, 2.5];
        let (sum, label) = join(|| data.iter().sum::<f64>(), || format!("{}", data.len()));
        assert_eq!((sum, label.as_str()), (4.0, "2"));
    }
}
