//! The workspace's one CPU fan-out: a bounded, order-preserving scoped map
//! and a two-way join.
//!
//! [`map`] runs at most [`std::thread::available_parallelism`] workers per
//! call, the calling thread being one of them. Workers claim items in input
//! order from a shared counter and the results come back in input order,
//! so callers see the same values a serial loop would produce; only the
//! number of threads running at once differs. The workers are scoped to
//! the call, so closures and items may borrow from the caller.
//!
//! A panic inside a worker stops that worker only: the other workers keep
//! claiming items until none are left, and the panic is then re-raised on
//! the caller with its original payload.
//!
//! ```
//! let squares = numkit::par::map((0..10u64).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! let (a, b) = numkit::par::join(|| "left", || 2);
//! assert_eq!((a, b), ("left", 2));
//! ```

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

fn parallelism() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Maps `f` over `items` on at most `available_parallelism()` workers and
/// returns the results in input order.
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
    let workers = parallelism().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each slot is taken exactly once, by the worker that claimed its index.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
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
/// both results.
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
    thread::scope(|s| {
        let a = s.spawn(a);
        let b = b();
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

    #[test]
    fn map_never_runs_more_workers_than_cpus() {
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        map((0..8 * parallelism()).collect(), |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak >= 1 && peak <= parallelism(), "peak {peak}");
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
