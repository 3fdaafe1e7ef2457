//! Scoped-thread fork/join execution.
//!
//! Workers are plain [`std::thread::scope`] threads claiming item indices
//! from a shared atomic counter — cheap dynamic load balancing without a
//! persistent pool, work queues, or `unsafe`. The calling thread is one of
//! the workers: it claims items too instead of idling until the others
//! finish, so a call spawns one thread fewer than it runs on.

use std::sync::atomic::{AtomicUsize, Ordering};

use emprof_obs as obs;

use crate::Parallelism;

/// Applies `f` to every item, possibly in parallel, returning results in
/// item order.
///
/// With a sequential [`Parallelism`] (or fewer than two items) this is a
/// plain iterator map on the calling thread. Otherwise
/// `min(par.get(), items.len())` workers — the calling thread and that
/// many minus one scoped threads — claim indices from an atomic counter
/// and results are reassembled by index, so the output order — and,
/// because `f` sees one item at a time, the output *values* — are
/// identical to the sequential map for any thread count.
///
/// A panic in `f`, on any worker, propagates to the caller once every
/// spawned worker has finished, matching `std::thread::scope` semantics.
pub fn parallel_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if par.is_sequential() || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let _span = obs::span!("par.map");
    let threads = par.get().min(items.len());
    obs::gauge_set!("par.threads", threads as f64);
    let next = AtomicUsize::new(0);
    // One worker's share: every item it claims, with its index.
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        let mut shares = vec![claim()];
        for w in workers {
            // A worker's panic resumes here; the scope still joins the
            // other workers before it reaches the caller.
            shares.push(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        for (i, r) in shares.into_iter().flatten() {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item claimed by a worker"))
        .collect()
}

/// Produces a length-`len` vector by evaluating `f` over disjoint index
/// ranges in parallel and concatenating the pieces in order.
///
/// `f` must return exactly `range.len()` elements for its range. Ranges
/// tile `[0, len)`; how they are split across workers never affects the
/// output, only the wall-clock time.
pub fn map_ranges<R, F>(par: Parallelism, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<R> + Sync,
{
    if par.is_sequential() || len == 0 {
        return f(0..len);
    }
    let plan = crate::chunk::ChunkPlan::new(len, par.get(), 0);
    let pieces = parallel_map(par, plan.chunks(), |c| f(c.start..c.end));
    let mut out = Vec::with_capacity(len);
    for (piece, c) in pieces.into_iter().zip(plan.chunks()) {
        assert_eq!(
            piece.len(),
            c.len(),
            "range closure must produce exactly its range"
        );
        out.extend(piece);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_values() {
        let items: Vec<u64> = (0..997).collect();
        let seq = parallel_map(Parallelism::sequential(), &items, |&x| x * x);
        for threads in [2, 3, 8] {
            let par = parallel_map(Parallelism::new(threads), &items, |&x| x * x);
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn map_is_the_sequential_map_for_any_item_count() {
        for threads in [2, 4] {
            for n in [2, 3, 4, 5, 9] {
                let items: Vec<u64> = (0..n).map(|x| x * 7 + 1).collect();
                let seq: Vec<u64> = items.iter().map(|&x| x * x + 3).collect();
                let par = parallel_map(Parallelism::new(threads), &items, |&x| x * x + 3);
                assert_eq!(par, seq, "threads {threads}, items {n}");
            }
        }
    }

    /// Holds each of the first `threads` items until that many threads
    /// hold one, so every worker, the caller included, claims exactly one.
    fn one_item_per_worker(
        threads: usize,
        f: impl Fn(usize) + Sync,
    ) -> std::thread::Result<Vec<std::thread::ThreadId>> {
        let barrier = std::sync::Barrier::new(threads);
        let items: Vec<usize> = (0..threads).collect();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(Parallelism::new(threads), &items, |&i| {
                barrier.wait();
                f(i);
                std::thread::current().id()
            })
        }))
    }

    #[test]
    fn caller_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let ran = one_item_per_worker(4, |_| {}).expect("no panic");
        let distinct: std::collections::HashSet<_> = ran.iter().collect();
        assert_eq!(distinct.len(), 4, "{ran:?}");
        assert!(ran.contains(&caller), "the caller claimed no item");
    }

    #[test]
    fn panic_propagates_after_every_worker_joined() {
        use std::sync::atomic::AtomicBool;
        /// Counts an item out when it returns or unwinds.
        struct Live<'a>(&'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let caller = std::thread::current().id();
        // Once on the caller's item, once on one spawned worker's.
        for on_caller in [true, false] {
            let (live, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let worker_panicked = AtomicBool::new(false);
            let got = one_item_per_worker(4, |_| {
                live.fetch_add(1, Ordering::SeqCst);
                let _live = Live(&live);
                let mine = std::thread::current().id() == caller;
                if mine == on_caller && (mine || !worker_panicked.swap(true, Ordering::SeqCst)) {
                    panic!("boom");
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
                finished.fetch_add(1, Ordering::SeqCst);
            });
            assert!(got.is_err(), "on_caller {on_caller}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "on_caller {on_caller}");
            assert_eq!(finished.load(Ordering::SeqCst), 3, "on_caller {on_caller}");
        }
    }

    #[test]
    fn map_handles_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(Parallelism::new(4), &empty, |&x| x).is_empty());
        assert_eq!(
            parallel_map(Parallelism::new(4), &[7u32], |&x| x + 1),
            vec![8]
        );
    }

    #[test]
    fn map_ranges_concatenates_in_order() {
        let seq: Vec<usize> = (0..10_001).collect();
        for threads in [1, 2, 5] {
            let got = map_ranges(Parallelism::new(threads), seq.len(), |r| {
                r.collect::<Vec<usize>>()
            });
            assert_eq!(got, seq, "threads {threads}");
        }
    }

    #[test]
    fn map_ranges_empty() {
        let got: Vec<u8> = map_ranges(Parallelism::new(3), 0, |_| Vec::new());
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(Parallelism::new(4), &items, |&x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
