//! Scoped-thread fork/join execution.
//!
//! Workers are plain [`std::thread::scope`] threads claiming item indices
//! from a shared atomic counter — cheap dynamic load balancing without a
//! persistent pool, work queues, or `unsafe`. Thread spawn cost (a few
//! tens of microseconds) is negligible against the multi-million-sample
//! chunks the pipeline feeds through here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use emprof_obs as obs;

use crate::Parallelism;

/// Applies `f` to every item, possibly in parallel, returning results in
/// item order.
///
/// With a sequential [`Parallelism`] (or fewer than two items) this is a
/// plain iterator map on the calling thread. Otherwise
/// `min(par.get(), items.len())` scoped workers claim indices from an
/// atomic counter and results are reassembled by index, so the output
/// order — and, because `f` sees one item at a time, the output *values*
/// — are identical to the sequential map for any thread count.
///
/// A panic in `f` propagates to the caller once all workers have
/// finished, matching `std::thread::scope` semantics.
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
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // A send only fails when the collector is gone (it
                // panicked); stop and let the scope unwind.
                if tx.send((i, f(&items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // The channel closes when every worker has exited, panicked or
        // not, so this loop always terminates.
        for (i, r) in rx {
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
