//! A bounded MPSC work queue with explicit backpressure.
//!
//! Each session owns one of these between its connection reader and the
//! worker pool. The bound is the server's memory guarantee: a client
//! that produces faster than the workers consume fills the queue, and
//! the reader then *blocks* — which stops reading the socket, which
//! fills the kernel buffers, which stalls the client's writes. That is
//! the whole backpressure chain; nothing in the server buffers
//! unboundedly. Opting into shed mode trades that guarantee for
//! liveness: a full queue drops its **oldest** batch (and counts it)
//! instead of blocking.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What a blocking push did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushReceipt {
    /// Nanoseconds the pusher spent blocked waiting for space.
    pub blocked_ns: u64,
    /// Items dropped to make room (always 0 for blocking pushes).
    pub shed: usize,
    /// Queue depth right after the push.
    pub depth: usize,
}

/// A bounded FIFO of work items.
///
/// `push_*` is called by the connection reader, `try_pop` by workers;
/// both sides may be multiple threads (workers racing for the same
/// session serialize on the session lock, not here). Each push reports
/// the depth it reached in its [`PushReceipt`]; the server folds those
/// into its peak queue depth.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    space: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Pushes, blocking while the queue is full. Returns how long the
    /// call was blocked (the backpressure signal) and the new depth.
    pub fn push_blocking(&self, item: T) -> PushReceipt {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut blocked_ns = 0;
        if q.len() >= self.capacity {
            let t0 = Instant::now();
            while q.len() >= self.capacity {
                q = self.space.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            blocked_ns = t0.elapsed().as_nanos() as u64;
        }
        q.push_back(item);
        let depth = q.len();
        drop(q);
        PushReceipt {
            blocked_ns,
            shed: 0,
            depth,
        }
    }

    /// Pushes without ever blocking: while the queue is full, the oldest
    /// item satisfying `can_shed` is dropped to make room. Items that
    /// must not be dropped (control markers carrying reply channels) are
    /// skipped; if nothing is sheddable the push falls back to blocking.
    pub fn push_shedding<F: Fn(&T) -> bool>(&self, item: T, can_shed: F) -> PushReceipt {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut shed = 0;
        let mut blocked_ns = 0;
        while q.len() >= self.capacity {
            match q.iter().position(&can_shed) {
                Some(pos) => {
                    q.remove(pos);
                    shed += 1;
                }
                None => {
                    // Nothing sheddable: wait for space without releasing
                    // the lock first. Re-entering push_blocking after an
                    // unlock would let another pusher take the freed slot
                    // and leave this push racing for capacity it already
                    // observed.
                    let t0 = Instant::now();
                    while q.len() >= self.capacity {
                        q = self.space.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    blocked_ns = t0.elapsed().as_nanos() as u64;
                    break;
                }
            }
        }
        q.push_back(item);
        let depth = q.len();
        drop(q);
        PushReceipt {
            blocked_ns,
            shed,
            depth,
        }
    }

    /// Pops the oldest item, if any, waking one blocked pusher.
    pub fn try_pop(&self) -> Option<T> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let item = q.pop_front();
        if item.is_some() {
            self.space.notify_one();
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.capacity(), 3);
        for i in 0..3 {
            assert_eq!(q.push_blocking(i).depth, i + 1);
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push_blocking(7u32);
        assert_eq!(q.try_pop(), Some(7));
    }

    #[test]
    fn full_queue_blocks_until_popped() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_blocking(1u32);
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push_blocking(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.try_pop(), Some(1));
        let receipt = pusher.join().unwrap();
        assert!(
            receipt.blocked_ns > 0,
            "push into a full queue must report blocked time"
        );
        assert_eq!(q.try_pop(), Some(2));
    }

    #[test]
    fn shedding_drops_oldest_sheddable() {
        let q = BoundedQueue::new(2);
        // 10 is "unsheddable" (a control marker), the rest are batches.
        q.push_blocking(10u32);
        q.push_blocking(1);
        let r = q.push_shedding(2, |&x| x < 10);
        assert_eq!(r.shed, 1);
        assert_eq!(q.try_pop(), Some(10), "control marker survives shedding");
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn depth_never_exceeds_capacity_under_shedding() {
        let q = BoundedQueue::new(4);
        for i in 0..100u32 {
            let r = q.push_shedding(i, |_| true);
            assert!(r.depth <= 4);
        }
    }
}
