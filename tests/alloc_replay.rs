//! Proof that a replay buffer's frame cycle is allocation-free.
//!
//! A counting global allocator wraps the system allocator. Frames go
//! through a `ReplayBuffer` the way its two owners take them: the client
//! encodes each SAMPLES frame into a spare buffer and pushes it, the
//! router copies each sealed frame that arrived into a spare buffer and
//! pushes it, and both prune through the acknowledged sequence, which
//! hands the buffers back for the next frames. Once one window of
//! frames has warmed the spares, the cycle allocates **nothing**.
//!
//! Kept to a single `#[test]` so no concurrent test in this binary can
//! perturb the allocation counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use emprof::serve::net::ReplayBuffer;
use emprof::serve::proto;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn replay_frame_cycle_is_allocation_free() {
    /// Frames between acknowledgements: the client's default window of
    /// 64 unacknowledged frames, plus the one that triggers its flush.
    const WINDOW: u64 = 65;
    const WINDOWS: u64 = 8;
    const SAMPLES_PER_FRAME: usize = 8192;

    let samples: Vec<f64> = (0..SAMPLES_PER_FRAME).map(|i| i as f64 * 0.25).collect();
    // The router side copies frames that arrived sealed.
    let arrived = proto::encode_samples(1, &samples);

    let mut client = ReplayBuffer::default();
    let mut router = ReplayBuffer::default();
    let mut seq = 0u64;
    let mut window = |client: &mut ReplayBuffer, router: &mut ReplayBuffer| {
        for _ in 0..WINDOW {
            seq += 1;
            let mut frame = client.spare();
            proto::encode_samples_into(&mut frame, seq, &samples);
            client.push(seq, frame);
            let mut sealed = router.spare();
            sealed.extend_from_slice(&arrived);
            router.push(seq, sealed);
        }
        assert_eq!(
            (client.len(), router.len()),
            (WINDOW as usize, WINDOW as usize)
        );
        client.prune_through(seq);
        router.prune_through(seq);
    };

    // The first window allocates its frames; pruning keeps them.
    let warm = count_allocations(|| window(&mut client, &mut router));
    assert!(
        warm >= 2 * WINDOW,
        "the first window must allocate its frames; is the counting allocator wired?"
    );

    let allocs = count_allocations(|| {
        for _ in 0..WINDOWS {
            window(&mut client, &mut router);
        }
    });
    assert_eq!(
        allocs,
        0,
        "the replay cycle allocated {allocs} times over {} frames",
        2 * WINDOW * WINDOWS
    );

    // The recycled buffers still carry exactly the frames pushed.
    let mut frame = client.spare();
    proto::encode_samples_into(&mut frame, 7, &samples);
    assert_eq!(frame, proto::encode_samples(7, &samples));
}
