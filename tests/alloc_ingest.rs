//! Proof that the serve SAMPLES decode path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; the test
//! decodes a stream of SAMPLES frames via [`proto::decode_frame_view`]
//! into a reusable, preallocated sample buffer — the exact shape of the
//! server's connection-reader hot path with a warm buffer pool — and
//! asserts that **zero** heap allocations happen per frame.
//!
//! Kept to a single `#[test]` so no concurrent test in this binary can
//! perturb the allocation counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use emprof::serve::proto::{self, Frame, FrameView, MAX_SAMPLES_PER_FRAME};

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
fn samples_decode_path_is_allocation_free() {
    const FRAMES: usize = 64;
    const SAMPLES_PER_FRAME: usize = 1024;
    assert!(SAMPLES_PER_FRAME <= MAX_SAMPLES_PER_FRAME as usize);

    // Build the wire stream up front (allocation here is fine).
    let mut wire = Vec::new();
    for seq in 0..FRAMES as u64 {
        let samples: Vec<f64> = (0..SAMPLES_PER_FRAME)
            .map(|i| (seq as f64) + (i as f64) * 0.001)
            .collect();
        wire.extend_from_slice(&proto::encode_frame(&Frame::Samples {
            seq: seq + 1,
            samples,
        }));
    }

    // Warm reusable state: one sample buffer with enough capacity, the
    // way a pooled buffer arrives at the decoder after its first lap.
    let mut samples_buf: Vec<f64> = Vec::with_capacity(SAMPLES_PER_FRAME);
    let mut decoded_frames = 0usize;
    let mut checksum = 0.0f64;

    let allocs = count_allocations(|| {
        let mut cursor = &wire[..];
        while !cursor.is_empty() {
            let (view, consumed) = proto::decode_frame_view(cursor).expect("well-formed frame");
            match view {
                FrameView::Samples(v) => {
                    samples_buf.clear();
                    v.copy_into(&mut samples_buf);
                    decoded_frames += 1;
                    // Consume the samples so the copy cannot be elided.
                    checksum += samples_buf.first().copied().unwrap_or(0.0)
                        + samples_buf.last().copied().unwrap_or(0.0);
                }
                FrameView::Owned(_) => unreachable!("stream holds only SAMPLES frames"),
            }
            cursor = &cursor[consumed..];
        }
    });

    assert_eq!(decoded_frames, FRAMES);
    assert!(checksum.is_finite());
    assert_eq!(
        allocs, 0,
        "SAMPLES decode path allocated {allocs} times over {FRAMES} frames; \
         zero-copy contract broken"
    );

    // Sanity: the owned decode of the same stream DOES allocate (this
    // guards against the counter silently not working).
    let owned_allocs = count_allocations(|| {
        let (frame, _) = proto::decode_frame(&wire).expect("well-formed frame");
        assert!(matches!(frame, Frame::Samples { .. }));
    });
    assert!(
        owned_allocs > 0,
        "owned decode should allocate; is the counting allocator wired?"
    );
}
