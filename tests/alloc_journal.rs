//! Proof that the journaled SAMPLES path is allocation-free per frame.
//!
//! A counting global allocator wraps the system allocator. Each SAMPLES
//! frame goes the way a journaled server takes it: decoded zero-copy by
//! [`proto::decode_frame_view`], appended to an open `SessionJournal` as
//! the payload bytes that arrived with their verified CRC
//! (`append_samples_raw`), and copied into a warm pooled sample buffer.
//! Over 64 frames, with segments large enough that the journal never
//! rolls, those steps together allocate **nothing**.
//!
//! Kept to a single `#[test]` so no concurrent test in this binary can
//! perturb the allocation counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use emprof::core::EmprofConfig;
use emprof::serve::proto::{self, FrameView};
use emprof::store::{JournalConfig, SessionJournal, SessionMeta};

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
fn journaled_samples_path_is_allocation_free() {
    const FRAMES: u64 = 64;
    const SAMPLES_PER_FRAME: usize = 8192;

    let dir = std::env::temp_dir().join(format!("emprof-alloc-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = SessionMeta {
        session_id: 1,
        resume_token: 2,
        sample_rate_hz: 40e6,
        clock_hz: 1.0e9,
        config: EmprofConfig::for_rates(40e6, 1.0e9),
        device: "alloc".into(),
    };
    let cfg = JournalConfig {
        segment_bytes: 1 << 30,
        ..JournalConfig::default()
    };
    let mut journal = SessionJournal::create(&dir, meta, cfg).expect("create journal");

    // The wire stream, frame 0 for warming up (allocation here is fine).
    let frames: Vec<Vec<u8>> = (0..=FRAMES)
        .map(|seq| {
            let samples: Vec<f64> = (0..SAMPLES_PER_FRAME)
                .map(|i| 5.0 + (seq as f64) * 0.01 + (i % 97) as f64 * 0.001)
                .collect();
            proto::encode_samples(seq + 1, &samples)
        })
        .collect();
    let mut pooled: Vec<f64> = Vec::new();
    let mut ingest = |wire: &[u8], pooled: &mut Vec<f64>| {
        let Ok((FrameView::Samples(v), used)) = proto::decode_frame_view(wire) else {
            panic!("a well-formed SAMPLES frame");
        };
        assert_eq!(used, wire.len());
        journal
            .append_samples_raw(v.payload(), v.crc())
            .expect("journal append");
        pooled.clear();
        v.copy_into(pooled);
    };
    // One lap warms the journal's frame buffer and the pooled buffer.
    ingest(&frames[0], &mut pooled);

    let mut checksum = 0.0;
    let allocs = count_allocations(|| {
        for wire in &frames[1..] {
            ingest(wire, &mut pooled);
            checksum += pooled[0] + pooled[SAMPLES_PER_FRAME - 1];
        }
    });
    assert!(checksum.is_finite());
    assert_eq!(
        allocs, 0,
        "decode, raw journal append and pooled copy allocated {allocs} times over {FRAMES} frames"
    );
    assert_eq!(journal.stats().segments, 1, "the journal must not roll");
    assert_eq!(
        journal.stats().next_index,
        FRAMES + 2,
        "meta, then every frame"
    );

    // Sanity: the decoded append of the same batch, through an owned
    // decode, does allocate, so the counter is wired.
    let owned_allocs = count_allocations(|| {
        let (frame, _) = proto::decode_frame(&frames[0]).expect("well-formed frame");
        assert!(matches!(frame, proto::Frame::Samples { .. }));
    });
    assert!(owned_allocs > 0, "is the counting allocator wired?");
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}
