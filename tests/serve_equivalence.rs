//! The emprof-serve headline guarantee, enforced: events delivered by a
//! served session are **bit-for-bit identical** to
//! `Emprof::profile_magnitude` on the same signal — for any frame size,
//! any FLUSH pattern, and any number of concurrent sessions — and the
//! service's backpressure is bounded and observable.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use emprof::core::{Emprof, EmprofConfig, StallEvent};
use emprof::serve::{ProfileClient, ServeConfig, Server};
use proptest::prelude::*;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

fn batch_events(signal: &[f64]) -> Vec<StallEvent> {
    Emprof::new(config())
        .profile_magnitude(signal, FS, CLK)
        .events()
        .to_vec()
}

/// Arbitrary busy/dip signal (same generator family as prop_streaming).
fn build_signal(segments: &[(u16, u16, u8)]) -> Vec<f64> {
    let mut s = Vec::new();
    for (i, &(gap, dip, depth)) in segments.iter().enumerate() {
        let gap = 3 + gap as usize % 600;
        let dip = dip as usize % 160;
        let dip_level = 0.3 + (depth as f64 / 255.0) * 1.2;
        for k in 0..gap {
            s.push(5.0 + (((i * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        for k in 0..dip {
            s.push(dip_level + (((i * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
    }
    s.extend(std::iter::repeat_n(5.0, 400));
    s
}

/// Streams `signal` through a session in `frame`-sized sends, optionally
/// flushing mid-stream, and returns every event the server delivered.
fn serve_signal(
    server: &Server,
    signal: &[f64],
    frame: usize,
    flush_every: Option<usize>,
) -> Vec<StallEvent> {
    let mut client = ProfileClient::connect(server.local_addr(), "eq", config(), FS, CLK).unwrap();
    let mut events = Vec::new();
    for (i, chunk) in signal.chunks(frame).enumerate() {
        client.send(chunk).unwrap();
        if let Some(every) = flush_every {
            if (i + 1) % every == 0 {
                let (evs, stats) = client.flush().unwrap();
                assert!(!stats.final_report);
                events.extend(evs);
            }
        }
    }
    let (tail, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);
    events.extend(tail);
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random signals, random frame sizes in 1..8192, random mid-stream
    /// FLUSH cadence: the served events are the batch events.
    #[test]
    fn served_equals_batch_for_any_frame_size(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..16),
        frame in 1usize..8192,
        flush_every in 0usize..8, // 0 = never flush mid-stream
    ) {
        let signal = build_signal(&segments);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let served = serve_signal(&server, &signal, frame, (flush_every > 0).then_some(flush_every));
        prop_assert_eq!(served, batch_events(&signal));
        let stats = server.shutdown();
        prop_assert_eq!(stats.sheds, 0);
    }
}

#[test]
fn concurrent_sessions_each_equal_batch() {
    // 1..=8 concurrent sessions against one server, different signals
    // and frame sizes per session, all starting together.
    for sessions in [1usize, 4, 8] {
        let server = Arc::new(Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap());
        let barrier = Arc::new(Barrier::new(sessions));
        let handles: Vec<_> = (0..sessions)
            .map(|k| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let segments: Vec<(u16, u16, u8)> = (0..10)
                        .map(|j| {
                            let x = (k * 7919 + j * 104729) as u64;
                            (
                                (x % 601) as u16,
                                ((x / 601) % 160) as u16,
                                ((x / 96160) % 256) as u8,
                            )
                        })
                        .collect();
                    let signal = build_signal(&segments);
                    let frame = 13 + k * 977;
                    let flush = if k % 2 == 0 { Some(3) } else { None };
                    barrier.wait();
                    let served = serve_signal(&server, &signal, frame, flush);
                    assert_eq!(
                        served,
                        batch_events(&signal),
                        "session {k} of {sessions} diverged from batch"
                    );
                    (signal.len(), served.len())
                })
            })
            .collect();
        let mut total_samples = 0u64;
        let mut total_events = 0u64;
        for h in handles {
            let (samples, events) = h.join().expect("session thread panicked");
            total_samples += samples as u64;
            total_events += events as u64;
        }
        let server = Arc::into_inner(server).expect("all clients done");
        let stats = server.shutdown();
        assert_eq!(stats.samples_in, total_samples);
        assert_eq!(stats.events_total, total_events);
        assert_eq!(stats.sessions_opened, sessions as u64);
        assert_eq!(stats.sheds, 0);
    }
}

#[test]
fn backpressure_is_bounded_and_observable() {
    // A deliberately slow worker and a tiny queue: the reader must block
    // (recording backpressure time), the queue depth must never exceed
    // its bound, nothing may be shed, and the result must still be the
    // batch profile.
    let queue_frames = 4;
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            queue_frames,
            ingest_delay: Some(Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let segments: Vec<(u16, u16, u8)> = (0..24)
        .map(|j| ((j * 37) as u16, (j * 53) as u16, (j * 11) as u8))
        .collect();
    let signal = build_signal(&segments);
    let served = serve_signal(&server, &signal, 256, None);
    assert_eq!(served, batch_events(&signal));
    let stats = server.shutdown();
    assert_eq!(stats.sheds, 0, "backpressure mode must never drop samples");
    assert_eq!(stats.samples_in, signal.len() as u64);
    assert!(
        stats.peak_queue_depth <= queue_frames as u64,
        "queue depth {} exceeded bound {queue_frames}",
        stats.peak_queue_depth
    );
    assert!(
        stats.backpressure_ns > 0,
        "a slow worker and a tiny queue must record blocked time"
    );
}

#[test]
fn shed_mode_drops_and_counts() {
    // Same slow worker, but shedding on: the client never blocks for
    // long, dropped batches are counted, and the session still finishes
    // cleanly (its events are a subset produced from the surviving
    // samples — no equivalence claim, by design).
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            queue_frames: 2,
            shed: true,
            ingest_delay: Some(Duration::from_millis(5)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let signal = build_signal(
        &(0..40)
            .map(|j| ((j * 31) as u16, (j * 71) as u16, (j * 13) as u8))
            .collect::<Vec<_>>(),
    );
    let mut client =
        ProfileClient::connect(server.local_addr(), "shed", config(), FS, CLK).unwrap();
    for chunk in signal.chunks(64) {
        client.send(chunk).unwrap();
    }
    let (_, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    let totals = server.shutdown();
    assert!(
        totals.sheds > 0,
        "a 5 ms/batch worker behind a 2-frame queue must shed"
    );
    // Wire-level ingest counts everything received; the detector only
    // sees what survived the queue.
    assert_eq!(totals.samples_in, signal.len() as u64);
    assert!(
        stats.samples_pushed < signal.len() as u64,
        "shed batches must never reach the detector ({} pushed of {})",
        stats.samples_pushed,
        signal.len()
    );
}

#[test]
fn serve_telemetry_counters_are_recorded() {
    use emprof::obs;
    // Process-global telemetry: serialize against anything else that
    // toggles it (none in this binary, but stay defensive).
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let signal = build_signal(
        &(0..12)
            .map(|j| ((j * 41) as u16, (j * 67) as u16, (j * 17) as u8))
            .collect::<Vec<_>>(),
    );
    let served = serve_signal(&server, &signal, 512, Some(2));
    assert_eq!(served, batch_events(&signal));
    let stats = server.shutdown();
    let snapshot = obs::snapshot();
    obs::disable();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    // Exact values come from the server snapshot; obs counters are
    // process-wide so assert consistency, not isolation.
    assert!(counter("serve.frames_in") >= stats.frames_in);
    assert!(counter("serve.samples_in") >= stats.samples_in);
    assert!(counter("serve.events") >= stats.events_total);
    assert!(
        snapshot
            .spans
            .iter()
            .any(|(name, _)| name == "serve.session"),
        "serve.session span missing from telemetry"
    );
}
