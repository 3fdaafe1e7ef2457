//! Serve scenario: concurrent sessions hammering one server, verifying
//! the service's three load-bearing claims under sustained load:
//!
//! 1. **zero lost events** — every session's served event stream equals
//!    the batch detector's output on the same signal, bit for bit;
//! 2. **bounded queues** — workers slowed by an ingest delay let the
//!    sessions fill their queues, and the peak per-session queue depth
//!    reaches the configured bound but never exceeds it (backpressure,
//!    not buffering);
//! 3. **conserved counters** — server-wide samples/events equal the sum
//!    over sessions.

use std::time::Duration;

use emprof_bench::soak::{Faults, Soak};
use emprof_serve::{ServeConfig, Server};

/// Rounds per session.
pub const ROUNDS: usize = 1_500;
const SESSIONS: usize = 4;
const SEGMENTS: usize = 12;
/// A session flushes every 4 frames and waits for the reply, so a bound
/// of 3 is the largest its SAMPLES frames can fill and wait on; an
/// off-by-one admission shows as a depth of 4.
const QUEUE_FRAMES: usize = 3;
/// Per-batch worker delay: long enough that a session's frames arrive
/// faster than its worker drains them.
const INGEST_DELAY: Duration = Duration::from_micros(50);

pub fn run(soak: &Soak) -> &'static str {
    println!(
        "serve soak: {SESSIONS} concurrent sessions x {} rounds",
        soak.rounds()
    );
    let config = ServeConfig {
        queue_frames: QUEUE_FRAMES,
        ingest_delay: Some(INGEST_DELAY),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback server");
    let addr = server.local_addr();
    let t = soak.stream_sessions(addr, SESSIONS, SEGMENTS, Faults::default());
    let stats = server.shutdown();

    println!(
        "{} sessions completed: {} samples, {} events, peak queue depth {} \
         (bound {QUEUE_FRAMES}), backpressure {:.3}s, {} sheds",
        t.rounds,
        stats.samples_in,
        stats.events_total,
        stats.peak_queue_depth,
        stats.backpressure_ns as f64 / 1e9,
        stats.sheds,
    );

    if stats.samples_in != t.samples {
        soak.fail(format!(
            "server counted {} samples, clients sent {}",
            stats.samples_in, t.samples
        ));
    }
    if stats.events_total != t.events {
        soak.fail(format!(
            "server counted {} events, clients received {}",
            stats.events_total, t.events
        ));
    }
    if stats.peak_queue_depth != QUEUE_FRAMES as u64 {
        soak.fail(format!(
            "peak queue depth {} against bound {QUEUE_FRAMES}: {}",
            stats.peak_queue_depth,
            if stats.peak_queue_depth > QUEUE_FRAMES as u64 {
                "the bound was exceeded"
            } else {
                "the bound was never reached, so it went untested"
            }
        ));
    }
    if stats.backpressure_ns == 0 {
        soak.fail("no push ever waited on a full queue: backpressure went untested");
    }
    if stats.sheds != 0 {
        soak.fail(format!("{} batches shed in backpressure mode", stats.sheds));
    }
    "zero lost events, bounded queues"
}
