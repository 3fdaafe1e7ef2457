//! Soak test for emprof-serve: concurrent sessions hammering one server
//! for a bounded duration, verifying the service's three load-bearing
//! claims under sustained load:
//!
//! 1. **zero lost events** — every session's served event stream equals
//!    the batch detector's output on the same signal, bit for bit;
//! 2. **bounded queues** — the peak per-session queue depth never
//!    exceeds the configured bound (backpressure, not buffering);
//! 3. **conserved counters** — server-wide samples/events equal the sum
//!    over sessions.
//!
//! `--smoke` runs 4 concurrent sessions for a few bounded rounds (CI
//! sized); full mode runs 8 sessions and ~10× the work. `--seconds N`
//! overrides the soak budget. Exits non-zero on any violation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use emprof_bench::soak::{self, batch_events, build_signal, config, CLK, FS};
use emprof_serve::{ProfileClient, ServeConfig, Server};

const QUEUE_FRAMES: usize = 16;

fn main() {
    let smoke = soak::smoke();
    let budget = soak::budget(10, 60);
    let sessions = if smoke { 4 } else { 8 };
    let segments = if smoke { 12 } else { 40 };

    println!(
        "serve soak: {sessions} concurrent sessions, {:?} budget ({} mode)",
        budget,
        if smoke { "smoke" } else { "full" }
    );

    let server = Arc::new(
        Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                queue_frames: QUEUE_FRAMES,
                ..ServeConfig::default()
            },
        )
        .expect("bind loopback server"),
    );
    let barrier = Arc::new(Barrier::new(sessions));
    let deadline = Instant::now() + budget;
    let total_samples = Arc::new(AtomicU64::new(0));
    let total_events = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..sessions)
        .map(|k| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let total_samples = Arc::clone(&total_samples);
            let total_events = Arc::clone(&total_events);
            std::thread::spawn(move || {
                barrier.wait();
                let frame = 64 + k * 997;
                let mut rounds = 0usize;
                let mut mismatches = 0usize;
                while Instant::now() < deadline {
                    let signal = build_signal(k, rounds, segments);
                    let mut client = ProfileClient::connect(
                        server.local_addr(),
                        &format!("soak-{k}"),
                        config(),
                        FS,
                        CLK,
                    )
                    .expect("open session");
                    let mut served = Vec::new();
                    for (i, chunk) in signal.chunks(frame).enumerate() {
                        client.send(chunk).expect("stream frame");
                        if (i + 1) % 4 == 0 {
                            let (events, _) = client.flush().expect("flush");
                            served.extend(events);
                        }
                    }
                    let (tail, stats) = client.finish().expect("finish");
                    served.extend(tail);
                    assert!(stats.final_report);
                    assert_eq!(stats.samples_pushed, signal.len() as u64);
                    if served != batch_events(&signal) {
                        mismatches += 1;
                    }
                    total_samples.fetch_add(signal.len() as u64, Ordering::Relaxed);
                    total_events.fetch_add(served.len() as u64, Ordering::Relaxed);
                    rounds += 1;
                }
                (rounds, mismatches)
            })
        })
        .collect();

    let mut rounds = 0usize;
    let mut mismatches = 0usize;
    for h in handles {
        let (r, m) = h.join().expect("session thread panicked");
        rounds += r;
        mismatches += m;
    }
    let server = Arc::into_inner(server).expect("all clients done");
    let stats = server.shutdown();

    println!(
        "{rounds} sessions completed: {} samples, {} events, peak queue depth {} \
         (bound {QUEUE_FRAMES}), backpressure {:.3}s, {} sheds",
        stats.samples_in,
        stats.events_total,
        stats.peak_queue_depth,
        stats.backpressure_ns as f64 / 1e9,
        stats.sheds,
    );

    let mut failures = Vec::new();
    if mismatches > 0 {
        failures.push(format!("{mismatches} sessions diverged from batch"));
    }
    if stats.samples_in != total_samples.load(Ordering::Relaxed) {
        failures.push(format!(
            "server counted {} samples, clients sent {}",
            stats.samples_in,
            total_samples.load(Ordering::Relaxed)
        ));
    }
    if stats.events_total != total_events.load(Ordering::Relaxed) {
        failures.push(format!(
            "server counted {} events, clients received {}",
            stats.events_total,
            total_events.load(Ordering::Relaxed)
        ));
    }
    if stats.peak_queue_depth > QUEUE_FRAMES as u64 {
        failures.push(format!(
            "peak queue depth {} exceeded bound {QUEUE_FRAMES}",
            stats.peak_queue_depth
        ));
    }
    if stats.sheds != 0 {
        failures.push(format!(
            "{} batches shed in backpressure mode",
            stats.sheds
        ));
    }
    if rounds == 0 {
        failures.push("no session completed a full round within the budget".into());
    }

    if failures.is_empty() {
        println!("serve soak PASS: zero lost events, bounded queues");
    } else {
        for f in &failures {
            eprintln!("serve soak FAIL: {f}");
        }
        std::process::exit(1);
    }
}
