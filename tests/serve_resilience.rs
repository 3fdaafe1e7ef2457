//! Resilience properties of the profiling service.
//!
//! A transport loss at *any* frame boundary must be invisible in the
//! result: the client reconnects, resumes its session with the HELLO
//! resume token, replays unacknowledged frames, and the served event
//! stream ends up bit-for-bit identical to an uninterrupted run. Plus
//! directed tests for server heartbeats (quiet connections stay
//! provably alive) and the resume window (a reaped session refuses to
//! resume instead of silently restarting).
//!
//! The exactly-once section exercises the §10 kill window: a reply
//! lost *after* the server finalized and offered events but *before*
//! the client consumed them, and a full server process crash with a
//! `--journal` directory — both must yield an event stream bit-for-bit
//! identical to the batch detector's.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use emprof::core::{Emprof, EmprofConfig};
use emprof::serve::{
    ClientConfig, ClientError, ErrorCode, MetricsClient, ProfileClient, ServeConfig, Server,
    WatchClient,
};
use proptest::prelude::*;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

/// Aggressive reconnect knobs so proptest cases stay fast.
fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        max_reconnects: 8,
        ..ClientConfig::default()
    }
}

/// Arbitrary busy/dip signal (same family as the detector properties).
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
    s.extend(std::iter::repeat_n(5.0, 500));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Killing the connection at arbitrary SAMPLES-frame boundaries —
    /// including right before a FLUSH — never changes the served events:
    /// they equal the local batch profile, which is what an
    /// uninterrupted session provably returns (serve_equivalence).
    #[test]
    fn resume_at_any_frame_boundary_is_invisible(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..10),
        frame in 32usize..2048,
        drops in prop::collection::vec(any::<u16>(), 1..6),
        trailing_drop in any::<bool>(),
        flush_every in 2usize..5,
    ) {
        let signal = build_signal(&segments);
        let expected = Emprof::new(config())
            .profile_magnitude(&signal, FS, CLK)
            .events()
            .to_vec();

        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = ProfileClient::connect_with(
            server.local_addr(),
            "resilience-prop",
            config(),
            FS,
            CLK,
            client_config(),
        )
        .expect("open session");

        let chunks: Vec<&[f64]> = signal.chunks(frame).collect();
        let drop_at: BTreeSet<usize> =
            drops.iter().map(|&d| d as usize % chunks.len()).collect();
        let mut served = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            if drop_at.contains(&i) {
                client.drop_connection();
            }
            client.send(chunk).expect("send survives transport loss");
            if (i + 1) % flush_every == 0 {
                let (events, _) = client.flush().expect("flush survives");
                served.extend(events);
            }
        }
        if trailing_drop {
            // A loss after the last frame, healed by finish itself.
            client.drop_connection();
        }
        let resumes = client.reconnects();
        let (tail, stats) = client.finish().expect("finish survives");
        served.extend(tail);

        prop_assert!(stats.final_report);
        prop_assert_eq!(stats.samples_pushed, signal.len() as u64);
        prop_assert!(resumes >= 1, "a forced drop never triggered a resume");
        prop_assert_eq!(served, expected);
        server.shutdown();
    }

    /// The §10 kill window, client side: replies lost at arbitrary
    /// points — the server has finalized and *offered* the events, the
    /// client never consumed or acknowledged them — must be exactly-once
    /// invisible: no event lost, none duplicated, stream bit-identical
    /// to batch.
    #[test]
    fn lost_replies_at_any_point_stay_exactly_once(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..10),
        frame in 32usize..2048,
        lost_at in prop::collection::vec(any::<u16>(), 1..5),
        flush_every in 2usize..5,
    ) {
        let signal = build_signal(&segments);
        let expected = Emprof::new(config())
            .profile_magnitude(&signal, FS, CLK)
            .events()
            .to_vec();

        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = ProfileClient::connect_with(
            server.local_addr(),
            "lost-reply-prop",
            config(),
            FS,
            CLK,
            client_config(),
        )
        .expect("open session");

        let chunks: Vec<&[f64]> = signal.chunks(frame).collect();
        let lose_at: BTreeSet<usize> =
            lost_at.iter().map(|&d| d as usize % chunks.len()).collect();
        let mut served = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            client.send(chunk).expect("send survives");
            if lose_at.contains(&i) {
                // The doomed exchange: the server completes the flush
                // and writes the reply; the client discards it un-acked
                // and severs. The events are now in the delivery window.
                client.flush_lost_reply().expect("lost-reply flush");
            }
            if (i + 1) % flush_every == 0 {
                let (events, _) = client.flush().expect("flush survives");
                served.extend(events);
            }
        }
        let (tail, stats) = client.finish().expect("finish survives");
        served.extend(tail);

        prop_assert!(stats.final_report);
        prop_assert_eq!(stats.samples_pushed, signal.len() as u64);
        prop_assert_eq!(served, expected);
        server.shutdown();
    }
}

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_journal_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emprof-resilience-journal-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaled_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        journal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// The §10 kill window, process side: the server is *killed* (no
/// finalize, journals left as a crash would leave them) mid-stream and
/// right inside the delivery window of a lost reply, restarted on a
/// fresh port, and the redirected client resumes — three crashes deep,
/// the event stream is still bit-identical to batch.
#[test]
fn server_restart_with_journal_is_exactly_once() {
    let dir = fresh_journal_dir();
    let signal = build_signal(&[
        (900, 40, 200),
        (500, 80, 120),
        (700, 25, 255),
        (400, 60, 80),
    ]);
    let expected = Emprof::new(config())
        .profile_magnitude(&signal, FS, CLK)
        .events()
        .to_vec();

    let mut server = Server::bind("127.0.0.1:0", journaled_config(&dir)).unwrap();
    let mut client = ProfileClient::connect_with(
        server.local_addr(),
        "restart",
        config(),
        FS,
        CLK,
        client_config(),
    )
    .unwrap();

    let chunks: Vec<&[f64]> = signal.chunks(777).collect();
    let crash_points: BTreeSet<usize> = [chunks.len() / 4, chunks.len() / 2, 3 * chunks.len() / 4]
        .into_iter()
        .collect();
    let mut served = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        client.send(chunk).expect("send survives restarts");
        if crash_points.contains(&i) {
            // Land the crash inside the delivery window: the reply to
            // this flush is offered, unconsumed, unacked — and then the
            // whole process dies.
            client.flush_lost_reply().expect("doomed flush");
            server.kill();
            server = Server::bind("127.0.0.1:0", journaled_config(&dir)).unwrap();
            client.redirect(server.local_addr()).unwrap();
        }
        if (i + 1) % 3 == 0 {
            let (events, _) = client.flush().expect("flush survives restarts");
            served.extend(events);
        }
    }
    let resumes = client.reconnects();
    let (tail, stats) = client.finish().expect("finish survives restarts");
    served.extend(tail);

    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);
    assert!(
        resumes >= crash_points.len() as u64,
        "restarts never resumed"
    );
    assert_eq!(
        served, expected,
        "restarted delivery lost or duplicated events"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled session whose FIN reply is acknowledged is *done*: its
/// journal directory is deleted, and a server restart does not
/// resurrect it.
#[test]
fn acked_fin_compacts_the_journal_away() {
    let dir = fresh_journal_dir();
    let server = Server::bind("127.0.0.1:0", journaled_config(&dir)).unwrap();
    let mut client = ProfileClient::connect_with(
        server.local_addr(),
        "acked-fin",
        config(),
        FS,
        CLK,
        client_config(),
    )
    .unwrap();
    let signal = build_signal(&[(800, 40, 200)]);
    client.send(&signal).unwrap();
    let (_, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    // The ack arrives asynchronously after finish() returns; the
    // session (and its journal dir) disappears within a poll or two.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let dirs = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        if dirs == 0 || std::time::Instant::now() > deadline {
            assert_eq!(dirs, 0, "acked+finished session journal was not deleted");
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    let restarted = Server::bind("127.0.0.1:0", journaled_config(&dir)).unwrap();
    assert_eq!(
        restarted.sessions_active(),
        0,
        "finished session resurrected"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quiet server connection emits heartbeats, and the client absorbs
/// them without losing frame sync: after an idle spell that queued
/// several heartbeats in the socket, the very next FIN round trip still
/// parses cleanly and returns the full profile.
#[test]
fn heartbeats_keep_quiet_connections_alive() {
    emprof::obs::reset();
    emprof::obs::enable();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            heartbeat_interval: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = ProfileClient::connect_with(
        server.local_addr(),
        "heartbeat-test",
        config(),
        FS,
        CLK,
        ClientConfig {
            read_timeout: Duration::from_millis(400),
            max_reconnects: 0, // a desync here would be fatal, not healed
            ..ClientConfig::default()
        },
    )
    .unwrap();
    client.send(&[5.0; 4096]).unwrap();
    // Idle long enough for several heartbeats to queue up client-side.
    std::thread::sleep(Duration::from_millis(700));
    let (_, stats) = client.finish().expect("finish after idle spell");
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, 4096);
    server.shutdown();
    let heartbeats = emprof::obs::snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "serve.heartbeats")
        .map_or(0, |(_, v)| *v);
    emprof::obs::disable();
    assert!(heartbeats > 0, "the idle spell emitted no heartbeats");
}

/// Watch connections heartbeat too: a poll after an idle spell longer
/// than the read timeout still answers.
#[test]
fn watch_survives_idle_spell_with_heartbeats() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            heartbeat_interval: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut watch = WatchClient::connect_with(
        server.local_addr(),
        ClientConfig {
            read_timeout: Duration::from_millis(400),
            max_reconnects: 0,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(700));
    let tail = watch.poll().expect("poll after idle spell");
    assert_eq!(tail.events.len(), 0);
    server.shutdown();
}

/// A watch client with reconnects enabled heals a severed connection on
/// the next poll, keeping its cursor.
#[test]
fn watch_reconnects_after_transport_loss() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut watch = WatchClient::connect_with(server.local_addr(), client_config()).unwrap();
    watch.poll().unwrap();
    watch.drop_connection();
    watch.poll().expect("poll heals the dropped connection");
    assert!(watch.reconnects() >= 1);
    server.shutdown();
}

/// Once the reaper finalizes an idle session, a resume attempt fails
/// loudly with NO_SESSION instead of silently opening a fresh detector.
#[test]
fn resume_after_reap_refuses_loudly() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = ProfileClient::connect_with(
        server.local_addr(),
        "reaped",
        config(),
        FS,
        CLK,
        client_config(),
    )
    .unwrap();
    client.send(&[5.0; 256]).unwrap();
    client.drop_connection();
    // Wait well past idle_timeout plus the reaper's polling cadence.
    std::thread::sleep(Duration::from_millis(800));
    let err = client
        .send(&[5.0; 256])
        .expect_err("resuming a reaped session must fail");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::NoSession),
        other => panic!("expected NO_SESSION, got {other:?}"),
    }
    server.shutdown();
}

/// When every reconnect attempt fails, the client surfaces a precise
/// terminal error — attempt count plus the *last underlying cause* —
/// instead of a generic transport error.
#[test]
fn exhausted_reconnects_report_attempts_and_cause() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ProfileClient::connect_with(
        server.local_addr(),
        "exhausted",
        config(),
        FS,
        CLK,
        client_config(),
    )
    .unwrap();
    client.send(&[5.0; 256]).unwrap();
    // Sever first, then take the server down: the next exchange sees a
    // transport error and burns through every reconnect attempt.
    client.drop_connection();
    server.shutdown();
    let err = client.flush().expect_err("flush against a dead server");
    match err {
        ClientError::ReconnectFailed { attempts, last } => {
            assert_eq!(attempts, client_config().max_reconnects);
            assert!(
                matches!(*last, ClientError::Io(_)),
                "last cause should be the transport error, got {last:?}"
            );
        }
        other => panic!("expected ReconnectFailed, got {other:?}"),
    }
}

/// The same terminal-error contract holds for watch connections.
#[test]
fn watch_exhausted_reconnects_report_attempts_and_cause() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut watch = WatchClient::connect_with(server.local_addr(), client_config()).unwrap();
    watch.poll().unwrap();
    watch.drop_connection();
    server.shutdown();
    let err = watch.poll().expect_err("poll against a dead server");
    match err {
        ClientError::ReconnectFailed { attempts, last } => {
            assert_eq!(attempts, client_config().max_reconnects);
            assert!(
                matches!(*last, ClientError::Io(_)),
                "last cause should be the transport error, got {last:?}"
            );
        }
        other => panic!("expected ReconnectFailed, got {other:?}"),
    }
}

/// The same terminal-error contract holds for metrics connections.
#[test]
fn metrics_exhausted_reconnects_report_attempts_and_cause() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut metrics = MetricsClient::connect_with(server.local_addr(), client_config()).unwrap();
    metrics.fetch_health().unwrap();
    metrics.drop_connection();
    server.shutdown();
    let err = metrics
        .fetch_health()
        .expect_err("poll against a dead server");
    match err {
        ClientError::ReconnectFailed { attempts, last } => {
            assert_eq!(attempts, client_config().max_reconnects);
            assert!(
                matches!(*last, ClientError::Io(_)),
                "last cause should be the transport error, got {last:?}"
            );
        }
        other => panic!("expected ReconnectFailed, got {other:?}"),
    }
}

/// A watch client that outlives a server restart never silently rewinds:
/// the cursor regression is adopted *and counted* in `tail_resets()`.
#[test]
fn watch_counts_cursor_regression_after_server_restart() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut watch = WatchClient::connect_with(addr, client_config()).unwrap();

    // Drive the tail cursor forward with a real profiling session.
    let mut client =
        ProfileClient::connect_with(addr, "tail-feeder", config(), FS, CLK, client_config())
            .unwrap();
    let signal = build_signal(&[(800, 60, 220), (600, 50, 200)]);
    client.send(&signal).unwrap();
    client.finish().unwrap();
    let tail = watch.poll().expect("poll a live tail");
    assert!(tail.cursor > 0, "the session produced no tail events");
    assert_eq!(watch.tail_resets(), 0);

    // Restart the server on the same address: its fresh tail starts at
    // cursor 0, behind the watch client's cursor.
    server.shutdown();
    watch.drop_connection();
    let restarted = rebind_same_addr(addr);
    let tail = watch.poll().expect("poll survives the restart");
    assert_eq!(watch.tail_resets(), 1, "cursor regression went uncounted");
    assert_eq!(tail.missed, 0);
    restarted.shutdown();
}

/// Rebinding a just-freed listener address can transiently fail; retry
/// briefly so the restart test is not timing-flaky.
fn rebind_same_addr(addr: std::net::SocketAddr) -> Server {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match Server::bind(addr, ServeConfig::default()) {
            Ok(s) => return s,
            Err(e) if std::time::Instant::now() > deadline => {
                panic!("could not rebind {addr}: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}
