//! The emprof-router headline guarantee, enforced: events collected
//! *through the router* are **bit-for-bit identical** to
//! `Emprof::profile_magnitude` on the same signal — for one backend or
//! many, with or without mid-stream flushes, across client reconnects,
//! and through a backend kill with journal handoff. Plus the router's
//! observability surface: cluster state, health, and the merged
//! metrics view.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use emprof::core::{Emprof, EmprofConfig, StallEvent};
use emprof::router::{BackendSpec, Router, RouterConfig};
use emprof::serve::{
    ClientError, ErrorCode, MetricsClient, ProfileClient, ServeConfig, Server, WatchClient,
};

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

/// Unique temp dir per call (same idiom as prop_store).
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "emprof-router-eq-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Busy/dip signal generator (same family as serve_equivalence).
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

fn signal_for(k: usize) -> Vec<f64> {
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
    build_signal(&segments)
}

/// A fleet of `n` journaled backends plus a router fronting them.
fn fleet(n: usize, tag: &str) -> (Vec<Server>, Vec<PathBuf>, Router) {
    let mut backends = Vec::new();
    let mut dirs = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let dir = fresh_dir(&format!("{tag}-b{i}"));
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        specs.push(BackendSpec {
            name: format!("b{i}"),
            addr: server.local_addr().to_string(),
            journal_dir: Some(dir.clone()),
        });
        backends.push(server);
        dirs.push(dir);
    }
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: specs,
            probe_interval: Duration::from_millis(100),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    (backends, dirs, router)
}

/// One `Connection: close` HTTP/1.1 GET, full response text back.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape listener");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: emprof\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// Streams `signal` through the router in `frame`-sized sends and
/// returns every delivered event.
fn route_signal(
    router: &Router,
    device: &str,
    signal: &[f64],
    frame: usize,
    flush_every: Option<usize>,
) -> Vec<StallEvent> {
    let mut client =
        ProfileClient::connect(router.local_addr(), device, config(), FS, CLK).unwrap();
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

#[test]
fn routed_single_session_equals_batch() {
    let (backends, dirs, router) = fleet(1, "single");
    let signal = signal_for(0);
    let routed = route_signal(&router, "dev", &signal, 777, Some(3));
    assert_eq!(routed, batch_events(&signal));
    let stats = router.shutdown();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.migrations, 0);
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn routed_sessions_spread_over_backends_and_equal_batch() {
    // 8 concurrent sessions over 3 backends: every one equals batch and
    // the ring actually uses more than one backend.
    let (backends, dirs, router) = fleet(3, "spread");
    let sessions = 8usize;
    let router = Arc::new(router);
    let barrier = Arc::new(Barrier::new(sessions));
    let handles: Vec<_> = (0..sessions)
        .map(|k| {
            let router = Arc::clone(&router);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let signal = signal_for(k);
                let frame = 13 + k * 977;
                let flush = if k % 2 == 0 { Some(3) } else { None };
                barrier.wait();
                let routed = route_signal(&router, &format!("dev{k}"), &signal, frame, flush);
                assert_eq!(
                    routed,
                    batch_events(&signal),
                    "session {k} diverged from batch through the router"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread panicked");
    }
    let router = Arc::into_inner(router).expect("all clients done");
    let stats = router.shutdown();
    assert_eq!(stats.sessions_opened, sessions as u64);
    assert_eq!(stats.migrations, 0);
    let used = backends
        .into_iter()
        .map(|b| b.shutdown())
        .filter(|s| s.sessions_opened > 0)
        .count();
    assert!(
        used >= 2,
        "8 sessions over a 3-node ring used only {used} backend(s)"
    );
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn resume_through_router_is_transparent() {
    // Sever the client→router TCP connection mid-stream; the client's
    // own resume replay through the router must leave the event stream
    // bit-for-bit identical to batch.
    let (backends, dirs, router) = fleet(2, "resume");
    let signal = signal_for(3);
    let mut client =
        ProfileClient::connect(router.local_addr(), "resume-dev", config(), FS, CLK).unwrap();
    let mut events = Vec::new();
    for (i, chunk) in signal.chunks(997).enumerate() {
        if i == 2 || i == 5 {
            client.drop_connection();
        }
        client.send(chunk).unwrap();
        if i == 3 {
            let (evs, _) = client.flush().unwrap();
            events.extend(evs);
            // The flush round trip forces the post-sever reconnect.
            assert!(client.reconnects() >= 1);
        }
    }
    client.drop_connection();
    let (tail, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);
    events.extend(tail);
    assert_eq!(events, batch_events(&signal));
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn backend_kill_mid_stream_migrates_exactly_once() {
    // Kill whichever backend owns the session, mid-stream, with frames
    // in flight past the last flush. The router must journal-replay the
    // session into a surviving backend and the final event stream must
    // still equal batch — the routed-equals-direct headline under fire.
    let (mut backends, dirs, router) = fleet(3, "kill");
    let signal = signal_for(5);
    let mut client =
        ProfileClient::connect(router.local_addr(), "kill-dev", config(), FS, CLK).unwrap();
    let chunks: Vec<&[f64]> = signal.chunks(499).collect();
    let half = chunks.len() / 2;
    let mut events = Vec::new();
    for chunk in &chunks[..half] {
        client.send(chunk).unwrap();
    }
    let (evs, _) = client.flush().unwrap();
    events.extend(evs);
    // Find and kill the owner (exactly one backend holds the session).
    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("exactly one backend owns the session");
    backends.remove(owner).kill();
    for chunk in &chunks[half..] {
        client.send(chunk).unwrap();
    }
    let (tail, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);
    events.extend(tail);
    assert_eq!(
        events,
        batch_events(&signal),
        "journal-handoff migration changed the event stream"
    );
    let rstats = router.shutdown();
    assert!(rstats.migrations >= 1, "kill must force a migration");
    assert_eq!(
        rstats.migrations_lossy, 0,
        "journaled fleet must never migrate lossily"
    );
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn router_rejects_watch_with_protocol_error() {
    let (backends, dirs, router) = fleet(1, "watch");
    let err = WatchClient::connect(router.local_addr()).unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn router_observability_surface() {
    // CLUSTER_STATE, NODE_HEALTH, HEALTH, and METRICS straight off the
    // router's session port, while a session is live.
    let (backends, dirs, router) = fleet(3, "obs");
    let signal = signal_for(7);
    let mut client =
        ProfileClient::connect(router.local_addr(), "obs-dev", config(), FS, CLK).unwrap();
    client.send(&signal[..4096.min(signal.len())]).unwrap();
    client.flush().unwrap();

    let mut metrics = MetricsClient::connect(router.local_addr()).unwrap();
    let nodes = metrics.fetch_cluster_state().unwrap();
    assert_eq!(nodes.len(), 3, "cluster state must list every backend");
    for node in &nodes {
        assert!(node.up, "backend {} should be up", node.name);
        assert!(!node.draining);
        assert!(!node.addr.is_empty());
    }
    let self_health = metrics.fetch_node_health().unwrap();
    assert_eq!(self_health.name, "router");
    assert!(self_health.up);
    let health = metrics.fetch_health().unwrap();
    assert!(health.healthy);
    assert_eq!(health.sessions_active, 1);
    let reply = metrics.fetch_metrics().unwrap();
    assert_eq!(reply.sessions.len(), 1);
    assert_eq!(reply.sessions[0].device, "obs-dev");
    assert!(reply.sessions[0].connected);

    // The same surface over plain HTTP: per-backend health rows plus
    // the fleet session/migration aggregates a scraper alerts on.
    let scrape_addr = router
        .metrics_local_addr()
        .expect("router metrics listener");
    let response = http_get(scrape_addr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    let body = response.split("\r\n\r\n").nth(1).expect("scrape body");
    for i in 0..3 {
        assert!(
            body.contains(&format!("emprof_router_backend_up{{backend=\"b{i}\"")),
            "backend b{i} health row missing from scrape:\n{body}"
        );
    }
    assert!(body.contains("emprof_router_sessions_active 1\n"), "{body}");
    assert!(body.contains("emprof_router_migrations 0\n"), "{body}");
    assert!(
        body.contains("emprof_router_migrations_lossy 0\n"),
        "{body}"
    );
    assert!(body.contains("emprof_router_backend_sessions"), "{body}");
    assert!(http_get(scrape_addr, "/nope").starts_with("HTTP/1.1 404"));

    client.finish().unwrap();
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}
