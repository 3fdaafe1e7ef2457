//! Router fault-injection suite: drains, cascading backend kills,
//! client severs racing migrations, lossy no-journal fallback, and the
//! CLUSTER_JOIN admin verbs — the routed-equals-direct guarantee must
//! hold wherever a journal exists, and degrade *honestly* where not.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use emprof::core::{Emprof, EmprofConfig, StallEvent};
use emprof::router::{BackendSpec, Router, RouterConfig};
use emprof::serve::{
    ClientConfig, ClientError, ClusterAction, ErrorCode, MetricsClient, ProfileClient, ServeConfig,
    Server,
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

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "emprof-router-chaos-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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
            let x = (k * 6007 + j * 104729) as u64;
            (
                (x % 601) as u16,
                ((x / 601) % 160) as u16,
                ((x / 96160) % 256) as u8,
            )
        })
        .collect();
    build_signal(&segments)
}

fn fleet(n: usize, tag: &str, journaled: bool) -> (Vec<Server>, Vec<PathBuf>, Router) {
    let mut backends = Vec::new();
    let mut dirs = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let dir = fresh_dir(&format!("{tag}-b{i}"));
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                journal_dir: journaled.then(|| dir.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        specs.push(BackendSpec {
            name: format!("b{i}"),
            addr: server.local_addr().to_string(),
            journal_dir: journaled.then(|| dir.clone()),
        });
        backends.push(server);
        dirs.push(dir);
    }
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: specs,
            probe_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    (backends, dirs, router)
}

fn cleanup(backends: Vec<Server>, dirs: Vec<PathBuf>) {
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn drain_stops_new_placements_but_keeps_existing_sessions() {
    let (backends, dirs, router) = fleet(2, "drain", true);
    let signal = signal_for(1);
    let mut client =
        ProfileClient::connect(router.local_addr(), "drain-dev", config(), FS, CLK).unwrap();
    client.send(&signal[..signal.len() / 2]).unwrap();
    client.flush().unwrap();
    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("exactly one backend owns the session");

    // Drain the owner: the live session must keep going, new sessions
    // must land elsewhere, and the backend itself must reject fresh
    // direct HELLOs.
    assert!(router.drain_backend(&format!("b{owner}")));
    // Wait for the next probe to observe the drained flag.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let state = router.cluster_state();
        let row = state
            .iter()
            .find(|n| n.name == format!("b{owner}"))
            .unwrap();
        if row.draining {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drain flag never surfaced"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    match ProfileClient::connect(backends[owner].local_addr(), "direct", config(), FS, CLK) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Shutdown),
        other => panic!("drained backend must reject fresh HELLO, got {other:?}"),
    }

    // New sessions through the router avoid the drained node.
    let before = backends[owner].sessions_active();
    for k in 0..4 {
        let sig = signal_for(10 + k);
        let mut c =
            ProfileClient::connect(router.local_addr(), &format!("fresh{k}"), config(), FS, CLK)
                .unwrap();
        c.send(&sig[..512]).unwrap();
        let (_, stats) = c.finish().unwrap();
        assert!(stats.final_report);
    }
    assert_eq!(
        backends[owner].sessions_active(),
        before,
        "drained backend must not receive new placements"
    );

    // The original session finishes on the drained node, equal to batch.
    client.send(&signal[signal.len() / 2..]).unwrap();
    let (_, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);

    let rstats = router.shutdown();
    assert_eq!(
        rstats.migrations, 0,
        "drain alone must not migrate anything"
    );
    cleanup(backends, dirs);
}

#[test]
fn cascading_kills_still_equal_batch() {
    // Kill the owner, keep streaming, then kill the *new* owner too:
    // two journal handoffs back to back, still bit-for-bit.
    let (mut backends, dirs, router) = fleet(3, "cascade", true);
    let signal = signal_for(2);
    let mut client =
        ProfileClient::connect(router.local_addr(), "cascade-dev", config(), FS, CLK).unwrap();
    let chunks: Vec<&[f64]> = signal.chunks(503).collect();
    let third = chunks.len() / 3;
    let mut events = Vec::new();

    for chunk in &chunks[..third] {
        client.send(chunk).unwrap();
    }
    let (evs, _) = client.flush().unwrap();
    events.extend(evs);
    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("owner");
    backends.remove(owner).kill();

    for chunk in &chunks[third..2 * third] {
        client.send(chunk).unwrap();
    }
    let (evs, _) = client.flush().unwrap();
    events.extend(evs);
    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("migrated owner");
    backends.remove(owner).kill();

    for chunk in &chunks[2 * third..] {
        client.send(chunk).unwrap();
    }
    let (tail, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);
    events.extend(tail);
    assert_eq!(
        events,
        batch_events(&signal),
        "double migration diverged from batch"
    );

    let rstats = router.shutdown();
    assert!(rstats.migrations >= 2);
    assert_eq!(rstats.migrations_lossy, 0);
    cleanup(backends, dirs);
}

#[test]
fn client_sever_during_migration_window_still_equals_batch() {
    // Sever the client connection *and* kill the backend between two
    // sends: the resume lands on the router, which must migrate the
    // session before answering the resume HELLO.
    let (mut backends, dirs, router) = fleet(3, "sever", true);
    let signal = signal_for(4);
    let mut client =
        ProfileClient::connect(router.local_addr(), "sever-dev", config(), FS, CLK).unwrap();
    let half = signal.len() / 2;
    client.send(&signal[..half]).unwrap();
    let (mut events, _) = client.flush().unwrap();

    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("owner");
    backends.remove(owner).kill();
    client.drop_connection();

    client.send(&signal[half..]).unwrap();
    let (tail, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);
    events.extend(tail);
    assert_eq!(events, batch_events(&signal));

    let rstats = router.shutdown();
    assert!(rstats.migrations >= 1);
    assert_eq!(rstats.migrations_lossy, 0);
    cleanup(backends, dirs);
}

#[test]
fn lossy_migration_without_journal_is_counted_honestly() {
    // No journal anywhere: killing the owner forces the lossy fallback.
    // The session must still finish cleanly — and the router must count
    // the migration as lossy rather than pretend it was exact.
    let (mut backends, dirs, router) = fleet(2, "lossy", false);
    let signal = signal_for(6);
    let mut client =
        ProfileClient::connect(router.local_addr(), "lossy-dev", config(), FS, CLK).unwrap();
    let half = signal.len() / 2;
    client.send(&signal[..half]).unwrap();
    client.flush().unwrap();

    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("owner");
    backends.remove(owner).kill();

    client.send(&signal[half..]).unwrap();
    let (_, stats) = client.finish().unwrap();
    assert!(
        stats.final_report,
        "lossy migration must still finish the session"
    );

    let rstats = router.shutdown();
    assert!(rstats.migrations >= 1);
    assert!(
        rstats.migrations_lossy >= 1,
        "a no-journal migration must be counted as lossy"
    );
    cleanup(backends, dirs);
}

#[test]
fn cluster_join_grows_and_shrinks_the_ring_at_runtime() {
    // Start with one backend; JOIN a second over the wire; LEAVE it
    // again. Cluster state must track each step and sessions must keep
    // working throughout.
    let (mut backends, mut dirs, router) = fleet(1, "join", true);
    let mut metrics = MetricsClient::connect(router.local_addr()).unwrap();
    assert_eq!(metrics.fetch_cluster_state().unwrap().len(), 1);

    // Bring up a second backend and announce it.
    let dir = fresh_dir("join-b1");
    let extra = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let extra_addr = extra.local_addr().to_string();
    let row = metrics
        .cluster_join("b1", &extra_addr, ClusterAction::Join)
        .unwrap();
    assert_eq!(row.name, "b1");
    assert!(row.up);
    backends.push(extra);
    dirs.push(dir);

    let state = metrics.fetch_cluster_state().unwrap();
    assert_eq!(state.len(), 2);
    assert!(state.iter().any(|n| n.name == "b1" && n.addr == extra_addr));

    // Sessions still work with the grown ring.
    let sig = signal_for(8);
    let mut c = ProfileClient::connect(router.local_addr(), "join-dev", config(), FS, CLK).unwrap();
    c.send(&sig).unwrap();
    let (evs, stats) = c.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(evs, batch_events(&sig));

    // LEAVE pulls it off the ring; the health row flips to draining.
    let row = metrics
        .cluster_join("b1", "", ClusterAction::Leave)
        .unwrap();
    assert!(row.draining);
    let sig = signal_for(9);
    let mut c =
        ProfileClient::connect(router.local_addr(), "post-leave", config(), FS, CLK).unwrap();
    c.send(&sig[..1024]).unwrap();
    let (_, stats) = c.finish().unwrap();
    assert!(stats.final_report);
    // Retirement is asynchronous: give each backend a beat to notice
    // the final EVENTS_ACK, then insist nothing lingers.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while backends[0].sessions_active() + backends[1].sessions_active() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "finished sessions lingered"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    router.shutdown();
    cleanup(backends, dirs);
}

#[test]
fn owner_death_while_detached_migrates_without_stalling_the_router() {
    // The owner dies while its only session sits detached: the client
    // severed and is not back yet. The prober's mark-down then migrates
    // the session by itself. The router must keep answering polls while
    // it does, and the client's later resume must still equal batch.
    let (mut backends, dirs, router) = fleet(2, "detached", true);
    let signal = signal_for(7);
    let mut client =
        ProfileClient::connect(router.local_addr(), "detached-dev", config(), FS, CLK).unwrap();
    let half = signal.len() / 2;
    client.send(&signal[..half]).unwrap();
    let (mut events, _) = client.flush().unwrap();
    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("owner");
    client.drop_connection();

    let quick = ClientConfig {
        read_timeout: Duration::from_secs(5),
        max_reconnects: 0,
        ..ClientConfig::default()
    };
    let mut metrics = MetricsClient::connect_with(router.local_addr(), quick).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while metrics
        .fetch_metrics()
        .unwrap()
        .sessions
        .iter()
        .any(|r| r.connected)
    {
        assert!(Instant::now() < deadline, "the router never saw the sever");
        std::thread::sleep(Duration::from_millis(10));
    }
    backends.remove(owner).kill();

    // Two failed probes mark the owner down, and the prober migrates the
    // detached session onto the survivor.
    loop {
        let nodes = match metrics.fetch_cluster_state() {
            Ok(nodes) => nodes,
            Err(e) => {
                // A router stuck on its own locks cannot be shut down;
                // leak it so the failure is reported instead of hanging.
                std::mem::forget(router);
                panic!("the router stopped answering after the mark-down: {e}");
            }
        };
        if nodes.iter().any(|n| n.migrations_in >= 1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the prober never migrated the session"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    client.send(&signal[half..]).unwrap();
    let (tail, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    events.extend(tail);
    assert_eq!(events, batch_events(&signal));

    let rstats = router.shutdown();
    assert_eq!(rstats.migrations, 1);
    assert_eq!(rstats.migrations_lossy, 0);
    cleanup(backends, dirs);
}
