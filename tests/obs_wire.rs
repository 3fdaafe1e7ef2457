//! The fleet-observability headline guarantee, enforced end to end:
//! a METRICS frame decoded by a client and a `/metrics` HTTP scrape
//! both reproduce the server's in-process `emprof_obs::snapshot()`
//! exactly, and a forced session fault produces a flight-recorder
//! dump carrying that session's spans and trace id.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use emprof::core::EmprofConfig;
use emprof::obs;
use emprof::router::{BackendSpec, Router, RouterConfig};
use emprof::serve::{MetricsClient, ProfileClient, ServeConfig, Server};

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

/// Telemetry state is process-global; the two tests here both touch it
/// (one records through it, the other's server would record into an
/// enabled registry), so they serialize.
static OBS_LOCK: Mutex<()> = Mutex::new(());

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emprof-obs-wire-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

/// Busy/dip signal (same generator family as serve_equivalence).
fn test_signal() -> Vec<f64> {
    let mut s = Vec::new();
    for i in 0..12usize {
        let gap = 3 + (i * 41) % 600;
        let dip = (i * 67) % 160;
        let dip_level = 0.3 + ((i * 17) % 256) as f64 / 255.0 * 1.2;
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

/// Strips the one legitimately time-dependent field: the meter EWMA
/// rate can fold between two snapshot calls, and both sides of the
/// equivalence claim are only defined up to that instant.
fn normalized(mut s: obs::Snapshot) -> obs::Snapshot {
    for (_, m) in &mut s.meters {
        m.rate_per_sec = 0.0;
    }
    s
}

/// One `Connection: close` HTTP/1.1 request, full response text back.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect scrape listener");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: emprof\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// Is this exposition line a meter-rate sample (the one series whose
/// value is normalized away above)?
fn is_rate_sample(line: &str) -> bool {
    line.split(' ')
        .next()
        .is_some_and(|family| family.ends_with("_rate"))
}

#[test]
fn metrics_frame_and_scrape_reproduce_local_snapshot() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let signal = test_signal();

    // One session run to completion...
    let mut done =
        ProfileClient::connect(server.local_addr(), "wire-eq", config(), FS, CLK).unwrap();
    for chunk in signal.chunks(512) {
        done.send(chunk).unwrap();
    }
    let (_, stats) = done.finish().unwrap();
    assert!(stats.final_report);
    // ...and one left registered mid-stream (quiet while we compare).
    let mut live =
        ProfileClient::connect(server.local_addr(), "wire-live", config(), FS, CLK).unwrap();
    live.send(&signal[..1024]).unwrap();
    live.flush().unwrap();

    // Remote equals local: the snapshot decoded off the METRICS frame
    // is the snapshot a local call returns. Spans land asynchronously
    // as reader threads exit, so poll until the two sides agree.
    let mut mc = MetricsClient::connect(server.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let reply = loop {
        let reply = mc.fetch_metrics().unwrap();
        if normalized(reply.snapshot.clone()) == normalized(obs::snapshot()) {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "METRICS snapshot never converged to the local one"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    // The agreed-on snapshot is the real profiling run, not vacuously
    // empty: the completed session's samples are in the detect
    // counters (the live session reports its tally at finalize).
    let samples = reply
        .snapshot
        .counter("detect.samples")
        .expect("detect.samples recorded");
    assert!(
        samples >= signal.len() as u64,
        "detect.samples {samples} below the {} samples of the finished session",
        signal.len()
    );
    assert!(
        reply
            .sessions
            .iter()
            .any(|row| row.device == "wire-live" && row.connected),
        "live session missing from METRICS rows: {:?}",
        reply.sessions
    );
    let health = mc.fetch_health().unwrap();
    assert!(health.healthy);
    assert!(health.sessions_active >= 1);

    // The scrape body reproduces the same snapshot in exposition
    // format (every sample except the time-dependent meter rates),
    // plus the labeled per-session series and server health.
    let addr = server.metrics_local_addr().expect("metrics listener bound");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let expected = obs::prom::encode_snapshot(&normalized(obs::snapshot()));
        let response = http_get(addr, "/metrics");
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "scrape failed: {response:?}"
        );
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4"),
            "wrong content type: {response:?}"
        );
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("response has a body");
        let agrees = expected
            .lines()
            .filter(|l| !is_rate_sample(l))
            .all(|l| body.lines().any(|b| b == l));
        if agrees {
            assert!(
                body.contains("emprof_session_connected{session=")
                    && body.contains("device=\"wire-live\""),
                "per-session series missing from scrape:\n{body}"
            );
            assert!(body.contains("emprof_server_healthy 1\n"));
            assert!(body.contains("# TYPE emprof_server_uptime_ms counter"));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scrape body never converged to the local snapshot"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Anything but GET /metrics is a 404, not a hang or a panic.
    assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"));
    assert!(http_get(addr, "/metrics/extra").starts_with("HTTP/1.1 404"));

    live.finish().unwrap();
    server.shutdown();
    obs::disable();
}

#[test]
fn forced_transport_loss_dumps_flight_recorder() {
    // The flight ring records regardless of the obs toggle; obs stays
    // disabled here, but the server would record into an enabled
    // registry, so still serialize with the equivalence test.
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = fresh_dir();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            journal_dir: Some(root.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let signal = test_signal();
    let mut client =
        ProfileClient::connect(server.local_addr(), "black-box", config(), FS, CLK).unwrap();
    let trace = client.trace_id();
    assert_ne!(trace, 0, "session must carry a trace id");
    client.send(&signal).unwrap();
    client.flush().unwrap(); // forces a drain: a span lands in the ring
    client.drop_connection(); // forced fault: EOF with the session live

    // The black box lands next to the journals.
    let deadline = Instant::now() + Duration::from_secs(10);
    let path = loop {
        let found = std::fs::read_dir(&root).ok().and_then(|entries| {
            entries.flatten().map(|e| e.path()).find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("flight-session-") && n.ends_with(".json"))
            })
        });
        if let Some(p) = found {
            break p;
        }
        assert!(
            Instant::now() < deadline,
            "no flight dump appeared under {root:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let dump = std::fs::read_to_string(&path).unwrap();
    let trace_hex = format!("\"trace_id\":\"{trace:#018x}\"");
    assert!(
        dump.contains("\"type\":\"flight\""),
        "not a flight dump: {dump}"
    );
    assert!(
        dump.contains(&trace_hex),
        "dump missing {trace_hex}: {dump}"
    );
    assert!(
        dump.contains("\"kind\":\"span\"") && dump.contains("drain"),
        "dump missing the session's drain span: {dump}"
    );
    assert!(
        dump.contains("transport loss"),
        "dump missing the fault reason: {dump}"
    );

    // The same ring is pollable over the wire (0 = every session).
    let mut mc = MetricsClient::connect(server.local_addr()).unwrap();
    let dumps = mc.fetch_flight(0).unwrap();
    let wire = dumps
        .iter()
        .find(|d| d.trace_id == trace)
        .expect("lost session pollable over FLIGHT");
    assert!(wire.json.contains(&trace_hex));
    assert!(wire.json.contains("transport loss"));
    assert!(wire.json.contains("\"kind\":\"span\""));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn explicit_flight_dir_works_without_a_journal() {
    // `--flight-dir` must land black boxes even on a journal-less
    // server: dump_flight's fallback-to-journal-dir path never runs.
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let flight_root = fresh_dir();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            journal_dir: None,
            flight_dir: Some(flight_root.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let signal = test_signal();
    let mut client =
        ProfileClient::connect(server.local_addr(), "no-journal", config(), FS, CLK).unwrap();
    let trace = client.trace_id();
    client.send(&signal).unwrap();
    client.flush().unwrap();
    client.drop_connection(); // forced fault: EOF with the session live

    let deadline = Instant::now() + Duration::from_secs(10);
    let path = loop {
        let found = std::fs::read_dir(&flight_root).ok().and_then(|entries| {
            entries.flatten().map(|e| e.path()).find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("flight-session-") && n.ends_with(".json"))
            })
        });
        if let Some(p) = found {
            break p;
        }
        assert!(
            Instant::now() < deadline,
            "no flight dump under the explicit --flight-dir {flight_root:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let dump = std::fs::read_to_string(&path).unwrap();
    let trace_hex = format!("\"trace_id\":\"{trace:#018x}\"");
    assert!(
        dump.contains("\"type\":\"flight\""),
        "not a flight dump: {dump}"
    );
    assert!(
        dump.contains(&trace_hex),
        "dump missing {trace_hex}: {dump}"
    );
    assert!(
        dump.contains("transport loss"),
        "missing fault reason: {dump}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&flight_root);
}

#[test]
fn clean_retirement_removes_the_stale_flight_dump() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = fresh_dir();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            journal_dir: Some(root.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let signal = test_signal();
    let mut client =
        ProfileClient::connect(server.local_addr(), "recovered", config(), FS, CLK).unwrap();
    client.send(&signal[..signal.len() / 2]).unwrap();
    client.flush().unwrap();
    client.drop_connection(); // transport loss: a dump lands on disk

    let has_dump = |root: &PathBuf| {
        std::fs::read_dir(root).is_ok_and(|entries| {
            entries.flatten().any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("flight-session-"))
            })
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !has_dump(&root) {
        assert!(Instant::now() < deadline, "no dump after the forced loss");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The session resumes (the next send reconnects), finishes, and is
    // fully acknowledged — the recovered-from fault's black box must
    // not survive as disk residue.
    client.send(&signal[signal.len() / 2..]).unwrap();
    let (_, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);
    let deadline = Instant::now() + Duration::from_secs(10);
    while has_dump(&root) {
        assert!(
            Instant::now() < deadline,
            "stale flight dump survived a clean retirement"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Asserts the exposition grouping rule: every family's `# TYPE` line
/// appears once, and all of the family's samples follow it with no
/// other family's line in between. A histogram's `_bucket`, `_sum` and
/// `_count` samples belong to the histogram's family.
fn assert_families_grouped(body: &str) {
    let mut typed = std::collections::HashSet::new();
    let mut current: Option<(&str, &str)> = None;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line names a kind");
            assert!(typed.insert(name), "family {name} typed twice:\n{body}");
            current = Some((name, kind));
            continue;
        }
        let metric = line.split(['{', ' ']).next().unwrap_or("");
        let (family, kind) = current.unwrap_or_else(|| panic!("{line:?} precedes every TYPE line"));
        let belongs = metric == family
            || (kind == "histogram"
                && ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| metric.strip_suffix(suffix) == Some(family)));
        assert!(
            belongs,
            "{line:?} is not in its family's group (current family {family}):\n{body}"
        );
    }
}

#[test]
fn scrape_families_are_typed_once_and_contiguous() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scrape = |addr: SocketAddr| {
        let response = http_get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
        response
            .split("\r\n\r\n")
            .nth(1)
            .expect("scrape body")
            .to_string()
    };
    let metrics_addr = Some("127.0.0.1:0".to_string());

    // A server with two live sessions: every per-session family has
    // two samples, one per label set.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            metrics_addr: metrics_addr.clone(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let signal = test_signal();
    let mut clients = Vec::new();
    for device in ["grouped-a", "grouped-b"] {
        let mut client =
            ProfileClient::connect(server.local_addr(), device, config(), FS, CLK).unwrap();
        client.send(&signal).unwrap();
        client.flush().unwrap();
        clients.push(client);
    }
    let body = scrape(server.metrics_local_addr().expect("metrics listener bound"));
    assert!(
        body.contains("device=\"grouped-a\"") && body.contains("device=\"grouped-b\""),
        "both sessions must be scraped:\n{body}"
    );
    assert_families_grouped(&body);

    // A router with two backends: every per-backend family has two
    // samples, one per backend.
    let other = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let backends = [("b0", &server), ("b1", &other)]
        .iter()
        .map(|(name, s)| BackendSpec {
            name: (*name).to_string(),
            addr: s.local_addr().to_string(),
            journal_dir: None,
        })
        .collect();
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends,
            metrics_addr,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let body = scrape(
        router
            .metrics_local_addr()
            .expect("router metrics listener"),
    );
    assert!(
        body.contains("backend=\"b0\"") && body.contains("backend=\"b1\""),
        "both backends must be scraped:\n{body}"
    );
    assert_families_grouped(&body);

    router.shutdown();
    for client in clients {
        client.finish().unwrap();
    }
    other.shutdown();
    server.shutdown();
}
