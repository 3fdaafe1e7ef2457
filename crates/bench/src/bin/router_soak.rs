//! Router soak: the routed-equals-direct guarantee under sustained,
//! concurrent, faulted load *and* a mid-stream backend kill plus ring
//! rebalance. Two phases:
//!
//! 1. **Soak** — ≥4 concurrent sessions stream faulted signals through
//!    the router at 3 journaled backends, with forced transport severs
//!    mid-stream; every round's event stream must equal the batch
//!    detector on the identical signal, bit for bit.
//! 2. **Kill + rebalance** — one session streams a third of its signal,
//!    the backend that owns it is killed (journal handoff migration),
//!    another third streams, a *replacement* backend JOINs the ring
//!    mid-stream, and the final third streams. The finished stream must
//!    still equal batch — zero events lost, none duplicated — and the
//!    router must report ≥1 migration, 0 of them lossy.
//!
//! `--smoke` bounds the soak for CI; `--seconds N` overrides the
//! budget. Exits non-zero on any violation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use emprof_bench::soak::{self, batch_events, build_signal, client_config, config, CLK, FS};
use emprof_fault::{FaultInjector, FaultPlan};
use emprof_router::{BackendSpec, Router, RouterConfig};
use emprof_serve::{ClusterAction, MetricsClient, ProfileClient, ServeConfig, Server};

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "emprof-router-soak-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");
    dir
}

fn journaled_backend(tag: &str) -> (Server, PathBuf) {
    let dir = fresh_dir(tag);
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            journal_dir: Some(dir.clone()),
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .expect("bind backend");
    (server, dir)
}

struct Tally {
    rounds: usize,
    mismatches: usize,
    forced_drops: u64,
    resumes: u64,
}

/// One faulted round through the router: inject NaN/inf faults, sever
/// the transport at deterministic points, flush periodically, compare
/// to batch on the identical faulted signal.
fn run_round(
    addr: std::net::SocketAddr,
    session: usize,
    round: usize,
    segments: usize,
    tally: &mut Tally,
) {
    let mut signal = build_signal(session, round, segments);
    let seed = (session as u64) << 32 | round as u64 | 1;
    let mut injector = FaultInjector::new(FaultPlan::chaos(), seed);
    injector.inject(&mut signal);

    let mut client = ProfileClient::connect_with(
        addr,
        &format!("soak-{session}"),
        config(),
        FS,
        CLK,
        client_config(),
    )
    .expect("open routed session");
    let before = client.reconnects();

    let frame = 64 + session * 997;
    let mut served = Vec::new();
    for (i, chunk) in signal.chunks(frame).enumerate() {
        if (i + session + round) % 9 == 3 {
            client.drop_connection();
            tally.forced_drops += 1;
        }
        client.send(chunk).expect("stream frame");
        if (i + 1) % 4 == 0 {
            let (events, _) = client.flush().expect("flush");
            served.extend(events);
        }
    }
    tally.resumes += client.reconnects() - before;
    let (tail, stats) = client.finish().expect("finish");
    served.extend(tail);
    assert!(stats.final_report);

    if served != batch_events(&signal) {
        tally.mismatches += 1;
    }
    tally.rounds += 1;
}

/// Phase 2: deterministic kill + rebalance against a dedicated fleet,
/// so exactly one session exists when the owner is killed. Returns
/// human-readable violations (empty = pass).
fn kill_and_rebalance_phase(segments: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let mut backends = Vec::new();
    let mut dirs = Vec::new();
    let mut specs = Vec::new();
    for i in 0..3 {
        let (server, dir) = journaled_backend(&format!("kill-b{i}"));
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
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    let signal = build_signal(0, 424_243, segments * 2);
    let mut client = ProfileClient::connect_with(
        router.local_addr(),
        "kill-phase",
        config(),
        FS,
        CLK,
        client_config(),
    )
    .expect("open kill-phase session");
    let chunks: Vec<&[f64]> = signal.chunks(499).collect();
    let third = chunks.len() / 3;
    let mut served = Vec::new();

    for chunk in &chunks[..third] {
        client.send(chunk).expect("stream");
    }
    let (events, _) = client.flush().expect("flush");
    served.extend(events);

    // Kill the owner mid-stream: exactly one backend holds the session.
    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("exactly one backend owns the session");
    println!("  killing backend b{owner} mid-stream (journal handoff)");
    backends.remove(owner).kill();

    for chunk in &chunks[third..2 * third] {
        client.send(chunk).expect("stream past the kill");
    }
    let (events, _) = client.flush().expect("flush after migration");
    served.extend(events);

    // Rebalance mid-stream: JOIN a replacement backend onto the ring.
    let (replacement, rdir) = journaled_backend("kill-replacement");
    let raddr = replacement.local_addr().to_string();
    println!("  joining replacement backend at {raddr} (ring rebalance)");
    let mut mc = MetricsClient::connect_with(router.local_addr(), client_config())
        .expect("metrics connect");
    mc.cluster_join("b-new", &raddr, ClusterAction::Join)
        .expect("CLUSTER_JOIN replacement");
    backends.push(replacement);
    dirs.push(rdir);

    for chunk in &chunks[2 * third..] {
        client.send(chunk).expect("stream past the rebalance");
    }
    let (tail, stats) = client.finish().expect("finish");
    served.extend(tail);

    if !stats.final_report {
        failures.push("kill phase: finish did not deliver the final report".into());
    }
    if stats.samples_pushed != signal.len() as u64 {
        failures.push(format!(
            "kill phase: {} of {} samples survived the kill — events were lost",
            stats.samples_pushed,
            signal.len()
        ));
    }
    if served != batch_events(&signal) {
        failures.push(
            "kill phase: routed events diverged from the single-node batch run".into(),
        );
    }
    let rstats = router.shutdown();
    if rstats.migrations < 1 {
        failures.push("kill phase: killing the owner forced no migration".into());
    }
    if rstats.migrations_lossy > 0 {
        failures.push(format!(
            "kill phase: {} migrations were lossy on a fully journaled fleet",
            rstats.migrations_lossy
        ));
    }
    for b in backends {
        b.shutdown();
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    failures
}

fn main() {
    let smoke = soak::smoke();
    let budget = soak::budget(8, 40);
    let sessions = if smoke { 4 } else { 8 };
    let segments = if smoke { 10 } else { 24 };

    println!(
        "router soak: 3 backends, {sessions} concurrent faulted sessions, {:?} budget ({} mode)",
        budget,
        if smoke { "smoke" } else { "full" }
    );

    let mut backends = Vec::new();
    let mut dirs = Vec::new();
    let mut specs = Vec::new();
    for i in 0..3 {
        let (server, dir) = journaled_backend(&format!("b{i}"));
        specs.push(BackendSpec {
            name: format!("b{i}"),
            addr: server.local_addr().to_string(),
            journal_dir: Some(dir.clone()),
        });
        backends.push(server);
        dirs.push(dir);
    }
    let router = Arc::new(
        Router::bind(
            "127.0.0.1:0",
            RouterConfig {
                backends: specs,
                probe_interval: Duration::from_millis(100),
                ..RouterConfig::default()
            },
        )
        .expect("bind router"),
    );

    let barrier = Arc::new(Barrier::new(sessions));
    let deadline = Instant::now() + budget;
    let handles: Vec<_> = (0..sessions)
        .map(|k| {
            let router = Arc::clone(&router);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut tally = Tally {
                    rounds: 0,
                    mismatches: 0,
                    forced_drops: 0,
                    resumes: 0,
                };
                while Instant::now() < deadline {
                    run_round(router.local_addr(), k, tally.rounds, segments, &mut tally);
                }
                tally
            })
        })
        .collect();

    let mut rounds = 0usize;
    let mut mismatches = 0usize;
    let mut forced_drops = 0u64;
    let mut resumes = 0u64;
    for h in handles {
        let t = h.join().expect("session thread panicked");
        rounds += t.rounds;
        mismatches += t.mismatches;
        forced_drops += t.forced_drops;
        resumes += t.resumes;
    }
    let router = Arc::into_inner(router).expect("all clients done");
    let rstats = router.shutdown();
    let opened: u64 = backends.drain(..).map(|b| b.shutdown().sessions_opened).sum();
    for d in dirs.drain(..) {
        let _ = std::fs::remove_dir_all(d);
    }

    println!(
        "{rounds} rounds through the router: {forced_drops} forced severs, {resumes} resumes, \
         {} backend sessions opened, {} frames forwarded",
        opened, rstats.frames_in
    );

    let mut failures = Vec::new();
    if mismatches > 0 {
        failures.push(format!(
            "{mismatches} rounds diverged from the batch detector through the router"
        ));
    }
    if rounds == 0 {
        failures.push("no session completed a round within the budget".into());
    }
    if forced_drops == 0 {
        failures.push("no transport loss was ever forced: the soak tested nothing".into());
    }
    if resumes < forced_drops {
        failures.push(format!(
            "only {resumes} resumes for {forced_drops} forced severs: sessions died instead"
        ));
    }

    println!("kill + rebalance phase: owner killed mid-stream, replacement JOINs the ring");
    failures.extend(kill_and_rebalance_phase(segments));

    if failures.is_empty() {
        println!("router soak PASS: routed equals direct across severs, a kill, and a rebalance");
    } else {
        for f in &failures {
            eprintln!("router soak FAIL: {f}");
        }
        std::process::exit(1);
    }
}
