//! Router scenario: the routed-equals-direct guarantee under sustained,
//! concurrent, faulted load *and* a mid-stream backend kill plus ring
//! rebalance. Two phases:
//!
//! 1. **Soak** — 4 concurrent sessions stream faulted signals through
//!    the router at 3 journaled backends, with forced transport severs
//!    mid-stream; every round's event stream must equal the batch
//!    detector on the identical signal, bit for bit.
//! 2. **Kill + rebalance** — one session streams a third of its signal,
//!    the backend that owns it is killed (journal handoff migration),
//!    another third streams, a *replacement* backend JOINs the ring
//!    mid-stream, and the final third streams. The finished stream must
//!    still equal batch — zero events lost, none duplicated — and the
//!    router must report ≥1 migration, 0 of them lossy.

use std::time::Duration;

use emprof_bench::soak::{
    batch_events, bind_journaled, build_signal, client_config, open_session, Faults, Soak, TempDir,
};
use emprof_router::{BackendSpec, Router, RouterConfig};
use emprof_serve::{ClusterAction, MetricsClient, ServeConfig, Server};

/// Rounds per session of the soak phase.
pub const ROUNDS: usize = 150;
const SESSIONS: usize = 4;
const SEGMENTS: usize = 10;

/// A journaled backend with a 30 s resume window, its journal dir, and
/// the spec that names it to a router.
fn backend(name: &str) -> (Server, TempDir, BackendSpec) {
    let dir = TempDir::new("router");
    let config = ServeConfig {
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = bind_journaled(&dir, config);
    let spec = BackendSpec {
        name: name.into(),
        addr: server.local_addr().to_string(),
        journal_dir: Some(dir.path().to_path_buf()),
    };
    (server, dir, spec)
}

/// A router over three fresh journaled backends, `b0`..`b2`.
fn fleet() -> (Router, Vec<Server>, Vec<TempDir>) {
    let (mut backends, mut dirs, mut specs) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..3 {
        let (server, dir, spec) = backend(&format!("b{i}"));
        backends.push(server);
        dirs.push(dir);
        specs.push(spec);
    }
    let config = RouterConfig {
        backends: specs,
        probe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    let router = Router::bind("127.0.0.1:0", config).expect("bind router");
    (router, backends, dirs)
}

pub fn run(soak: &Soak) -> &'static str {
    println!(
        "router soak: 3 backends, {SESSIONS} concurrent faulted sessions x {} rounds",
        soak.rounds()
    );
    let (router, backends, _dirs) = fleet();
    let addr = router.local_addr();
    let faults = Faults {
        chaos: true,
        severs: true,
        lost_replies: false,
    };
    let t = soak.stream_sessions(addr, SESSIONS, SEGMENTS, faults);
    let rstats = router.shutdown();
    let opened: u64 = backends
        .into_iter()
        .map(|b| b.shutdown().sessions_opened)
        .sum();

    println!(
        "{} rounds through the router: {} forced severs, {} resumes, \
         {opened} backend sessions opened, {} frames forwarded",
        t.rounds, t.forced_drops, t.resumes, rstats.frames_in
    );

    println!("kill + rebalance phase: owner killed mid-stream, replacement JOINs the ring");
    soak.guard("kill + rebalance phase", || kill_and_rebalance_phase(soak));
    "routed equals direct across severs, a kill, and a rebalance"
}

/// Phase 2: deterministic kill + rebalance against a dedicated fleet,
/// so exactly one session exists when the owner is killed.
fn kill_and_rebalance_phase(soak: &Soak) {
    let (router, mut backends, mut dirs) = fleet();
    let signal = build_signal(0, 424_243, SEGMENTS * 2);
    let mut client = open_session(router.local_addr(), "kill-phase");
    let chunks: Vec<&[f64]> = signal.chunks(499).collect();
    let third = chunks.len() / 3;
    let mut served = Vec::new();

    for chunk in &chunks[..third] {
        client.send(chunk).expect("stream");
    }
    served.extend(client.flush().expect("flush").0);

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
    served.extend(client.flush().expect("flush after migration").0);

    // Rebalance mid-stream: JOIN a replacement backend onto the ring.
    let (replacement, rdir, rspec) = backend("b-new");
    println!(
        "  joining replacement backend at {} (ring rebalance)",
        rspec.addr
    );
    let mut mc =
        MetricsClient::connect_with(router.local_addr(), client_config()).expect("metrics connect");
    mc.cluster_join(&rspec.name, &rspec.addr, ClusterAction::Join)
        .expect("CLUSTER_JOIN replacement");
    backends.push(replacement);
    dirs.push(rdir);

    for chunk in &chunks[2 * third..] {
        client.send(chunk).expect("stream past the rebalance");
    }
    let (tail, stats) = client.finish().expect("finish");
    served.extend(tail);

    if !stats.final_report {
        soak.fail("kill phase: finish did not deliver the final report");
    }
    if stats.samples_pushed != signal.len() as u64 {
        soak.fail(format!(
            "kill phase: {} of {} samples survived the kill — events were lost",
            stats.samples_pushed,
            signal.len()
        ));
    }
    if served != batch_events(&signal) {
        soak.fail("kill phase: routed events diverged from the single-node batch run");
    }
    let rstats = router.shutdown();
    if rstats.migrations < 1 {
        soak.fail("kill phase: killing the owner forced no migration");
    }
    if rstats.migrations_lossy > 0 {
        soak.fail(format!(
            "kill phase: {} migrations were lossy on a fully journaled fleet",
            rstats.migrations_lossy
        ));
    }
    for b in backends {
        b.shutdown();
    }
}
