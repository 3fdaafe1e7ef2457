//! Query scenario, for the journal query engine: a live journaled server
//! ingests chaos-faulted sessions (NaN/inf injection server-side,
//! forced transport losses client-side) while a QUERY client hammers
//! it, then concurrent query threads verify, checking the tentpole
//! claims of the queryable-journal layer:
//!
//! 1. **availability under churn** — every query issued while sessions
//!    stream, flush, ack and compact returns an answer; segment
//!    deletion mid-query is replanned, never surfaced as an error;
//! 2. **query-equals-replay** — once ingest quiesces, every remote
//!    QUERY result (full range, windowed timeline, session filter,
//!    empty window) is bit-identical to `query_journals` recomputing
//!    the same statistic locally over the same directory, from every
//!    concurrent query thread;
//! 3. **the cache earns its keep** — repeated identical queries hit
//!    the server's decoded-segment cache; the soak streams enough
//!    samples to roll sealed segments and demands a minimum hit-rate.
//!
//! A round is one pass of one query thread over every query spec.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use emprof_bench::soak::{
    bind_journaled, build_signal, client_config, open_session, Soak, TempDir,
};
use emprof_fault::FaultPlan;
use emprof_serve::{
    query_result_to_wire, query_spec_from_wire, MetricsClient, ProfileClient, QueryResultWire,
    QuerySpecWire, ServeConfig,
};
use emprof_store::query_journals;

/// Verification passes per query thread.
pub const ROUNDS: usize = 6;
const SESSIONS: usize = 3;
const QUERY_THREADS: usize = 3;

/// Per-session ingest volume in signal segments (~385 samples each).
/// Sized so every session journals past the 4 MiB segment target and
/// rolls at least one *sealed* segment — the only kind the decoded
/// cache stores — otherwise the hit-rate assertion tests nothing.
const SIGNAL_SEGMENTS: usize = 1_800;

/// Strips the per-run accounting so two results compare on statistics
/// alone: cache hits and scan counts legitimately differ between a
/// warm server and a cold local recompute, the *answers* must not.
fn stats_of(r: &QueryResultWire) -> QueryResultWire {
    QueryResultWire {
        segments_scanned: 0,
        segments_pruned: 0,
        cache_hits: 0,
        cache_misses: 0,
        nodes: 0,
        ..r.clone()
    }
}

/// One streamer: chaos-faulted ingest with forced transport losses and
/// periodic flushes (each flush delivers and acks events, driving the
/// ack→compaction path the live queries race against). The session is
/// *not* finished — a finished, fully-acked session's journal is
/// retired from disk, and the verification phase needs it there.
fn stream_session(addr: std::net::SocketAddr, session: usize) -> (ProfileClient, u64) {
    let signal = build_signal(session, 0, SIGNAL_SEGMENTS);
    let mut client = open_session(addr, &format!("query-soak-{session}"));

    let mut forced_drops = 0u64;
    for (i, chunk) in signal.chunks(8_192).enumerate() {
        if (i + session) % 29 == 7 {
            client.drop_connection();
            forced_drops += 1;
        }
        client.send(chunk).expect("stream frame");
        if (i + 1) % 16 == 0 {
            let _ = client.flush().expect("flush");
        }
    }
    let _ = client.flush().expect("final flush");
    (client, forced_drops)
}

pub fn run(soak: &Soak) -> &'static str {
    println!(
        "query soak: {SESSIONS} chaos-faulted sessions, {QUERY_THREADS} query threads x {} rounds",
        soak.rounds()
    );
    let dir = TempDir::new("query");
    let server = bind_journaled(
        &dir,
        ServeConfig {
            // Chaos ingest: every batch is corrupted before the
            // detector sees it; the query layer must not care.
            fault_plan: Some(FaultPlan::chaos()),
            fault_seed: 0x51_50_4b,
            idle_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    // Phase 1: stream every session while a querier hammers the live
    // server. Results under churn are point-in-time snapshots (not
    // comparable to any later replay) — the claim here is that every
    // one of them *answers*, across flushes, acks, compaction and
    // forced reconnects.
    let stop = AtomicBool::new(false);
    let live_queries = AtomicU64::new(0);
    let streamed = std::thread::scope(|s| {
        let querier = s.spawn(|| {
            soak.guard("live querier", || {
                let mut mc =
                    MetricsClient::connect_with(addr, client_config()).expect("connect querier");
                while !stop.load(Ordering::Relaxed) {
                    mc.query(&QuerySpecWire::default())
                        .expect("query failed while sessions streamed");
                    live_queries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        });
        let streamed = soak.sessions(SESSIONS, 1, |k, _, out: &mut Option<_>| {
            *out = Some(stream_session(addr, k));
        });
        stop.store(true, Ordering::Relaxed);
        querier.join().expect("the querier's panics are caught");
        streamed
    });
    let (mut clients, drops): (Vec<ProfileClient>, Vec<u64>) =
        streamed.into_iter().flatten().unzip();
    let forced_drops: u64 = drops.iter().sum();

    // Quiesce: one idle flush per session acks everything outstanding,
    // so the server journals its last ack cursor *before* the reply
    // returns. After this, nothing writes — replay is a fixed point.
    for client in &mut clients {
        let _ = client.flush().expect("quiescing flush");
    }

    // Phase 2: the invariant. Local recompute over the same directory
    // is the oracle; every concurrent remote query must match it bit
    // for bit, and repeated identical queries must hit the cache.
    let window_end = 180_000u64;
    let specs: Vec<QuerySpecWire> = vec![
        QuerySpecWire::default(),
        QuerySpecWire {
            t1: window_end,
            bucket_samples: window_end / 1_024 + 1,
            ..QuerySpecWire::default()
        },
        QuerySpecWire {
            sessions: vec![1],
            ..QuerySpecWire::default()
        },
        // An empty window (t1 < t0) must agree on "nothing" too.
        QuerySpecWire {
            t0: 1_000,
            t1: 999,
            ..QuerySpecWire::default()
        },
    ];
    let oracle: Vec<QueryResultWire> = specs
        .iter()
        .map(|spec| {
            let local = query_journals(dir.path(), &query_spec_from_wire(spec), None)
                .expect("local recompute");
            query_result_to_wire(&local)
        })
        .collect();
    let local_full = &oracle[0];
    println!(
        "quiesced: {} events across {} sessions, {} segments on disk ({} pruned-capable sealed)",
        local_full.events,
        local_full.sessions.len(),
        local_full.segments_scanned,
        local_full.segments_scanned.saturating_sub(SESSIONS as u64),
    );

    // Each round's full-range query adds its cache hits and misses.
    let cache = soak.sessions(
        QUERY_THREADS,
        soak.rounds(),
        |thread, round, cache: &mut (u64, u64)| {
            let mut mc =
                MetricsClient::connect_with(addr, client_config()).expect("connect verifier");
            for (i, spec) in specs.iter().enumerate() {
                let got = mc.query(spec).expect("verify query");
                if i == 0 {
                    cache.0 += got.cache_hits;
                    cache.1 += got.cache_misses;
                }
                if stats_of(&got) != stats_of(&oracle[i]) {
                    soak.fail(format!(
                        "query thread {thread} round {round}: spec {i} diverged from \
                         replay: {} events remote vs {} local",
                        got.events, oracle[i].events
                    ));
                }
            }
        },
    );
    let (hits, misses) = cache.iter().fold((0, 0), |(h, m), c| (h + c.0, m + c.1));
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "{} live queries under churn, {forced_drops} forced transport losses; verify phase: \
         {} full-range queries, cache {hits} hits / {misses} misses ({:.0}% hit-rate)",
        live_queries.load(Ordering::Relaxed),
        QUERY_THREADS * soak.rounds(),
        hit_rate * 100.0,
    );

    if local_full.events == 0 {
        soak.fail("no events survived ingest: the soak compared empty answers");
    }
    if local_full.sessions.len() != SESSIONS {
        soak.fail(format!(
            "{} session rows for {SESSIONS} streamed sessions",
            local_full.sessions.len()
        ));
    }
    if local_full.segments_scanned <= SESSIONS as u64 {
        soak.fail(format!(
            "only {} segments for {SESSIONS} sessions: nothing sealed, cache untested",
            local_full.segments_scanned
        ));
    }
    if live_queries.load(Ordering::Relaxed) == 0 {
        soak.fail("no query completed while sessions streamed: churn went untested");
    }
    if forced_drops == 0 {
        soak.fail("no transport loss was ever forced: ingest churn was too tame");
    }
    if hit_rate < 0.2 {
        soak.fail(format!(
            "cache hit-rate {hit_rate:.2} on repeated identical queries is below the 0.20 floor"
        ));
    }

    drop(clients);
    server.shutdown();
    "every query answered, every answer equaled replay"
}
