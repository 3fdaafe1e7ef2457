//! Query soak for the journal query engine: a live journaled server
//! ingests chaos-faulted sessions (NaN/inf injection server-side,
//! forced transport losses client-side) while concurrent QUERY clients
//! hammer it, verifying the tentpole claims of the queryable-journal
//! layer:
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
//! `--smoke` bounds the workload for CI; full mode streams more
//! sessions and more samples. Exits non-zero on any violation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use emprof_bench::soak::{self, build_signal, client_config, config, CLK, FS};
use emprof_fault::FaultPlan;
use emprof_serve::{
    query_result_to_wire, query_spec_from_wire, MetricsClient, ProfileClient,
    QueryResultWire, QuerySpecWire, ServeConfig, Server,
};
use emprof_store::query_journals;

/// Per-session ingest volume in signal segments (~385 samples each).
/// Sized so every session journals past the 4 MiB segment target and
/// rolls at least one *sealed* segment — the only kind the decoded
/// cache stores — otherwise the hit-rate assertion tests nothing.
const SMOKE_SIGNAL_SEGMENTS: usize = 1_800;
const FULL_SIGNAL_SEGMENTS: usize = 3_000;

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
fn stream_session(
    addr: std::net::SocketAddr,
    session: usize,
    segments: usize,
) -> (ProfileClient, u64) {
    let signal = build_signal(session, 0, segments);
    let mut client = ProfileClient::connect_with(
        addr,
        &format!("query-soak-{session}"),
        config(),
        FS,
        CLK,
        client_config(),
    )
    .expect("open session");

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

fn main() {
    let smoke = soak::smoke();
    let sessions = if smoke { 3 } else { 4 };
    let signal_segments = if smoke {
        SMOKE_SIGNAL_SEGMENTS
    } else {
        FULL_SIGNAL_SEGMENTS
    };
    let query_threads = if smoke { 3 } else { 6 };
    let repeats = if smoke { 6 } else { 10 };

    println!(
        "query soak: {sessions} chaos-faulted sessions, {query_threads} query threads x {repeats} \
         repeats ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let dir = std::env::temp_dir().join(format!("emprof-query-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let server = Arc::new(
        Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                journal_dir: Some(dir.clone()),
                // Chaos ingest: every batch is corrupted before the
                // detector sees it; the query layer must not care.
                fault_plan: Some(FaultPlan::chaos()),
                fault_seed: 0x51_50_4b,
                idle_timeout: Duration::from_secs(60),
                ..ServeConfig::default()
            },
        )
        .expect("bind loopback server"),
    );
    let addr = server.local_addr();

    // Phase 1: stream every session while a querier hammers the live
    // server. Results under churn are point-in-time snapshots (not
    // comparable to any later replay) — the claim here is that every
    // one of them *answers*, across flushes, acks, compaction and
    // forced reconnects.
    let stop = Arc::new(AtomicBool::new(false));
    let live_queries = Arc::new(AtomicU64::new(0));
    let querier = {
        let stop = Arc::clone(&stop);
        let live_queries = Arc::clone(&live_queries);
        std::thread::spawn(move || {
            let mut mc =
                MetricsClient::connect_with(addr, client_config()).expect("connect querier");
            while !stop.load(Ordering::Relaxed) {
                mc.query(&QuerySpecWire::default())
                    .expect("query failed while sessions streamed");
                live_queries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let barrier = Arc::new(Barrier::new(sessions));
    let streamers: Vec<_> = (0..sessions)
        .map(|k| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                stream_session(addr, k, signal_segments)
            })
        })
        .collect();
    let mut clients = Vec::new();
    let mut forced_drops = 0u64;
    for h in streamers {
        let (client, drops) = h.join().expect("streamer panicked");
        clients.push(client);
        forced_drops += drops;
    }
    stop.store(true, Ordering::Relaxed);
    querier.join().expect("querier panicked");

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
            let local = query_journals(&dir, &query_spec_from_wire(spec), None)
                .expect("local recompute");
            query_result_to_wire(&local)
        })
        .collect();
    let local_full = oracle[0].clone();
    println!(
        "quiesced: {} events across {} sessions, {} segments on disk ({} pruned-capable sealed)",
        local_full.events,
        local_full.sessions.len(),
        local_full.segments_scanned,
        local_full
            .segments_scanned
            .saturating_sub(sessions as u64),
    );

    let mismatches = Arc::new(AtomicU64::new(0));
    let full_hits = Arc::new(AtomicU64::new(0));
    let full_misses = Arc::new(AtomicU64::new(0));
    let specs = Arc::new(specs);
    let oracle = Arc::new(oracle);
    let verifiers: Vec<_> = (0..query_threads)
        .map(|_| {
            let specs = Arc::clone(&specs);
            let oracle = Arc::clone(&oracle);
            let mismatches = Arc::clone(&mismatches);
            let full_hits = Arc::clone(&full_hits);
            let full_misses = Arc::clone(&full_misses);
            std::thread::spawn(move || {
                let mut mc =
                    MetricsClient::connect_with(addr, client_config()).expect("connect verifier");
                for _ in 0..repeats {
                    for (i, spec) in specs.iter().enumerate() {
                        let got = mc.query(spec).expect("verify query");
                        if i == 0 {
                            full_hits.fetch_add(got.cache_hits, Ordering::Relaxed);
                            full_misses.fetch_add(got.cache_misses, Ordering::Relaxed);
                        }
                        if stats_of(&got) != stats_of(&oracle[i]) {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "query soak: spec {i} diverged from replay: \
                                 {} events remote vs {} local",
                                got.events, oracle[i].events
                            );
                        }
                    }
                }
            })
        })
        .collect();
    for h in verifiers {
        h.join().expect("verifier panicked");
    }

    let hits = full_hits.load(Ordering::Relaxed);
    let misses = full_misses.load(Ordering::Relaxed);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "{} live queries under churn, {forced_drops} forced transport losses; verify phase: \
         {} full-range queries, cache {hits} hits / {misses} misses ({:.0}% hit-rate)",
        live_queries.load(Ordering::Relaxed),
        query_threads * repeats,
        hit_rate * 100.0,
    );

    let mut failures = Vec::new();
    if mismatches.load(Ordering::Relaxed) > 0 {
        failures.push(format!(
            "{} remote query results diverged from local replay",
            mismatches.load(Ordering::Relaxed)
        ));
    }
    if local_full.events == 0 {
        failures.push("no events survived ingest: the soak compared empty answers".into());
    }
    if local_full.sessions.len() != sessions {
        failures.push(format!(
            "{} session rows for {sessions} streamed sessions",
            local_full.sessions.len()
        ));
    }
    if local_full.segments_scanned <= sessions as u64 {
        failures.push(format!(
            "only {} segments for {sessions} sessions: nothing sealed, cache untested",
            local_full.segments_scanned
        ));
    }
    if live_queries.load(Ordering::Relaxed) == 0 {
        failures.push("no query completed while sessions streamed: churn went untested".into());
    }
    if forced_drops == 0 {
        failures.push("no transport loss was ever forced: ingest churn was too tame".into());
    }
    if hit_rate < 0.2 {
        failures.push(format!(
            "cache hit-rate {:.2} on repeated identical queries is below the 0.20 floor",
            hit_rate
        ));
    }

    drop(clients);
    let server = Arc::into_inner(server).expect("all clients done");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if failures.is_empty() {
        println!("query soak PASS: every query answered, every answer equaled replay");
    } else {
        for f in &failures {
            eprintln!("query soak FAIL: {f}");
        }
        std::process::exit(1);
    }
}
