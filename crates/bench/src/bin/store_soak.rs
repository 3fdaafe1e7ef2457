//! Restart soak for the durable event journal: a journaled server is
//! repeatedly *killed* (no finalize — journals left exactly as a crash
//! would leave them) mid-stream and inside the §10 kill window of a
//! lost reply, rebound over the same journal directory, and the
//! redirected client resumes. After every round:
//!
//! 1. **exactly-once** — the served event stream is bit-identical to
//!    the batch detector's on the same signal, across every crash;
//! 2. **recovery is honest** — every rebind adopts the surviving
//!    sessions from disk instead of refusing or inventing state;
//! 3. **compaction completes** — once the FIN reply is acknowledged the
//!    session's journal directory is deleted, so a soak leaves no
//!    unbounded disk residue behind.
//!
//! `--smoke` bounds the soak for CI; `--seconds N` overrides the
//! budget. Exits non-zero on any violation.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use emprof_bench::soak::{self, batch_events, build_signal, client_config, config, CLK, FS};
use emprof_serve::{ProfileClient, ServeConfig, Server};
use emprof_store::inspect_dir;

fn journaled_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        journal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

struct Tally {
    rounds: usize,
    restarts: u64,
    lost_replies: u64,
    mismatches: usize,
    residues: usize,
    bad_headers: usize,
}

/// A crash may tear a segment's tail (legal residue the next open
/// truncates away) but must never leave a segment whose *header* fails
/// to parse — that would drop the whole file, not just the torn record.
fn count_bad_headers(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("session-"))
        .filter_map(|e| inspect_dir(&e.path()).ok())
        .flat_map(|ins| ins.segments)
        .filter(|seg| !seg.header_ok)
        .count()
}

/// One round: stream a signal through `crashes` server kills (each one
/// landing inside a lost-reply kill window), resume after every
/// restart, and check the final stream against batch.
fn run_round(dir: &Path, round: usize, segments: usize, crashes: usize, tally: &mut Tally) {
    let signal = build_signal(0, round, segments);
    let expected = batch_events(&signal);

    let mut server = Server::bind("127.0.0.1:0", journaled_config(dir)).expect("bind");
    let mut client = ProfileClient::connect_with(
        server.local_addr(),
        &format!("store-soak-{round}"),
        config(),
        FS,
        CLK,
        client_config(),
    )
    .expect("open session");

    let frame = 512 + (round % 7) * 331;
    let chunks: Vec<&[f64]> = signal.chunks(frame).collect();
    let crash_points: BTreeSet<usize> = (1..=crashes)
        .map(|c| (c * 7919 + round * 104729) % chunks.len())
        .collect();
    let mut served = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        client.send(chunk).expect("stream frame");
        if crash_points.contains(&i) {
            // Land the crash inside the delivery window: the flush is
            // finalized and offered server-side, the reply discarded
            // un-acked — then the process "dies" with journals as-is.
            client.flush_lost_reply().expect("doomed flush");
            tally.lost_replies += 1;
            server.kill();
            tally.bad_headers += count_bad_headers(dir);
            server = Server::bind("127.0.0.1:0", journaled_config(dir)).expect("rebind");
            client.redirect(server.local_addr()).expect("redirect");
            tally.restarts += 1;
        }
        if (i + 1) % 3 == 0 {
            let (events, _) = client.flush().expect("flush");
            served.extend(events);
        }
    }
    let (tail, stats) = client.finish().expect("finish");
    served.extend(tail);
    assert!(stats.final_report);
    assert_eq!(stats.samples_pushed, signal.len() as u64);

    if served != expected {
        tally.mismatches += 1;
    }

    // The FIN ack retires the session and deletes its journal — give
    // the asynchronous ack a bounded moment, then demand a clean dir.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let residue = std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0);
        if residue == 0 {
            break;
        }
        if Instant::now() > deadline {
            tally.residues += 1;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
    tally.rounds += 1;
}

fn main() {
    let smoke = soak::smoke();
    let budget = soak::budget(10, 45);
    let segments = if smoke { 10 } else { 24 };
    let crashes = if smoke { 2 } else { 4 };

    println!(
        "store soak: journaled server restarts, {:?} budget ({} mode)",
        budget,
        if smoke { "smoke" } else { "full" }
    );

    let dir: PathBuf = std::env::temp_dir().join(format!("emprof-store-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let deadline = Instant::now() + budget;
    let mut tally = Tally {
        rounds: 0,
        restarts: 0,
        lost_replies: 0,
        mismatches: 0,
        residues: 0,
        bad_headers: 0,
    };
    while Instant::now() < deadline || tally.rounds == 0 {
        run_round(&dir, tally.rounds, segments, crashes, &mut tally);
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "{} rounds: {} server kills (each inside a lost-reply window), {} journal residues",
        tally.rounds, tally.restarts, tally.residues,
    );

    let mut failures = Vec::new();
    if tally.mismatches > 0 {
        failures.push(format!(
            "{} rounds diverged from the batch detector across restarts",
            tally.mismatches
        ));
    }
    if tally.residues > 0 {
        failures.push(format!(
            "{} rounds left journal directories behind after the FIN ack",
            tally.residues
        ));
    }
    if tally.bad_headers > 0 {
        failures.push(format!(
            "{} crash-surviving segments had unparseable headers",
            tally.bad_headers
        ));
    }
    if tally.restarts == 0 {
        failures.push("no server was ever killed: the soak tested nothing".into());
    }
    if failures.is_empty() {
        println!(
            "store soak PASS: {} restarts, every event delivered exactly once",
            tally.restarts
        );
    } else {
        for f in &failures {
            eprintln!("store soak FAIL: {f}");
        }
        std::process::exit(1);
    }
}
