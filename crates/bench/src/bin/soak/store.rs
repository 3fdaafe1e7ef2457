//! Store scenario, a restart soak for the durable event journal: a
//! journaled server is repeatedly *killed* (no finalize — journals left
//! exactly as a crash would leave them) mid-stream and inside the §10
//! kill window of a lost reply, rebound over the same journal
//! directory, and the redirected client resumes. After every round:
//!
//! 1. **exactly-once** — the served event stream is bit-identical to
//!    the batch detector's on the same signal, across every crash;
//! 2. **recovery is honest** — every rebind adopts the surviving
//!    sessions from disk instead of refusing or inventing state;
//! 3. **compaction completes** — once the FIN reply is acknowledged the
//!    session's journal directory is deleted, so a soak leaves no
//!    unbounded disk residue behind.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use emprof_bench::soak::{batch_events, bind_journaled, build_signal, open_session, Soak, TempDir};
use emprof_serve::ServeConfig;
use emprof_store::inspect_dir;

/// Rounds, run one after another over one journal directory.
pub const ROUNDS: usize = 16;
const SEGMENTS: usize = 10;
const CRASHES: usize = 2;

pub fn run(soak: &Soak) -> &'static str {
    println!(
        "store soak: journaled server restarts, {} rounds",
        soak.rounds()
    );
    let dir = TempDir::new("store");
    let restarts: u64 = soak
        .sessions(1, soak.rounds(), |_, round, restarts| {
            run_round(soak, &dir, round, restarts)
        })
        .into_iter()
        .sum();
    println!("{restarts} server kills, each inside a lost-reply window");
    if restarts == 0 {
        soak.fail("no server was ever killed: the soak tested nothing");
    }
    "every event delivered exactly once across server kills"
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

/// One round: stream a signal through `CRASHES` server kills (each one
/// landing inside a lost-reply kill window), resume after every
/// restart, and check the final stream against batch.
fn run_round(soak: &Soak, dir: &TempDir, round: usize, restarts: &mut u64) {
    let signal = build_signal(0, round, SEGMENTS);
    let expected = batch_events(&signal);

    let mut server = bind_journaled(dir, ServeConfig::default());
    let mut client = open_session(server.local_addr(), &format!("store-soak-{round}"));

    let frame = 512 + (round % 7) * 331;
    let chunks: Vec<&[f64]> = signal.chunks(frame).collect();
    let crash_points: BTreeSet<usize> = (1..=CRASHES)
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
            server.kill();
            let bad = count_bad_headers(dir.path());
            if bad > 0 {
                soak.fail(format!(
                    "round {round}: {bad} crash-surviving segments had unparseable headers"
                ));
            }
            server = bind_journaled(dir, ServeConfig::default());
            client.redirect(server.local_addr()).expect("redirect");
            *restarts += 1;
        }
        if (i + 1) % 3 == 0 {
            served.extend(client.flush().expect("flush").0);
        }
    }
    let (tail, stats) = client.finish().expect("finish");
    served.extend(tail);
    assert!(
        stats.final_report,
        "finish did not deliver the final report"
    );
    assert_eq!(stats.samples_pushed, signal.len() as u64);

    if served != expected {
        soak.fail(format!(
            "round {round}: served events diverged from the batch detector across restarts"
        ));
    }

    // The FIN ack retires the session and deletes its journal — give
    // the asynchronous ack a bounded moment, then demand a clean dir.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let residue = std::fs::read_dir(dir.path())
            .map(|d| d.count())
            .unwrap_or(0);
        if residue == 0 {
            break;
        }
        if Instant::now() > deadline {
            soak.fail(format!(
                "round {round}: journal directories left behind after the FIN ack"
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
}
