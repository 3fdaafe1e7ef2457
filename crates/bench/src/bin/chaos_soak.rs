//! Chaos soak for emprof-serve: concurrent sessions streaming *faulted*
//! signals at a server while their connections are repeatedly severed
//! mid-stream, verifying the resilience layer's load-bearing claims:
//!
//! 1. **every session resumes** — each forced transport loss is healed by
//!    reconnect-and-resume; no round is lost to a dropped socket;
//! 2. **faults never corrupt events** — the served event stream equals
//!    the batch detector's output on the same faulted signal, bit for
//!    bit, so NaN/inf injection can only *remove* samples, never alter
//!    events on the survivors;
//! 3. **honest accounting** — the server's rejected-sample count equals
//!    the number of non-finite samples the faults actually produced;
//! 4. **exactly-once delivery** — replies are deliberately lost *after*
//!    the server finalized and offered the events but *before* the
//!    client consumed them (the §10 kill window); the ack cursor must
//!    make redelivery invisible: no event lost, none duplicated.
//!
//! `--smoke` runs 4 concurrent sessions for a few bounded rounds (CI
//! sized); full mode runs 8 sessions and ~3× the work. `--seconds N`
//! overrides the soak budget. Exits non-zero on any violation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use emprof_bench::soak::{self, batch_events, build_signal, client_config, config, CLK, FS};
use emprof_core::{CalibConfig, Emprof, StallEvent};
use emprof_fault::{flag_degraded, survivor_dropout_points, FaultInjector, FaultPlan};
use emprof_serve::{MetricsClient, ProfileClient, ServeConfig, Server};

const QUEUE_FRAMES: usize = 16;

struct SessionTally {
    rounds: usize,
    mismatches: usize,
    miscounts: usize,
    resumes: u64,
    forced_drops: u64,
    lost_replies: u64,
    degraded_events: u64,
    rejected: u64,
}

fn run_round(
    addr: std::net::SocketAddr,
    session: usize,
    round: usize,
    segments: usize,
    tally: &mut SessionTally,
) {
    let mut signal = build_signal(session, round, segments);
    let seed = (session as u64) << 32 | round as u64 | 1;
    let mut injector = FaultInjector::new(FaultPlan::chaos(), seed);
    let report = injector.inject(&mut signal);
    let non_finite = signal.iter().filter(|v| !v.is_finite()).count() as u64;

    let mut client = ProfileClient::connect_with(
        addr,
        &format!("chaos-{session}"),
        config(),
        FS,
        CLK,
        client_config(),
    )
    .expect("open session");
    let before = client.reconnects();

    let frame = 64 + session * 997;
    let mut served = Vec::new();
    for (i, chunk) in signal.chunks(frame).enumerate() {
        // Sever the transport between sends at deterministic points; the
        // next operation must reconnect and resume the same session.
        if (i + session + round) % 9 == 3 {
            client.drop_connection();
            tally.forced_drops += 1;
        }
        client.send(chunk).expect("stream frame");
        // The §10 kill window: complete a flush server-side, then sever
        // before consuming or acking the reply. The offered events must
        // be redelivered on resume — exactly once.
        if (i + session + round) % 11 == 5 {
            client.flush_lost_reply().expect("lost-reply flush");
            tally.lost_replies += 1;
        }
        if (i + 1) % 4 == 0 {
            let (events, _) = client.flush().expect("flush");
            served.extend(events);
        }
    }
    let resumed = client.reconnects();
    let (tail, stats) = client.finish().expect("finish");
    served.extend(tail);
    tally.resumes += resumed - before;

    assert!(stats.final_report);
    tally.rejected += stats.samples_rejected;
    if stats.samples_pushed + stats.samples_rejected != signal.len() as u64
        || stats.samples_rejected != non_finite
    {
        tally.miscounts += 1;
    }
    // The served stream must equal a local batch run on the identical
    // faulted signal: the sanitizer, not luck, is what keeps NaN/inf
    // from reaching the detector.
    if served != batch_events(&signal) {
        tally.mismatches += 1;
    }
    let gap_points = survivor_dropout_points(&report.dropouts, &signal);
    tally.degraded_events += flag_degraded(&served, &gap_points)
        .iter()
        .filter(|&&d| d)
        .count() as u64;
    tally.rounds += 1;
}

/// Metrics-sanity phase: on a fresh server, stream three sessions that
/// are flushed but *not* finished (so their rows stay registered), each
/// surviving a forced transport loss, then poll METRICS and check the
/// wire-reported observability against ground truth:
///
/// * every per-session rate is finite and non-negative;
/// * the session rows sum to the server-wide totals (samples, events,
///   sheds) — per-session accounting does not leak or double-count;
/// * HEALTH agrees with the session registry.
///
/// Returns human-readable violations (empty = pass).
fn metrics_sanity_phase(segments: usize) -> Vec<String> {
    const SESSIONS: usize = 3;
    let mut failures = Vec::new();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            queue_frames: QUEUE_FRAMES,
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .expect("bind metrics-phase server");
    let addr = server.local_addr();

    let mut clients = Vec::new();
    for k in 0..SESSIONS {
        let signal = build_signal(k, 7_000, segments);
        let mut client = ProfileClient::connect_with(
            addr,
            &format!("metrics-{k}"),
            config(),
            FS,
            CLK,
            client_config(),
        )
        .expect("open metrics session");
        let mid = signal.len() / 2;
        client.send(&signal[..mid]).expect("stream first half");
        // A forced transport loss mid-stream: the row must describe the
        // *resumed* session, with nothing lost or double-counted.
        client.drop_connection();
        client.send(&signal[mid..]).expect("stream second half");
        let _ = client.flush().expect("flush without finishing");
        clients.push((client, signal.len() as u64));
    }

    let mut mc = MetricsClient::connect_with(addr, client_config())
        .expect("connect metrics client");
    let health = mc.fetch_health().expect("HEALTH poll");
    if !health.healthy {
        failures.push("metrics phase: server reported unhealthy".into());
    }
    if health.sessions_active != SESSIONS as u64 {
        failures.push(format!(
            "metrics phase: HEALTH says {} active sessions, expected {SESSIONS}",
            health.sessions_active
        ));
    }
    let reply = mc.fetch_metrics().expect("METRICS poll");
    if reply.sessions.len() != SESSIONS {
        failures.push(format!(
            "metrics phase: {} session rows, expected {SESSIONS}",
            reply.sessions.len()
        ));
    }
    let mut row_samples = 0u64;
    let mut row_events = 0u64;
    let mut row_sheds = 0u64;
    for row in &reply.sessions {
        if !row.samples_per_sec.is_finite() || row.samples_per_sec < 0.0 {
            failures.push(format!(
                "metrics phase: session {} rate {} is not a sane rate",
                row.session_id, row.samples_per_sec
            ));
        }
        if !row.connected {
            failures.push(format!(
                "metrics phase: session {} shown detached while its client lives",
                row.session_id
            ));
        }
        if row.events_acked > row.events_emitted {
            failures.push(format!(
                "metrics phase: session {} acked {} of only {} emitted events",
                row.session_id, row.events_acked, row.events_emitted
            ));
        }
        row_samples += row.samples_pushed;
        row_events += row.events_emitted;
        row_sheds += row.sheds;
    }
    let expected_samples: u64 = clients.iter().map(|(_, n)| n).sum();
    if row_samples != expected_samples {
        failures.push(format!(
            "metrics phase: rows sum to {row_samples} samples, clients sent {expected_samples}"
        ));
    }
    if row_samples != reply.server.samples_in {
        failures.push(format!(
            "metrics phase: rows sum to {row_samples} samples, server total {}",
            reply.server.samples_in
        ));
    }
    if row_events != reply.server.events_total {
        failures.push(format!(
            "metrics phase: rows sum to {row_events} events, server total {}",
            reply.server.events_total
        ));
    }
    if row_sheds != reply.server.sheds {
        failures.push(format!(
            "metrics phase: rows sum to {row_sheds} sheds, server total {}",
            reply.server.sheds
        ));
    }
    for (name, m) in &reply.snapshot.meters {
        if !m.rate_per_sec.is_finite() || m.rate_per_sec < 0.0 {
            failures.push(format!(
                "metrics phase: meter {name} rate {} is not a sane rate",
                m.rate_per_sec
            ));
        }
    }

    for (client, _) in clients {
        let _ = client.finish().expect("finish metrics session");
    }
    server.shutdown();
    failures
}

/// F1 of detected events against known dip centers: a center is a true
/// positive if some not-yet-claimed event covers it (± `tol` samples);
/// unclaimed events are false positives, unmatched centers misses.
fn f1_score(events: &[StallEvent], centers: &[usize], tol: usize) -> f64 {
    let mut claimed = vec![false; events.len()];
    let mut tp = 0usize;
    for &c in centers {
        let hit = events.iter().enumerate().position(|(i, e)| {
            !claimed[i] && e.start_sample <= c + tol && c <= e.end_sample + tol
        });
        if let Some(i) = hit {
            claimed[i] = true;
            tp += 1;
        }
    }
    let fp = claimed.iter().filter(|&&c| !c).count();
    let fnn = centers.len() - tp;
    if tp == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2.0 * tp as f64 + fp as f64 + fnn as f64)
}

/// Probe-walk phase: a capture with known dip ground truth goes through
/// `FaultPlan::probe_walk()` — a downward-wandering per-sample gain with
/// a fixed post-attenuation receiver noise floor. The clean capture
/// profiles perfectly under the static configuration; once the walk is
/// injected, the noise floor becomes the dominant structure inside
/// dip-free normalization windows and the static detector drowns in
/// false dips (the "silent accuracy loss" of a drifting probe: nothing
/// errors, the numbers are just wrong). The adaptive detector's
/// contrast gate and threshold tracking must keep its F1 ahead of
/// static by a clear margin.
fn probe_walk_phase() -> Vec<String> {
    const N: usize = 400_000;
    const DIP_START: usize = 3_000;
    const DIP_STEP: usize = 6_000;
    const DIP_WIDTH: usize = 14;
    const MATCH_TOL: usize = 32;
    const MARGIN: f64 = 0.15;

    let mut signal = Vec::with_capacity(N);
    let mut centers = Vec::new();
    for i in 0..N {
        let k = i.saturating_sub(DIP_START) % DIP_STEP;
        let in_dip = i >= DIP_START && k < DIP_WIDTH;
        if in_dip && k == DIP_WIDTH / 2 {
            centers.push(i);
        }
        signal.push(if in_dip { 5.0 * 0.12 } else { 5.0 });
    }
    {
        // Control: the clean capture must profile perfectly statically,
        // so any accuracy loss below is attributable to the walk.
        let clean_events = batch_events(&signal);
        if f1_score(&clean_events, &centers, MATCH_TOL) < 1.0 {
            return vec![format!(
                "control failed: {} static events on the clean capture for {} dips",
                clean_events.len(),
                centers.len()
            )];
        }
    }
    let mut injector = FaultInjector::new(FaultPlan::probe_walk(), 7);
    let report = injector.inject(&mut signal);

    let f1_of = |adaptive: bool| -> f64 {
        let mut cfg = config();
        if adaptive {
            cfg.calib = CalibConfig::adaptive();
        }
        let profile = Emprof::new(cfg).profile_magnitude(&signal, FS, CLK);
        f1_score(profile.events(), &centers, MATCH_TOL)
    };
    let static_f1 = f1_of(false);
    let adaptive_f1 = f1_of(true);
    println!(
        "probe walk to {:.0}% gain over {} dips: static F1 {static_f1:.3}, \
         adaptive F1 {adaptive_f1:.3}",
        report.walk_min_gain * 100.0,
        centers.len()
    );

    let mut failures = Vec::new();
    if report.walk_min_gain > 0.2 {
        failures.push(format!(
            "probe walk never wandered: min gain {:.3} stayed above 0.2",
            report.walk_min_gain
        ));
    }
    if adaptive_f1 < static_f1 + MARGIN {
        failures.push(format!(
            "adaptive F1 {adaptive_f1:.3} does not beat static F1 {static_f1:.3} \
             by the {MARGIN} margin under probe walk"
        ));
    }
    // The causal schedule cannot gate block 0 (there is nothing to
    // calibrate from yet), so a few cold-start false positives are
    // inherent; beyond that warmup, adaptive should stay near-perfect.
    if adaptive_f1 < 0.8 {
        failures.push(format!(
            "adaptive F1 {adaptive_f1:.3} under probe walk is below 0.8: \
             calibration failed to track the drift"
        ));
    }
    failures
}

fn main() {
    let smoke = soak::smoke();
    let budget = soak::budget(10, 45);
    let sessions = if smoke { 4 } else { 8 };
    let segments = if smoke { 12 } else { 32 };

    println!(
        "chaos soak: {sessions} concurrent sessions, {:?} budget ({} mode)",
        budget,
        if smoke { "smoke" } else { "full" }
    );

    let server = Arc::new(
        Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                queue_frames: QUEUE_FRAMES,
                heartbeat_interval: Some(Duration::from_millis(500)),
                // The resume window: a detached session must survive at
                // least this long for the client to come back.
                idle_timeout: Duration::from_secs(30),
                ..ServeConfig::default()
            },
        )
        .expect("bind loopback server"),
    );
    let barrier = Arc::new(Barrier::new(sessions));
    let deadline = Instant::now() + budget;
    let degraded_total = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..sessions)
        .map(|k| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let degraded_total = Arc::clone(&degraded_total);
            std::thread::spawn(move || {
                barrier.wait();
                let mut tally = SessionTally {
                    rounds: 0,
                    mismatches: 0,
                    miscounts: 0,
                    resumes: 0,
                    forced_drops: 0,
                    lost_replies: 0,
                    degraded_events: 0,
                    rejected: 0,
                };
                while Instant::now() < deadline {
                    run_round(server.local_addr(), k, tally.rounds, segments, &mut tally);
                }
                degraded_total.fetch_add(tally.degraded_events, Ordering::Relaxed);
                tally
            })
        })
        .collect();

    let mut rounds = 0usize;
    let mut mismatches = 0usize;
    let mut miscounts = 0usize;
    let mut resumes = 0u64;
    let mut forced_drops = 0u64;
    let mut lost_replies = 0u64;
    let mut rejected = 0u64;
    for h in handles {
        let t = h.join().expect("session thread panicked");
        rounds += t.rounds;
        mismatches += t.mismatches;
        miscounts += t.miscounts;
        resumes += t.resumes;
        forced_drops += t.forced_drops;
        lost_replies += t.lost_replies;
        rejected += t.rejected;
    }
    let server = Arc::into_inner(server).expect("all clients done");
    let stats = server.shutdown();

    println!(
        "{rounds} rounds: {forced_drops} forced transport losses, {lost_replies} lost replies, \
         {resumes} resumes (server counted {}), {rejected} samples rejected server-side, \
         {} degraded events flagged",
        stats.reconnects,
        degraded_total.load(Ordering::Relaxed),
    );

    let mut failures = Vec::new();
    if mismatches > 0 {
        failures.push(format!(
            "{mismatches} rounds diverged from the batch detector on the faulted signal"
        ));
    }
    if miscounts > 0 {
        failures.push(format!(
            "{miscounts} rounds misaccounted accepted vs rejected samples"
        ));
    }
    if resumes < forced_drops {
        failures.push(format!(
            "only {resumes} resumes for {forced_drops} forced drops: sessions died instead"
        ));
    }
    if stats.reconnects < forced_drops {
        failures.push(format!(
            "server saw {} resumes for {forced_drops} forced drops",
            stats.reconnects
        ));
    }
    if forced_drops == 0 {
        failures.push("no transport loss was ever forced: the soak tested nothing".into());
    }
    if lost_replies == 0 {
        failures.push("no reply was ever lost in the kill window: exactly-once went untested".into());
    }
    if rounds == 0 {
        failures.push("no session completed a full round within the budget".into());
    }

    println!("metrics sanity phase: 3 flushed sessions, forced drops, METRICS vs truth");
    failures.extend(metrics_sanity_phase(segments));

    println!("probe-walk phase: adaptive vs static accuracy under a wandering gain");
    failures.extend(probe_walk_phase());

    if failures.is_empty() {
        println!("chaos soak PASS: every session resumed, faults never altered events");
    } else {
        for f in &failures {
            eprintln!("chaos soak FAIL: {f}");
        }
        std::process::exit(1);
    }
}
