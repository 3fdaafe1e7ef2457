//! Chaos scenario: concurrent sessions streaming *faulted* signals at a
//! server while their connections are repeatedly severed mid-stream,
//! verifying the resilience layer's load-bearing claims:
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
//! Then a metrics-sanity phase and a probe-walk accuracy phase.

use std::time::Duration;

use emprof_bench::soak::{
    batch_events, build_signal, client_config, config, open_session, Faults, Soak, CLK, FS,
};
use emprof_core::{CalibConfig, Emprof, StallEvent};
use emprof_fault::{FaultInjector, FaultPlan};
use emprof_serve::{MetricsClient, ServeConfig, Server};

/// Rounds per session.
pub const ROUNDS: usize = 100;
const SESSIONS: usize = 4;
const SEGMENTS: usize = 12;
const QUEUE_FRAMES: usize = 16;

pub fn run(soak: &Soak) -> &'static str {
    println!(
        "chaos soak: {SESSIONS} concurrent sessions x {} rounds",
        soak.rounds()
    );
    let server = Server::bind(
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
    .expect("bind loopback server");
    let addr = server.local_addr();
    let faults = Faults {
        chaos: true,
        severs: true,
        lost_replies: true,
    };
    let t = soak.stream_sessions(addr, SESSIONS, SEGMENTS, faults);
    let stats = server.shutdown();

    println!(
        "{} rounds: {} forced transport losses, {} lost replies, {} resumes (server counted {}), \
         {} samples rejected server-side, {} degraded events flagged",
        t.rounds,
        t.forced_drops,
        t.lost_replies,
        t.resumes,
        stats.reconnects,
        t.rejected,
        t.degraded,
    );

    if stats.reconnects < t.forced_drops {
        soak.fail(format!(
            "server saw {} resumes for {} forced drops",
            stats.reconnects, t.forced_drops
        ));
    }

    println!("metrics sanity phase: 3 flushed sessions, forced drops, METRICS vs truth");
    soak.guard("metrics sanity phase", || metrics_sanity_phase(soak));

    println!("probe-walk phase: adaptive vs static accuracy under a wandering gain");
    soak.guard("probe-walk phase", || probe_walk_phase(soak));
    "every session resumed, faults never altered events"
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
fn metrics_sanity_phase(soak: &Soak) {
    const SESSIONS: usize = 3;
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
        let signal = build_signal(k, 7_000, SEGMENTS);
        let mut client = open_session(addr, &format!("metrics-{k}"));
        let mid = signal.len() / 2;
        client.send(&signal[..mid]).expect("stream first half");
        // A forced transport loss mid-stream: the row must describe the
        // *resumed* session, with nothing lost or double-counted.
        client.drop_connection();
        client.send(&signal[mid..]).expect("stream second half");
        let _ = client.flush().expect("flush without finishing");
        clients.push((client, signal.len() as u64));
    }

    let mut mc =
        MetricsClient::connect_with(addr, client_config()).expect("connect metrics client");
    let health = mc.fetch_health().expect("HEALTH poll");
    if !health.healthy {
        soak.fail("metrics phase: server reported unhealthy");
    }
    if health.sessions_active != SESSIONS as u64 {
        soak.fail(format!(
            "metrics phase: HEALTH says {} active sessions, expected {SESSIONS}",
            health.sessions_active
        ));
    }
    let reply = mc.fetch_metrics().expect("METRICS poll");
    if reply.sessions.len() != SESSIONS {
        soak.fail(format!(
            "metrics phase: {} session rows, expected {SESSIONS}",
            reply.sessions.len()
        ));
    }
    let mut row_samples = 0u64;
    let mut row_events = 0u64;
    let mut row_sheds = 0u64;
    for row in &reply.sessions {
        if !row.samples_per_sec.is_finite() || row.samples_per_sec < 0.0 {
            soak.fail(format!(
                "metrics phase: session {} rate {} is not a sane rate",
                row.session_id, row.samples_per_sec
            ));
        }
        if !row.connected {
            soak.fail(format!(
                "metrics phase: session {} shown detached while its client lives",
                row.session_id
            ));
        }
        if row.events_acked > row.events_emitted {
            soak.fail(format!(
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
        soak.fail(format!(
            "metrics phase: rows sum to {row_samples} samples, clients sent {expected_samples}"
        ));
    }
    let totals = &reply.server;
    for (what, rows, total) in [
        ("samples", row_samples, totals.samples_in),
        ("events", row_events, totals.events_total),
        ("sheds", row_sheds, totals.sheds),
    ] {
        if rows != total {
            soak.fail(format!(
                "metrics phase: rows sum to {rows} {what}, server total {total}"
            ));
        }
    }
    for (name, m) in &reply.snapshot.meters {
        if !m.rate_per_sec.is_finite() || m.rate_per_sec < 0.0 {
            soak.fail(format!(
                "metrics phase: meter {name} rate {} is not a sane rate",
                m.rate_per_sec
            ));
        }
    }

    for (client, _) in clients {
        let _ = client.finish().expect("finish metrics session");
    }
    server.shutdown();
}

/// F1 of detected events against known dip centers: a center is a true
/// positive if some not-yet-claimed event covers it (± `tol` samples);
/// unclaimed events are false positives, unmatched centers misses.
fn f1_score(events: &[StallEvent], centers: &[usize], tol: usize) -> f64 {
    let mut claimed = vec![false; events.len()];
    let mut tp = 0usize;
    for &c in centers {
        let hit = events
            .iter()
            .enumerate()
            .position(|(i, e)| !claimed[i] && e.start_sample <= c + tol && c <= e.end_sample + tol);
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
fn probe_walk_phase(soak: &Soak) {
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
    // Control: the clean capture must profile perfectly statically, so
    // any accuracy loss below is attributable to the walk.
    let clean_events = batch_events(&signal);
    if f1_score(&clean_events, &centers, MATCH_TOL) < 1.0 {
        soak.fail(format!(
            "control failed: {} static events on the clean capture for {} dips",
            clean_events.len(),
            centers.len()
        ));
        return;
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

    if report.walk_min_gain > 0.2 {
        soak.fail(format!(
            "probe walk never wandered: min gain {:.3} stayed above 0.2",
            report.walk_min_gain
        ));
    }
    if adaptive_f1 < static_f1 + MARGIN {
        soak.fail(format!(
            "adaptive F1 {adaptive_f1:.3} does not beat static F1 {static_f1:.3} \
             by the {MARGIN} margin under probe walk"
        ));
    }
    // The causal schedule cannot gate block 0 (there is nothing to
    // calibrate from yet), so a few cold-start false positives are
    // inherent; beyond that warmup, adaptive should stay near-perfect.
    if adaptive_f1 < 0.8 {
        soak.fail(format!(
            "adaptive F1 {adaptive_f1:.3} under probe walk is below 0.8: \
             calibration failed to track the drift"
        ));
    }
}
