//! Scenario: live monitoring over the network with emprof-serve.
//!
//! A deployed EMPROF rig watches a device indefinitely; captures never
//! fit in memory and stalls must be reported as they happen. This example
//! runs a real [`Server`] on loopback, streams a simulated boot capture
//! to it through [`ProfileClient`] in digitizer-sized frames (reacting to
//! events as the server finalizes them), and shows that the served result
//! matches the offline batch analysis exactly — the same guarantee
//! `tests/serve_equivalence.rs` enforces property-style.
//!
//! Run with: `cargo run --release --example live_monitor`

use emprof::core::{Emprof, EmprofConfig, StallKind};
use emprof::emsim::{Receiver, ReceiverConfig};
use emprof::serve::{ProfileClient, ServeConfig, Server};
use emprof::sim::{DeviceModel, Simulator};
use emprof::workloads::boot::boot_sequence;

fn main() {
    let device = DeviceModel::olimex();
    let result = Simulator::new(device.clone()).run(boot_sequence(3, 0.25).source());
    let capture = Receiver::new(ReceiverConfig::paper_setup(40e6)).capture(&result.power, 3);
    let magnitude = capture.magnitude();
    let config = EmprofConfig::for_rates(capture.sample_rate_hz(), device.clock_hz);

    // A real profiling service on an ephemeral loopback port.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback server");
    println!("emprof-serve listening on {}", server.local_addr());

    // Stream the capture in 4096-sample frames (≈100 µs of signal each),
    // flushing periodically so stalls surface while the capture is still
    // in flight — exactly how a rig-side client would run.
    let mut client = ProfileClient::connect(
        server.local_addr(),
        "olimex-boot",
        config,
        capture.sample_rate_hz(),
        device.clock_hz,
    )
    .expect("open session");
    let mut served_events = Vec::new();
    let mut live_events = 0usize;
    let mut refresh_alerts = 0usize;
    for (i, chunk) in magnitude.chunks(4096).enumerate() {
        client.send(chunk).expect("stream frame");
        if (i + 1) % 8 == 0 {
            let (events, _) = client.flush().expect("flush");
            for event in &events {
                live_events += 1;
                if event.kind == StallKind::RefreshCollision {
                    refresh_alerts += 1;
                }
            }
            served_events.extend(events);
        }
    }
    let (tail, stats) = client.finish().expect("finish session");
    served_events.extend(tail);
    let server_stats = server.shutdown();

    // The offline batch analysis of the same capture.
    let batch =
        Emprof::new(config).profile_capture(&magnitude, capture.sample_rate_hz(), device.clock_hz);

    println!(
        "served {} samples in 4096-sample frames over {} wire frames \
         ({} bytes ingested)",
        stats.samples_pushed, server_stats.frames_in, server_stats.bytes_in
    );
    println!(
        "events delivered live: {live_events} (of {} total; {refresh_alerts} refresh alerts)",
        served_events.len()
    );
    println!(
        "served vs batch: {} vs {} events — {}",
        served_events.len(),
        batch.events().len(),
        if served_events == batch.events() {
            "identical"
        } else {
            "DIFFERENT (bug!)"
        }
    );
}
