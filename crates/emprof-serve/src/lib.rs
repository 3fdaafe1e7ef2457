//! # emprof-serve — a concurrent network profiling service
//!
//! EMPROF's end goal is continuous, non-intrusive monitoring of fleets
//! of deployed IoT and hand-held devices (Section VII of the paper): a
//! capture rig per device streaming magnitude samples to an analysis
//! backend that runs for weeks. This crate turns the repository's
//! streaming detector into exactly that backend, in pure `std`:
//!
//! * [`proto`] — a versioned, length-prefixed, checksummed binary wire
//!   protocol (HELLO negotiation, SAMPLES batches, FLUSH/FIN, EVENTS/
//!   STATS replies, a WATCH tail, METRICS/HEALTH/FLIGHT observability
//!   polls; fuzz-resistant bounded decoding).
//! * [`session`] — one [`StreamingEmprof`](emprof_core::StreamingEmprof)
//!   per connected producer, in a registry with idle-timeout reaping.
//! * [`queue`] — the bounded per-session ingest queue whose fullness
//!   *blocks the socket reader*: backpressure is explicit and memory is
//!   bounded, never silently buffered. Shed mode (opt-in) drops oldest
//!   batches and counts them instead.
//! * [`net`] — the network edge the server, `emprof-router` and the
//!   clients share: the framed connection reader, the dial, HELLO
//!   handshake and reply reader of the dialing side, the accept loop,
//!   the listener bind/stop lifecycle, the `GET /metrics` responder and
//!   the observability poll loop.
//! * [`server`] — the TCP daemon: worker pool sized by
//!   [`Parallelism`](emprof_par::Parallelism), watch tail, graceful
//!   drain-then-finish shutdown.
//! * [`client`] — the blocking [`ProfileClient`] / [`WatchClient`] /
//!   [`MetricsClient`] used by `emprof push` / `emprof watch` /
//!   `emprof top`, the examples, and the tests.
//!
//! With [`ServeConfig::metrics_addr`] set, the server additionally
//! binds a pure-std HTTP/1.1 responder serving the same telemetry in
//! Prometheus text exposition format on `GET /metrics`. Each session
//! carries a [`FlightRecorder`](emprof_obs::FlightRecorder) black box
//! whose ring is dumped next to the journals on faults and pollable
//! over FLIGHT frames.
//!
//! ## The headline guarantees
//!
//! Events produced by a served session are **bit-for-bit identical** to
//! [`Emprof::profile_magnitude`](emprof_core::Emprof::profile_magnitude)
//! on the same signal — for any frame size, any FLUSH pattern, and any
//! number of concurrent sessions (enforced by `tests/serve_equivalence.rs`
//! at the workspace root and the `soak serve` bench). The service adds
//! transport and concurrency, never different answers.
//!
//! Event delivery is **exactly-once**. Every EVENTS frame is stamped
//! with its first event's sequence number; the server's per-session
//! delivery cursor advances only when the client acknowledges with
//! EVENTS_ACK, so a reply lost anywhere between the worker finalizing
//! events and the client reading them is simply re-offered on the next
//! exchange (or on resume), and the client drops redelivered prefixes
//! by sequence. With [`ServeConfig::journal_dir`] set the cursor and
//! the finalized events themselves are journaled in an append-only,
//! CRC-checked [`emprof_store`] journal, so the guarantee extends
//! across *server restarts*: `Server::bind` recovers every journaled
//! session (replaying its samples through a fresh detector when it was
//! cut down mid-stream) and clients resume against the restarted
//! process as if nothing happened. Enforced by
//! `tests/serve_resilience.rs` and the `soak store` bench.
//!
//! ## Example
//!
//! ```
//! use emprof_core::{Emprof, EmprofConfig};
//! use emprof_serve::{ProfileClient, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let config = EmprofConfig::for_rates(40e6, 1.0e9);
//!
//! // A busy signal with one stall dip.
//! let mut signal = vec![5.0; 30_000];
//! for s in signal.iter_mut().skip(15_000).take(12) { *s = 0.8; }
//!
//! let mut client = ProfileClient::connect(
//!     server.local_addr(), "olimex", config, 40e6, 1.0e9,
//! ).unwrap();
//! client.send(&signal).unwrap();
//! let (events, stats) = client.finish().unwrap();
//!
//! let batch = Emprof::new(config).profile_magnitude(&signal, 40e6, 1.0e9);
//! assert_eq!(events, batch.events());
//! assert!(stats.final_report);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod net;
pub mod proto;
pub mod queue;
pub mod server;
pub mod session;

pub use client::{
    backoff_with_jitter, ClientConfig, ClientError, MetricsClient, ProfileClient, WatchClient,
};
pub use proto::{
    ClusterAction, ErrorCode, FlightDumpWire, Frame, HealthWire, MetricsReply, NodeHealthWire,
    ProtoError, QueryResultWire, QueryRowWire, QuerySpecWire, ServerStatsWire, SessionRow,
    SessionStatsWire,
};
pub use server::{
    query_result_to_wire, query_spec_from_wire, ServeConfig, Server, ServerStatsSnapshot,
};
pub use session::{Session, SessionRegistry};

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_core::{Emprof, EmprofConfig};

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;

    fn config() -> EmprofConfig {
        EmprofConfig::for_rates(FS, CLK)
    }

    fn dipped_signal(dips: &[(usize, usize)], len: usize) -> Vec<f64> {
        let mut v = vec![5.0; len];
        for &(start, width) in dips {
            for x in v.iter_mut().skip(start).take(width) {
                *x = 0.8;
            }
        }
        v
    }

    #[test]
    fn served_session_matches_batch() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let signal = dipped_signal(&[(5_000, 12), (9_000, 30), (15_000, 8)], 40_000);
        let mut client =
            ProfileClient::connect(server.local_addr(), "t", config(), FS, CLK).unwrap();
        for chunk in signal.chunks(1_234) {
            client.send(chunk).unwrap();
        }
        let (events, stats) = client.finish().unwrap();
        let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
        assert_eq!(events, batch.events());
        assert_eq!(stats.samples_pushed, signal.len() as u64);
        assert!(stats.final_report);
        let final_stats = server.shutdown();
        assert_eq!(final_stats.events_total, batch.events().len() as u64);
        assert_eq!(final_stats.samples_in, signal.len() as u64);
        assert_eq!(final_stats.sheds, 0);
    }

    #[test]
    fn one_send_of_the_announced_bound_fits_the_payload_bound() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let len = proto::SAMPLES_FITTING_PAYLOAD as usize;
        let signal = dipped_signal(&[(100_000, 12), (len - 5_000, 30)], len);
        let mut client =
            ProfileClient::connect(server.local_addr(), "t", config(), FS, CLK).unwrap();
        client.send(&signal).unwrap();
        let (events, stats) = client.finish().unwrap();
        let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
        assert_eq!(batch.events().len(), 2);
        assert_eq!(events, batch.events());
        assert_eq!(stats.samples_pushed, len as u64);
        server.shutdown();
    }

    #[test]
    fn flush_mid_stream_delivers_prefix() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let signal = dipped_signal(&[(5_000, 12), (30_000, 12)], 50_000);
        let mut client =
            ProfileClient::connect(server.local_addr(), "t", config(), FS, CLK).unwrap();
        client.send(&signal[..20_000]).unwrap();
        let (first, stats) = client.flush().unwrap();
        assert!(!stats.final_report);
        assert_eq!(stats.samples_pushed, 20_000);
        client.send(&signal[20_000..]).unwrap();
        let (rest, _) = client.finish().unwrap();
        let mut all = first.clone();
        all.extend(rest);
        let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
        assert_eq!(all, batch.events());
        // The first dip was complete well before the flush point.
        assert_eq!(first.len(), 1);
        server.shutdown();
    }

    #[test]
    fn disconnect_without_fin_still_finalizes() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let signal = dipped_signal(&[(5_000, 12)], 30_000);
        let batch_events = Emprof::new(config())
            .profile_magnitude(&signal, FS, CLK)
            .events()
            .len() as u64;
        {
            let mut client =
                ProfileClient::connect(server.local_addr(), "t", config(), FS, CLK).unwrap();
            client.send(&signal).unwrap();
            // Dropped without finish(): the server must salvage events.
        }
        // Shutdown drains, finalizes, and counts the trailing events.
        let stats = server.shutdown();
        assert_eq!(stats.events_total, batch_events);
    }

    #[test]
    fn watch_tail_sees_events_from_sessions() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut watch = WatchClient::connect(server.local_addr()).unwrap();
        let empty = watch.poll().unwrap();
        assert_eq!(empty.events.len(), 0);

        let signal = dipped_signal(&[(5_000, 12), (9_000, 30)], 40_000);
        let mut client =
            ProfileClient::connect(server.local_addr(), "olimex", config(), FS, CLK).unwrap();
        client.send(&signal).unwrap();
        let (events, _) = client.finish().unwrap();

        let tail = watch.poll().unwrap();
        assert_eq!(tail.events.len(), events.len());
        assert_eq!(tail.missed, 0);
        assert!(tail.server.samples_in >= signal.len() as u64);
        assert!(tail.server.frames_in > 0);
        let again = watch.poll().unwrap();
        assert!(again.events.is_empty(), "cursor advanced past the tail");
        server.shutdown();
    }

    #[test]
    fn session_limit_is_enforced() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                max_sessions: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let _first = ProfileClient::connect(server.local_addr(), "a", config(), FS, CLK).unwrap();
        let second = ProfileClient::connect(server.local_addr(), "b", config(), FS, CLK);
        match second {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::SessionLimit);
            }
            other => panic!("expected session-limit rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn invalid_hello_config_is_rejected() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut bad = config();
        bad.threshold = 2.0;
        let result = ProfileClient::connect(server.local_addr(), "t", bad, FS, CLK);
        match result {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected malformed rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_get_an_error_frame() {
        use std::io::{Read, Write};
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET / HTTP/1.1\r\n\r\n................")
            .unwrap();
        let mut reply = Vec::new();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let _ = stream.read_to_end(&mut reply);
        let (frame, _) = proto::decode_frame(&reply).expect("server sent a frame");
        match frame {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected ERROR, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn idle_sessions_are_reaped() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                idle_timeout: std::time::Duration::from_millis(200),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let signal = dipped_signal(&[(5_000, 12)], 30_000);
        let mut client =
            ProfileClient::connect(server.local_addr(), "t", config(), FS, CLK).unwrap();
        client.send(&signal).unwrap();
        assert_eq!(server.sessions_active(), 1);
        // Go quiet past the idle timeout; the reaper must finalize.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.sessions_active() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        assert_eq!(server.sessions_active(), 0, "idle session was not reaped");
        let stats = server.stats();
        assert_eq!(
            stats.events_total, 1,
            "reaping must finalize and salvage events"
        );
        server.shutdown();
    }
}
