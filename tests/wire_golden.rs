//! Golden wire bytes of every frame kind.
//!
//! `tests/fixtures/wire_golden/` holds one encoded frame per `Frame`
//! variant — every `FrameType`, plus the request forms that share a type
//! with their reply — written once by `encode_frame` and committed. The
//! encoder must keep writing exactly those bytes, and the decoder must
//! keep reading them back to the same frames: peers built from different
//! revisions talk to each other through these bytes.

use std::fs;
use std::path::{Path, PathBuf};

use emprof::core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};
use emprof::obs::{HistogramSnapshot, MeterSnapshot, Snapshot, SpanSnapshot};
use emprof::serve::proto::{
    decode_frame, encode_frame, ClusterAction, ErrorCode, FlightDumpWire, Frame, HealthWire, Hello,
    MetricsReply, NodeHealthWire, QueryResultWire, QueryRowWire, QuerySpecWire, ServerStatsWire,
    SessionRow, SessionStatsWire, Tail, TailEvent, HEADER_LEN,
};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_golden")
}

fn event(start: usize, width: usize, kind: StallKind, confidence: Confidence) -> StallEvent {
    StallEvent {
        start_sample: start,
        end_sample: start + width,
        duration_cycles: width as f64 * 25.2,
        kind,
        confidence,
    }
}

fn server_stats() -> ServerStatsWire {
    ServerStatsWire {
        sessions_active: 3,
        frames_in: 1_204,
        bytes_in: 9_876_543,
        samples_in: 1_234_567,
        events_total: 4_321,
        sheds: 2,
    }
}

fn node(name: &str, up: bool) -> NodeHealthWire {
    NodeHealthWire {
        name: name.into(),
        addr: "127.0.0.1:7741".into(),
        up,
        draining: !up,
        sessions_active: 4,
        max_sessions: 64,
        migrations_in: 1,
        migrations_out: 2,
        consecutive_failures: u64::from(!up),
        uptime_ms: 86_400_000,
    }
}

fn latency() -> HistogramSnapshot {
    HistogramSnapshot {
        count: 5,
        sum: 2_300,
        min: Some(120),
        max: Some(1_500),
        buckets: vec![(64, 127, 1), (256, 511, 3), (1_024, 2_047, 1)],
    }
}

/// Every frame variant, with the fixture file it is pinned in. Values
/// are chosen so a lossy or reordered encoder shows: signed zero,
/// subnormal and infinite samples, `u64::MAX`, non-ASCII text.
fn frames() -> Vec<(&'static str, Frame)> {
    let mut config = EmprofConfig::for_rates(40e6, 1.008e9);
    config.calib = CalibConfig::adaptive();
    vec![
        (
            "01_hello",
            Frame::Hello(Hello {
                sample_rate_hz: 40e6,
                clock_hz: 1.008e9,
                config,
                device: "golden-olimex µ".into(),
                watch: false,
                proxied: true,
                resume_session_id: 7,
                resume_token: 0xDEAD_BEEF_0BAD_F00D,
            }),
        ),
        (
            "02_hello_ack",
            Frame::HelloAck {
                version: 5,
                session_id: 42,
                max_samples_per_frame: 65_536,
                resume_token: 0x0123_4567_89AB_CDEF,
                acked_seq: 9,
                trace_id: u64::MAX,
            },
        ),
        (
            "03_samples",
            Frame::Samples {
                seq: 3,
                samples: vec![
                    5.0,
                    -0.0,
                    f64::MIN_POSITIVE / 4.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1.0e-300,
                    0.8,
                ],
            },
        ),
        ("04_flush", Frame::Flush),
        ("05_fin", Frame::Fin),
        (
            "06_events",
            Frame::Events {
                first_seq: 17,
                events: vec![
                    event(5_000, 12, StallKind::Normal, Confidence::High),
                    event(
                        9_120,
                        100,
                        StallKind::RefreshCollision,
                        Confidence::Degraded,
                    ),
                ],
            },
        ),
        (
            "07_stats",
            Frame::Stats(SessionStatsWire {
                samples_pushed: 1_000_000,
                events_emitted: 321,
                buffered_samples: 2_000,
                queue_depth: 4,
                sheds: 1,
                acked_seq: 12,
                samples_rejected: 33,
                events_degraded: 5,
                final_report: true,
            }),
        ),
        (
            "08_error",
            Frame::Error {
                code: ErrorCode::SessionLimit,
                message: "session limit reached (64)".into(),
            },
        ),
        ("09_watch", Frame::Watch { cursor: 1_234 }),
        (
            "10_tail",
            Frame::Tail(Tail {
                cursor: 1_240,
                missed: 2,
                server: server_stats(),
                events: vec![
                    TailEvent {
                        session_id: 42,
                        event: event(77, 14, StallKind::Normal, Confidence::High),
                    },
                    TailEvent {
                        session_id: 43,
                        event: event(910, 96, StallKind::RefreshCollision, Confidence::Degraded),
                    },
                ],
            }),
        ),
        ("11_heartbeat", Frame::Heartbeat { acked_seq: 88 }),
        ("12_events_ack", Frame::EventsAck { seq: 18 }),
        ("13_metrics_request", Frame::MetricsRequest),
        (
            "14_metrics",
            Frame::Metrics(MetricsReply {
                snapshot: Snapshot {
                    counters: vec![
                        ("detect.events".into(), 321),
                        ("detect.samples".into(), 1_000_000),
                    ],
                    gauges: vec![("stream.buffer_samples".into(), 2_000.5)],
                    meters: vec![(
                        "serve.samples".into(),
                        MeterSnapshot {
                            count: 1_000_000,
                            rate_per_sec: 2.5e7,
                        },
                    )],
                    histograms: vec![("detect.stall_latency_cycles".into(), latency())],
                    spans: vec![(
                        "detect.fused".into(),
                        SpanSnapshot {
                            count: 3,
                            total_ns: 9_000,
                            min_ns: 2_000,
                            max_ns: 4_000,
                        },
                    )],
                },
                server: server_stats(),
                sessions: vec![SessionRow {
                    session_id: 42,
                    trace_id: 0xFEED,
                    device: "golden-olimex".into(),
                    connected: true,
                    queue_depth: 1,
                    queue_capacity: 64,
                    samples_pushed: 1_000_000,
                    samples_per_sec: 1.9e7,
                    events_emitted: 321,
                    events_acked: 300,
                    journaled_events: 321,
                    sheds: 0,
                    samples_rejected: 33,
                    events_degraded: 5,
                    idle_ms: 12,
                }],
            }),
        ),
        ("15_health_request", Frame::HealthRequest),
        (
            "16_health",
            Frame::Health(HealthWire {
                healthy: true,
                uptime_ms: 3_600_000,
                sessions_active: 3,
                max_sessions: 64,
                journal_enabled: true,
            }),
        ),
        ("17_flight_request", Frame::FlightRequest { session_id: 42 }),
        (
            "18_flight_reply",
            Frame::FlightReply {
                dumps: vec![FlightDumpWire {
                    session_id: 42,
                    trace_id: 0xFEED,
                    json: r#"{"session":42,"reason":"transport loss"}"#.into(),
                }],
            },
        ),
        (
            "19_cluster_join",
            Frame::ClusterJoin {
                name: "node-b".into(),
                addr: "127.0.0.1:7751".into(),
                action: ClusterAction::Drain,
            },
        ),
        ("20_cluster_state_request", Frame::ClusterStateRequest),
        (
            "20_cluster_state_reply",
            Frame::ClusterStateReply {
                nodes: vec![node("node-a", true), node("node-b", false)],
            },
        ),
        ("21_node_health_request", Frame::NodeHealthRequest),
        (
            "21_node_health_reply",
            Frame::NodeHealthReply(node("", true)),
        ),
        (
            "22_query",
            Frame::Query(QuerySpecWire {
                t0: 1_000,
                t1: u64::MAX,
                bucket_samples: 40_000,
                sessions: vec![42, 43],
            }),
        ),
        (
            "23_query_result",
            Frame::QueryResult(QueryResultWire {
                events: 5,
                degraded: 1,
                refresh_collisions: 2,
                latency: latency(),
                timeline: vec![2, 0, 3],
                sessions: vec![QueryRowWire {
                    session_id: 42,
                    device: "golden-olimex".into(),
                    events: 5,
                    degraded: 1,
                    refresh_collisions: 2,
                }],
                segments_scanned: 3,
                segments_pruned: 4,
                cache_hits: 1,
                cache_misses: 2,
                nodes: 1,
            }),
        ),
    ]
}

fn golden(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(format!("{name}.bin"));
    fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn encoder_writes_the_golden_bytes() {
    for (name, frame) in frames() {
        assert_eq!(
            encode_frame(&frame),
            golden(name),
            "{name}: encoded bytes changed"
        );
    }
}

#[test]
fn golden_bytes_decode_to_their_frames() {
    for (name, frame) in frames() {
        let bytes = golden(name);
        let (decoded, used) = decode_frame(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(used, bytes.len(), "{name}: decoder left bytes over");
        assert_eq!(decoded, frame, "{name}: decoded frame differs");
    }
}

#[test]
fn fixtures_cover_every_frame_type_and_nothing_else() {
    // Header byte 4 is the frame type: 1..=23, each present.
    let mut types: Vec<u8> = frames().iter().map(|(name, _)| golden(name)[4]).collect();
    types.dedup();
    assert_eq!(types, (1..=23).collect::<Vec<u8>>());
    assert!(frames()
        .iter()
        .all(|(name, _)| golden(name).len() >= HEADER_LEN));
    let mut on_disk: Vec<String> = fs::read_dir(fixture_dir())
        .expect("fixture dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = frames().iter().map(|(n, _)| format!("{n}.bin")).collect();
    expected.sort();
    assert_eq!(on_disk, expected, "stray or missing fixture files");
}
