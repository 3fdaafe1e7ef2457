//! Properties of the byte codec shared by the wire protocol and the
//! journal.
//!
//! - **Round trip.** Every `Frame` variant and every `Record` kind, built
//!   from generated values, decodes back to itself and re-encodes to the
//!   same bytes. Inputs cover non-default adaptive detector configs, all
//!   four event kind/confidence pairs, strings of up to the 256-byte
//!   string bound with multi-byte characters, raw `f64` bit patterns
//!   (NaN payloads, signed zero, subnormals), and empty lists and lists
//!   at their protocol bound.
//! - **Never panic.** Arbitrary bytes through `decode_frame`,
//!   `decode_frame_view` and `Record::decode` (every kind byte), and
//!   valid encodings with one byte flipped or the payload truncated at
//!   any offset, fail cleanly or decode — they never panic. Frame damage
//!   is resealed with fresh checksums so it reaches the payload decoder
//!   instead of stopping at the checksum.

use emprof::core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};
use emprof::obs::{HistogramSnapshot, MeterSnapshot, Snapshot, SpanSnapshot};
use emprof::serve::proto::{
    decode_frame, decode_frame_view, encode_frame, seal_frame, ClusterAction, ErrorCode,
    FlightDumpWire, Frame, FrameView, HealthWire, Hello, MetricsReply, NodeHealthWire, ProtoError,
    QueryResultWire, QueryRowWire, QuerySpecWire, ServerStatsWire, SessionRow, SessionStatsWire,
    Tail, TailEvent, HEADER_LEN, MAX_CLUSTER_NODES, MAX_FLIGHT_DUMPS, MAX_FLIGHT_JSON,
    MAX_HISTOGRAM_BUCKETS, MAX_METRICS_ENTRIES, MAX_PAYLOAD, MAX_QUERY_BUCKETS, MAX_QUERY_SESSIONS,
    MAX_SESSION_ROWS,
};
use emprof::store::record::{MAX_EVENTS_PER_RECORD, MAX_SAMPLES_PER_RECORD};
use emprof::store::{Record, SegmentFooter, SessionMeta};
use proptest::prelude::*;

/// Byte bound on a length-prefixed string, on the wire and on disk.
const MAX_STRING: usize = 256;

/// Events per EVENTS or TAIL frame.
const MAX_EVENTS_PER_FRAME: usize = 100_000;

/// Number of `Frame` variants [`frame`] can build.
const FRAME_VARIANTS: u32 = 25;

/// Number of `Record` kinds [`record`] can build.
const RECORD_KINDS: u32 = 6;

// ---------------------------------------------------------------------
// Value generators.

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.below(n)
}

fn flag(rng: &mut TestRng) -> bool {
    rng.next_u64() & 1 == 1
}

/// Any `f64` bit pattern half the time (NaNs, infinities, subnormals,
/// signed zero), an ordinary magnitude otherwise.
fn float(rng: &mut TestRng) -> f64 {
    if flag(rng) {
        f64::from_bits(rng.next_u64())
    } else {
        rng.next_f64() * 1e6
    }
}

/// A `u64` that is small, huge or at an edge, so length-like and
/// sequence-like fields see every width.
fn word(rng: &mut TestRng) -> u64 {
    match below(rng, 4) {
        0 => below(rng, 1_000),
        1 => u64::MAX - below(rng, 4),
        _ => rng.next_u64(),
    }
}

/// A string of up to `max` bytes mixing 1- to 4-byte characters. A
/// quarter of the strings are exactly `max` bytes long.
fn text(rng: &mut TestRng, max: usize) -> String {
    const POOL: [char; 12] = [
        'a', 'Z', '0', ' ', '-', '\n', '\0', 'é', 'ß', '€', '中', '🦀',
    ];
    let target = if below(rng, 4) == 0 {
        max
    } else {
        below(rng, max as u64 + 1) as usize
    };
    let mut s = String::with_capacity(target);
    while s.len() < target {
        let c = POOL[below(rng, POOL.len() as u64) as usize];
        s.push(if s.len() + c.len_utf8() <= target {
            c
        } else {
            'a'
        });
    }
    s
}

fn label(rng: &mut TestRng) -> String {
    text(rng, MAX_STRING)
}

fn event(rng: &mut TestRng) -> StallEvent {
    let start = word(rng) as usize;
    let width = if flag(rng) {
        below(rng, 500) as usize
    } else {
        rng.next_u64() as usize
    };
    StallEvent {
        start_sample: start,
        end_sample: start.saturating_add(width),
        duration_cycles: float(rng),
        kind: if flag(rng) {
            StallKind::RefreshCollision
        } else {
            StallKind::Normal
        },
        confidence: if flag(rng) {
            Confidence::Degraded
        } else {
            Confidence::High
        },
    }
}

/// The default static config, the default adaptive one, or every field
/// drawn independently (including adaptive knobs no preset uses).
fn config(rng: &mut TestRng) -> EmprofConfig {
    let base = EmprofConfig::for_rates(40e6, 1.008e9);
    match below(rng, 3) {
        0 => base,
        1 => EmprofConfig {
            calib: CalibConfig::adaptive(),
            ..base
        },
        _ => EmprofConfig {
            norm_window_samples: word(rng) as usize,
            threshold: float(rng),
            min_duration_cycles: float(rng),
            min_duration_samples: word(rng) as usize,
            merge_gap_samples: word(rng) as usize,
            edge_level: float(rng),
            refresh_min_cycles: float(rng),
            calib: CalibConfig {
                enabled: flag(rng),
                block_samples: word(rng) as usize,
                ewma_weight: float(rng),
                threshold_pad: float(rng),
                threshold_max: float(rng),
                gate_fraction: float(rng),
                degraded_enter: float(rng),
                degraded_exit: float(rng),
                window_min: word(rng) as usize,
                drift_tolerance: float(rng),
            },
        },
    }
}

/// A list length in `0..=max_len`, hitting both ends often.
fn len(rng: &mut TestRng, max_len: usize) -> usize {
    match below(rng, 4) {
        0 => 0,
        1 => max_len,
        _ => below(rng, max_len as u64 + 1) as usize,
    }
}

fn list<T>(rng: &mut TestRng, max_len: usize, mut f: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let n = len(rng, max_len);
    (0..n).map(|_| f(rng)).collect()
}

fn server_stats(rng: &mut TestRng) -> ServerStatsWire {
    ServerStatsWire {
        sessions_active: word(rng),
        frames_in: word(rng),
        bytes_in: word(rng),
        samples_in: word(rng),
        events_total: word(rng),
        sheds: word(rng),
    }
}

fn histogram(rng: &mut TestRng, max_len: usize) -> HistogramSnapshot {
    HistogramSnapshot {
        count: word(rng),
        sum: word(rng),
        min: flag(rng).then(|| word(rng)),
        max: flag(rng).then(|| word(rng)),
        buckets: list(rng, max_len, |r| (word(r), word(r), word(r))),
    }
}

fn snapshot(rng: &mut TestRng, max_len: usize) -> Snapshot {
    Snapshot {
        counters: list(rng, max_len, |r| (label(r), word(r))),
        gauges: list(rng, max_len, |r| (label(r), float(r))),
        meters: list(rng, max_len, |r| {
            (
                label(r),
                MeterSnapshot {
                    count: word(r),
                    rate_per_sec: float(r),
                },
            )
        }),
        histograms: list(rng, max_len, |r| (label(r), histogram(r, max_len))),
        spans: list(rng, max_len, |r| {
            (
                label(r),
                SpanSnapshot {
                    count: word(r),
                    total_ns: word(r),
                    min_ns: word(r),
                    max_ns: word(r),
                },
            )
        }),
    }
}

fn session_row(rng: &mut TestRng) -> SessionRow {
    SessionRow {
        session_id: word(rng),
        trace_id: word(rng),
        device: label(rng),
        connected: flag(rng),
        queue_depth: word(rng),
        queue_capacity: word(rng),
        samples_pushed: word(rng),
        samples_per_sec: float(rng),
        events_emitted: word(rng),
        events_acked: word(rng),
        journaled_events: word(rng),
        sheds: word(rng),
        samples_rejected: word(rng),
        events_degraded: word(rng),
        idle_ms: word(rng),
    }
}

fn node(rng: &mut TestRng) -> NodeHealthWire {
    NodeHealthWire {
        name: label(rng),
        addr: label(rng),
        up: flag(rng),
        draining: flag(rng),
        sessions_active: word(rng),
        max_sessions: word(rng),
        migrations_in: word(rng),
        migrations_out: word(rng),
        consecutive_failures: word(rng),
        uptime_ms: word(rng),
    }
}

fn error_code(rng: &mut TestRng) -> ErrorCode {
    const CODES: [ErrorCode; 9] = [
        ErrorCode::UnsupportedVersion,
        ErrorCode::Malformed,
        ErrorCode::Checksum,
        ErrorCode::TooLarge,
        ErrorCode::Protocol,
        ErrorCode::Shutdown,
        ErrorCode::SessionLimit,
        ErrorCode::NoSession,
        ErrorCode::Internal,
    ];
    CODES[below(rng, CODES.len() as u64) as usize]
}

/// Frame variant `variant` (`0..FRAME_VARIANTS`) with generated fields;
/// lists hold at most `max_len` entries.
fn frame(rng: &mut TestRng, variant: u32, max_len: usize) -> Frame {
    match variant {
        0 => Frame::Hello(Hello {
            sample_rate_hz: float(rng),
            clock_hz: float(rng),
            config: config(rng),
            device: label(rng),
            watch: flag(rng),
            proxied: flag(rng),
            resume_session_id: word(rng),
            resume_token: word(rng),
        }),
        1 => Frame::HelloAck {
            version: rng.next_u64() as u16,
            session_id: word(rng),
            max_samples_per_frame: rng.next_u64() as u32,
            resume_token: word(rng),
            acked_seq: word(rng),
            trace_id: word(rng),
        },
        2 => Frame::Samples {
            seq: word(rng),
            samples: list(rng, max_len * 8, float),
        },
        3 => Frame::Flush,
        4 => Frame::Fin,
        5 => Frame::Events {
            first_seq: word(rng),
            events: list(rng, max_len, event),
        },
        6 => Frame::Stats(SessionStatsWire {
            samples_pushed: word(rng),
            events_emitted: word(rng),
            buffered_samples: word(rng),
            queue_depth: word(rng),
            sheds: word(rng),
            acked_seq: word(rng),
            samples_rejected: word(rng),
            events_degraded: word(rng),
            final_report: flag(rng),
        }),
        7 => Frame::Error {
            code: error_code(rng),
            message: label(rng),
        },
        8 => Frame::Watch { cursor: word(rng) },
        9 => Frame::Tail(Tail {
            cursor: word(rng),
            missed: word(rng),
            server: server_stats(rng),
            events: list(rng, max_len, |r| TailEvent {
                session_id: word(r),
                event: event(r),
            }),
        }),
        10 => Frame::Heartbeat {
            acked_seq: word(rng),
        },
        11 => Frame::EventsAck { seq: word(rng) },
        12 => Frame::MetricsRequest,
        13 => Frame::Metrics(MetricsReply {
            snapshot: snapshot(rng, max_len),
            server: server_stats(rng),
            sessions: list(rng, max_len, session_row),
        }),
        14 => Frame::HealthRequest,
        15 => Frame::Health(HealthWire {
            healthy: flag(rng),
            uptime_ms: word(rng),
            sessions_active: word(rng),
            max_sessions: word(rng),
            journal_enabled: flag(rng),
        }),
        16 => Frame::FlightRequest {
            session_id: word(rng),
        },
        17 => Frame::FlightReply {
            dumps: list(rng, max_len, |r| FlightDumpWire {
                session_id: word(r),
                trace_id: word(r),
                json: text(r, 4 * MAX_STRING),
            }),
        },
        18 => Frame::ClusterJoin {
            name: label(rng),
            addr: label(rng),
            action: [
                ClusterAction::Join,
                ClusterAction::Leave,
                ClusterAction::Drain,
            ][below(rng, 3) as usize],
        },
        19 => Frame::ClusterStateRequest,
        20 => Frame::ClusterStateReply {
            nodes: list(rng, max_len, node),
        },
        21 => Frame::NodeHealthRequest,
        22 => Frame::NodeHealthReply(node(rng)),
        23 => Frame::Query(QuerySpecWire {
            t0: word(rng),
            t1: word(rng),
            bucket_samples: word(rng),
            sessions: list(rng, max_len, word),
        }),
        24 => Frame::QueryResult(QueryResultWire {
            events: word(rng),
            degraded: word(rng),
            refresh_collisions: word(rng),
            latency: histogram(rng, max_len),
            timeline: list(rng, max_len, word),
            sessions: list(rng, max_len, |r| QueryRowWire {
                session_id: word(r),
                device: label(r),
                events: word(r),
                degraded: word(r),
                refresh_collisions: word(r),
            }),
            segments_scanned: word(rng),
            segments_pruned: word(rng),
            cache_hits: word(rng),
            cache_misses: word(rng),
            nodes: word(rng),
        }),
        _ => unreachable!("frame variant {variant}"),
    }
}

/// Record kind `kind` (`0..RECORD_KINDS`) with generated fields.
fn record(rng: &mut TestRng, kind: u32, max_len: usize) -> Record {
    match kind {
        0 => Record::Meta(SessionMeta {
            session_id: word(rng),
            resume_token: word(rng),
            sample_rate_hz: float(rng),
            clock_hz: float(rng),
            config: config(rng),
            device: label(rng),
        }),
        1 => Record::Samples {
            seq: word(rng),
            samples: list(rng, max_len * 8, float),
        },
        2 => Record::Events {
            first_seq: word(rng),
            events: list(rng, max_len, event),
        },
        3 => Record::Cursor {
            acked_events: word(rng),
        },
        4 => Record::Finished {
            samples_pushed: word(rng),
            samples_rejected: word(rng),
            last_samples_seq: word(rng),
        },
        5 => Record::Footer(SegmentFooter {
            record_count: word(rng),
            event_count: word(rng),
            degraded_count: word(rng),
            refresh_count: word(rng),
            samples_count: word(rng),
            min_event_start: word(rng),
            max_event_end: word(rng),
            min_event_seq: word(rng),
            max_event_seq: word(rng),
            min_duration_cycles: float(rng),
            max_duration_cycles: float(rng),
        }),
        _ => unreachable!("record kind {kind}"),
    }
}

// ---------------------------------------------------------------------
// Round-trip checks. Values are compared through `Debug` (so NaN fields
// compare equal to themselves) and the re-encoding must be the same
// bytes (so NaN payloads and signed zeros survive bit for bit).

fn check_frame(f: &Frame) -> Result<(), TestCaseError> {
    let bytes = encode_frame(f);
    let (back, used) =
        decode_frame(&bytes).map_err(|e| TestCaseError::fail(format!("decode_frame: {e}")))?;
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(format!("{back:?}"), format!("{f:?}"));
    prop_assert!(
        encode_frame(&back) == bytes,
        "re-encoding changed the bytes"
    );
    let (view, used) = decode_frame_view(&bytes)
        .map_err(|e| TestCaseError::fail(format!("decode_frame_view: {e}")))?;
    prop_assert_eq!(used, bytes.len());
    match (view, f) {
        (FrameView::Samples(v), Frame::Samples { seq, samples }) => {
            prop_assert_eq!(v.seq, *seq);
            prop_assert_eq!(v.len(), samples.len());
            prop_assert!(
                v.iter()
                    .map(f64::to_bits)
                    .eq(samples.iter().map(|s| s.to_bits())),
                "SamplesView bits differ"
            );
        }
        (FrameView::Owned(o), _) => prop_assert_eq!(format!("{o:?}"), format!("{f:?}")),
        (FrameView::Samples(_), _) => prop_assert!(false, "non-SAMPLES frame viewed as samples"),
    }
    Ok(())
}

fn check_record(rec: &Record) -> Result<(), TestCaseError> {
    let payload = rec.encode();
    let back = Record::decode(rec.kind() as u8, &payload)
        .map_err(|e| TestCaseError::fail(format!("Record::decode: {e}")))?;
    prop_assert_eq!(format!("{back:?}"), format!("{rec:?}"));
    prop_assert!(back.encode() == payload, "re-encoding changed the bytes");
    let mut into = vec![0xAB];
    rec.encode_into(&mut into);
    prop_assert!(into[1..] == payload[..], "encode_into differs from encode");
    Ok(())
}

// ---------------------------------------------------------------------
// Frame resealing: the header checksums are recomputed, so damage to
// the payload reaches the payload decoder.

/// A frame of type `ty` with `flags` around `payload`, with valid
/// lengths and checksums.
fn seal(ty: u8, flags: u8, payload: &[u8]) -> Vec<u8> {
    seal_frame(ty, flags, payload)
}

fn decode_both(bytes: &[u8]) {
    let _ = decode_frame(bytes);
    let _ = decode_frame_view(bytes);
}

/// Every offset of a short payload, else `n` random ones.
fn offsets(rng: &mut TestRng, len: usize, n: usize) -> Vec<usize> {
    if len <= 512 {
        (0..len).collect()
    } else {
        (0..n).map(|_| below(rng, len as u64) as usize).collect()
    }
}

// ---------------------------------------------------------------------
// Properties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_frame_roundtrips(seed in any::<u64>()) {
        let mut rng = TestRng::for_case("prop_codec::frames", seed as u32);
        for variant in 0..FRAME_VARIANTS {
            check_frame(&frame(&mut rng, variant, 8))?;
        }
    }

    #[test]
    fn every_record_roundtrips(seed in any::<u64>()) {
        let mut rng = TestRng::for_case("prop_codec::records", seed as u32);
        for kind in 0..RECORD_KINDS {
            check_record(&record(&mut rng, kind, 8))?;
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        flags in any::<u8>(),
    ) {
        decode_both(&bytes);
        for ty in 0..=u8::MAX {
            let _ = Record::decode(ty, &bytes);
            if ty <= 30 {
                decode_both(&seal(ty, flags, &bytes));
                decode_both(&seal(ty, flags & 1, &bytes));
            }
        }
    }

    #[test]
    fn damaged_frames_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::for_case("prop_codec::damaged_frames", seed as u32);
        for variant in 0..FRAME_VARIANTS {
            let bytes = encode_frame(&frame(&mut rng, variant, 4));
            let (ty, flags) = (bytes[4], bytes[5]);
            let payload = &bytes[HEADER_LEN..];
            for at in offsets(&mut rng, payload.len(), 64) {
                decode_both(&seal(ty, flags, &payload[..at]));
                let mut flipped = payload.to_vec();
                flipped[at] ^= 1 + below(&mut rng, 255) as u8;
                decode_both(&seal(ty, flags, &flipped));
            }
            for at in offsets(&mut rng, bytes.len(), 64) {
                decode_both(&bytes[..at]);
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 + below(&mut rng, 255) as u8;
                decode_both(&flipped);
            }
        }
    }

    #[test]
    fn damaged_records_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::for_case("prop_codec::damaged_records", seed as u32);
        for kind in 0..RECORD_KINDS {
            let rec = record(&mut rng, kind, 4);
            let payload = rec.encode();
            for at in offsets(&mut rng, payload.len(), 64) {
                for ty in 0..8u8 {
                    let _ = Record::decode(ty, &payload[..at]);
                }
                let mut flipped = payload.clone();
                flipped[at] ^= 1 + below(&mut rng, 255) as u8;
                let _ = Record::decode(rec.kind() as u8, &flipped);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lists at their bounds. Values are finite, so `==` is the comparison
// (a `Debug` string of a million events would dwarf the data).

fn fixed_event(i: usize) -> StallEvent {
    StallEvent {
        start_sample: i * 10,
        end_sample: i * 10 + 3,
        duration_cycles: 75.5,
        kind: if i.is_multiple_of(2) {
            StallKind::Normal
        } else {
            StallKind::RefreshCollision
        },
        confidence: if i.is_multiple_of(3) {
            Confidence::Degraded
        } else {
            Confidence::High
        },
    }
}

fn fixed_node(i: usize) -> NodeHealthWire {
    NodeHealthWire {
        name: format!("n{i}"),
        addr: "127.0.0.1:7741".into(),
        up: i.is_multiple_of(2),
        ..NodeHealthWire::default()
    }
}

fn fixed_histogram(buckets: usize) -> HistogramSnapshot {
    HistogramSnapshot {
        count: buckets as u64,
        sum: 7,
        min: Some(1),
        max: None,
        buckets: (0..buckets as u64).map(|i| (i, i + 1, 1)).collect(),
    }
}

/// Frames whose lists sit exactly at their bounds, each paired with
/// the same frame one entry over the bound.
fn frames_at_bounds() -> Vec<(Frame, Frame)> {
    let events = |n: usize| (0..n).map(fixed_event).collect::<Vec<_>>();
    let tail = |n: usize| Tail {
        cursor: 1,
        missed: 0,
        server: ServerStatsWire::default(),
        events: (0..n)
            .map(|i| TailEvent {
                session_id: i as u64,
                event: fixed_event(i),
            })
            .collect(),
    };
    let counters = |n: usize| MetricsReply {
        snapshot: Snapshot {
            counters: (0..n).map(|i| (format!("c{i}"), i as u64)).collect(),
            histograms: vec![("h".into(), fixed_histogram(MAX_HISTOGRAM_BUCKETS as usize))],
            ..Snapshot::default()
        },
        ..MetricsReply::default()
    };
    let rows = |n: usize| MetricsReply {
        sessions: (0..n)
            .map(|i| SessionRow {
                session_id: i as u64,
                device: "ré".into(),
                ..SessionRow::default()
            })
            .collect(),
        ..MetricsReply::default()
    };
    let dumps = |n: usize| Frame::FlightReply {
        dumps: (0..n)
            .map(|i| FlightDumpWire {
                session_id: i as u64,
                trace_id: 9,
                json: "{}".into(),
            })
            .collect(),
    };
    let query = |n: usize| QuerySpecWire {
        sessions: (0..n as u64).collect(),
        ..QuerySpecWire::default()
    };
    let result = |timeline: usize, rows: usize, buckets: usize| QueryResultWire {
        latency: fixed_histogram(buckets),
        timeline: vec![3; timeline],
        sessions: (0..rows)
            .map(|i| QueryRowWire {
                session_id: i as u64,
                device: "d".into(),
                ..QueryRowWire::default()
            })
            .collect(),
        ..QueryResultWire::default()
    };
    let (e, m) = (MAX_EVENTS_PER_FRAME, MAX_METRICS_ENTRIES as usize);
    let (r, c) = (MAX_SESSION_ROWS as usize, MAX_CLUSTER_NODES as usize);
    let (q, b) = (MAX_QUERY_SESSIONS as usize, MAX_QUERY_BUCKETS as usize);
    let h = MAX_HISTOGRAM_BUCKETS as usize;
    vec![
        (
            Frame::Events {
                first_seq: 1,
                events: events(e),
            },
            Frame::Events {
                first_seq: 1,
                events: events(e + 1),
            },
        ),
        (Frame::Tail(tail(e)), Frame::Tail(tail(e + 1))),
        (Frame::Metrics(counters(m)), Frame::Metrics(counters(m + 1))),
        (Frame::Metrics(rows(r)), Frame::Metrics(rows(r + 1))),
        (
            dumps(MAX_FLIGHT_DUMPS as usize),
            dumps(MAX_FLIGHT_DUMPS as usize + 1),
        ),
        (
            Frame::ClusterStateReply {
                nodes: (0..c).map(fixed_node).collect(),
            },
            Frame::ClusterStateReply {
                nodes: (0..=c).map(fixed_node).collect(),
            },
        ),
        (Frame::Query(query(q)), Frame::Query(query(q + 1))),
        (
            Frame::QueryResult(result(b, r, h)),
            Frame::QueryResult(result(b + 1, r, h)),
        ),
        (
            Frame::QueryResult(result(b, r, h)),
            Frame::QueryResult(result(b, r + 1, h)),
        ),
        (
            Frame::QueryResult(result(b, r, h)),
            Frame::QueryResult(result(b, r, h + 1)),
        ),
    ]
}

#[test]
fn frame_lists_at_their_bounds_roundtrip_and_one_more_is_rejected() {
    for (at, over) in frames_at_bounds() {
        let bytes = encode_frame(&at);
        assert!(bytes.len() - HEADER_LEN <= MAX_PAYLOAD as usize);
        let (back, _) = decode_frame(&bytes).expect("a list at its bound decodes");
        assert!(back == at, "a list at its bound round-trips");
        assert!(
            matches!(
                decode_frame(&encode_frame(&over)),
                Err(ProtoError::Malformed(_))
            ),
            "one entry past the bound is malformed"
        );
    }
}

#[test]
fn frame_strings_at_their_bounds_roundtrip() {
    let label = "é".repeat(MAX_STRING / 2);
    assert_eq!(label.len(), MAX_STRING);
    let json = format!("{}🦀", "x".repeat(MAX_FLIGHT_JSON - 4));
    assert_eq!(json.len(), MAX_FLIGHT_JSON);
    for f in [
        Frame::Error {
            code: ErrorCode::Internal,
            message: label.clone(),
        },
        Frame::ClusterJoin {
            name: label.clone(),
            addr: label.clone(),
            action: ClusterAction::Drain,
        },
        Frame::FlightReply {
            dumps: vec![FlightDumpWire {
                session_id: 1,
                trace_id: 2,
                json,
            }],
        },
    ] {
        let (back, _) = decode_frame(&encode_frame(&f)).expect("decodes");
        assert!(back == f);
    }
}

#[test]
fn largest_samples_frame_roundtrips_zero_copy() {
    // The largest batch whose payload (seq, count, raw f64s) fits
    // `MAX_PAYLOAD`.
    let n = (MAX_PAYLOAD as usize - 12) / 8;
    let samples: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let f = Frame::Samples { seq: 7, samples };
    let bytes = encode_frame(&f);
    let Ok((FrameView::Samples(view), _)) = decode_frame_view(&bytes) else {
        panic!("SAMPLES frame must decode to a view");
    };
    assert_eq!(view.len(), n);
    let (back, _) = decode_frame(&bytes).expect("decodes");
    assert!(back == f);
}

#[test]
fn record_lists_at_their_bounds_roundtrip() {
    let samples = Record::Samples {
        seq: 3,
        samples: (0..MAX_SAMPLES_PER_RECORD).map(|i| i as f64).collect(),
    };
    let events = Record::Events {
        first_seq: 1,
        events: (0..MAX_EVENTS_PER_RECORD as usize)
            .map(fixed_event)
            .collect(),
    };
    let meta = Record::Meta(SessionMeta {
        session_id: 1,
        resume_token: 2,
        sample_rate_hz: 40e6,
        clock_hz: 1.008e9,
        config: EmprofConfig {
            calib: CalibConfig::adaptive(),
            ..EmprofConfig::for_rates(40e6, 1.008e9)
        },
        device: "€".repeat(MAX_STRING / 3) + "a",
    });
    for rec in [samples, events, meta] {
        let back = Record::decode(rec.kind() as u8, &rec.encode()).expect("decodes");
        assert!(back == rec, "{:?} at its bound round-trips", rec.kind());
    }
    let over = Record::Samples {
        seq: 3,
        samples: vec![0.0; MAX_SAMPLES_PER_RECORD as usize + 1],
    };
    assert!(Record::decode(over.kind() as u8, &over.encode()).is_err());
}
