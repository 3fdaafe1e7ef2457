//! The EMPROF wire protocol: versioned, length-prefixed, checksummed
//! binary frames (little-endian throughout).
//!
//! A connection carries a sequence of frames in both directions. Every
//! frame starts with a fixed 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       2     magic            0x454D ("EM")
//! 2       2     protocol version (currently 6)
//! 4       1     frame type       (FrameType)
//! 5       1     flags            (per-type bits)
//! 6       2     header checksum  CRC-32 of the other 14 header bytes,
//!                                folded to 16 bits (high half XOR low)
//! 8       4     payload length   bounded by MAX_PAYLOAD
//! 12      4     payload checksum CRC-32 of the payload bytes
//! ```
//!
//! Both checksums are the journal's CRC-32 ([`emprof_store::crc`]), so
//! a SAMPLES payload is hashed once on each side: the sender seals it
//! with [`encode_samples`] (or [`encode_frame`]), the receiver verifies
//! it while splitting the frame, and the verified frame travels on in
//! the [`SamplesView`]: the journal takes its record CRC from the header
//! without reading the payload again, and a router forwards the frame.
//!
//! Decoding is fuzz-resistant by construction: the header is validated
//! (magic, version, header checksum, length bound) before a single
//! payload byte is read, payload reads are exact-length, the payload
//! checksum is verified before decoding, and the decoder itself is the
//! bounds-checked [`Reader`] of the byte codec shared with the journal
//! ([`emprof_store::codec`]), which can fail but never panics and never
//! allocates more than the (bounded) payload it was handed. Stall events,
//! the detector configuration, sample batches and strings use that
//! codec's one encoding, so a HELLO and a journal `Meta` record agree
//! byte for byte.

use std::io;

#[cfg(test)]
use emprof_core::{CalibConfig, Confidence, StallKind};
use emprof_core::{EmprofConfig, StallEvent};
use emprof_obs::{HistogramSnapshot, Snapshot};
#[cfg(test)]
use emprof_obs::{MeterSnapshot, SpanSnapshot};
use emprof_store::codec::{self, DecodeError, Reader, Wire};
use emprof_store::crc::{crc32, Crc32};

/// First two header bytes: `b"EM"` read as a little-endian u16.
pub const MAGIC: u16 = u16::from_le_bytes(*b"EM");

/// The protocol version this build speaks. Version 2 added
/// reconnect-and-resume (HELLO resume tokens, SAMPLES sequence numbers,
/// acked-sequence reporting) and server HEARTBEAT frames. Version 3
/// added exactly-once event delivery: EVENTS frames carry the sequence
/// number of their first event and clients acknowledge delivered
/// sequences with EVENTS_ACK. Version 4 added fleet observability:
/// METRICS and HEALTH polls carrying the server's full telemetry
/// snapshot plus per-session rows, FLIGHT polls returning per-session
/// flight-recorder dumps, and a server-assigned trace id in HELLO_ACK.
/// The cluster frames (CLUSTER_JOIN, CLUSTER_STATE, NODE_HEALTH) and the
/// proxied-HELLO flag were added to version 4 *additively*: a peer that
/// never sends them never sees them, so the version number is unchanged.
/// Version 5 widens the event codec with a confidence bit, adds the
/// adaptive-calibration block to the HELLO config, and appends degraded
/// counts to STATS and session METRICS rows — all fixed-layout changes,
/// so the version must move.
/// The journal-query frames (QUERY, QUERY_RESULT) were added to
/// version 5 *additively*, like the cluster frames before them: a peer
/// that never sends a QUERY never sees a QUERY_RESULT, so the version
/// number is unchanged.
/// Version 6 replaces the FNV-1a header and payload checksums with the
/// journal's CRC-32, and HELLO_ACK announces a SAMPLES bound whose frame
/// fits [`MAX_PAYLOAD`] ([`SAMPLES_FITTING_PAYLOAD`]); payload layouts
/// are unchanged.
pub const VERSION: u16 = 6;

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on any frame payload (4 MiB). A header announcing more is
/// rejected before any payload is read.
pub const MAX_PAYLOAD: u32 = 1 << 22;

/// The most samples a SAMPLES frame can carry within [`MAX_PAYLOAD`]:
/// the payload is an 8-byte sequence number, a 4-byte count and 8 bytes
/// per sample. HELLO_ACK announces this bound and the SAMPLES decoder
/// enforces it.
pub const SAMPLES_FITTING_PAYLOAD: u32 = (MAX_PAYLOAD - 12) / 8;

/// [`SAMPLES_FITTING_PAYLOAD`] under its name from before version 6,
/// when it was `2^19`, a bound whose frame overran [`MAX_PAYLOAD`].
pub const MAX_SAMPLES_PER_FRAME: u32 = SAMPLES_FITTING_PAYLOAD;

/// Upper bound on events per EVENTS/TAIL frame.
const MAX_EVENTS_PER_FRAME: u32 = 100_000;

/// Upper bounds on a METRICS snapshot's entries per metric kind and on
/// buckets per histogram (METRICS and QUERY_RESULT alike).
pub use emprof_store::codec::{MAX_HISTOGRAM_BUCKETS, MAX_METRICS_ENTRIES};

/// Upper bound on per-session rows in a METRICS reply.
pub const MAX_SESSION_ROWS: u32 = 4096;

/// Upper bound on flight dumps per FLIGHT reply.
pub const MAX_FLIGHT_DUMPS: u32 = 256;

/// Upper bound on one flight-recorder JSON dump (1 MiB).
pub const MAX_FLIGHT_JSON: usize = 1 << 20;

/// Upper bound on nodes per CLUSTER_STATE reply.
pub const MAX_CLUSTER_NODES: u32 = 1024;

/// Upper bound on the session filter in a QUERY frame.
pub const MAX_QUERY_SESSIONS: u32 = 4096;

/// Upper bound on event-rate timeline buckets in a QUERY_RESULT frame
/// (mirrors `emprof_store::MAX_TIMELINE_BUCKETS`).
pub const MAX_QUERY_BUCKETS: u32 = 4096;

/// HELLO flag: this connection only watches the server-wide event tail;
/// no session (and no detector) is created for it.
pub const FLAG_WATCH: u8 = 0b0000_0001;

/// HELLO flag: this session is opened by a router on behalf of a remote
/// client (the proxy-aware HELLO). The backend serves it identically
/// but counts it, so a fleet operator can tell direct from routed load.
pub const FLAG_PROXIED: u8 = 0b0000_0010;

/// STATS flag: this is the final report of a finished session.
pub const FLAG_FINAL: u8 = 0b0000_0001;

/// CLUSTER_STATE / NODE_HEALTH flag: this frame is the poll, not the
/// reply (both directions share one frame type per exchange).
pub const FLAG_REQUEST: u8 = 0b0000_0001;

emprof_store::discriminants! {
    /// Frame discriminants (header byte 4).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FrameType: u8 {
        /// Client → server: open a session (or a watch subscription).
        Hello = 1,
        /// Server → client: session accepted; carries the negotiated limits.
        HelloAck = 2,
        /// Client → server: a batch of f64 magnitude samples.
        Samples = 3,
        /// Client → server: deliver all events finalized so far.
        Flush = 4,
        /// Client → server: end of capture; finalize and report.
        Fin = 5,
        /// Server → client: finalized stall events.
        Events = 6,
        /// Server → client: per-session progress counters.
        Stats = 7,
        /// Either direction: a fatal protocol or server error.
        Error = 8,
        /// Watch client → server: poll the event tail from a cursor.
        Watch = 9,
        /// Server → watch client: tail events plus server-wide stats.
        Tail = 10,
        /// Server → client: liveness signal while the connection is
        /// otherwise quiet, carrying the session's acked sequence.
        Heartbeat = 11,
        /// Client → server: events up to this sequence were durably
        /// received; the server may advance its delivery cursor.
        EventsAck = 12,
        /// Client → server: poll the server's full telemetry snapshot.
        MetricsRequest = 13,
        /// Server → client: the telemetry snapshot plus per-session rows.
        Metrics = 14,
        /// Client → server: poll a compact liveness summary.
        HealthRequest = 15,
        /// Server → client: the liveness summary.
        Health = 16,
        /// Client → server: request flight-recorder dumps.
        FlightRequest = 17,
        /// Server → client: flight-recorder dumps, one JSON document each.
        FlightReply = 18,
        /// Admin → router (or router → backend): a cluster topology change —
        /// join, leave, or drain a node.
        ClusterJoin = 19,
        /// Either direction: poll ([`FLAG_REQUEST`]) or report the cluster
        /// membership/health table.
        ClusterState = 20,
        /// Either direction: poll ([`FLAG_REQUEST`]) or report one node's
        /// health row. The router's probe loop lives on this frame.
        NodeHealth = 21,
        /// Client → server (or router): evaluate a journal range query.
        Query = 22,
        /// Server → client: the query's statistics.
        QueryResult = 23,
    }
    fn from_u8;
}

emprof_store::discriminants! {
    /// Error codes carried by [`Frame::Error`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode: u16 {
        /// The peer speaks a protocol version this side does not.
        UnsupportedVersion = 1,
        /// A frame failed to decode (truncated, bad discriminant, ...).
        Malformed = 2,
        /// A header or payload checksum did not verify.
        Checksum = 3,
        /// A frame exceeded a protocol bound.
        TooLarge = 4,
        /// A frame arrived that is invalid in the current connection state.
        Protocol = 5,
        /// The server is shutting down.
        Shutdown = 6,
        /// The server's session limit is reached.
        SessionLimit = 7,
        /// The session was reaped (idle timeout) or never existed.
        NoSession = 8,
        /// Anything else; see the message.
        Internal = 9,
    }
    fn known;
}

impl ErrorCode {
    /// The code `v` names; a code this build does not know is `Internal`.
    fn from_u16(v: u16) -> ErrorCode {
        ErrorCode::known(v).unwrap_or(ErrorCode::Internal)
    }
}

/// A `u16`; an unknown code reads as [`ErrorCode::Internal`].
impl Wire for ErrorCode {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u16).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ErrorCode::from_u16(r.u16()?))
    }
}

/// The HELLO payload: what the client is about to stream and how the
/// detector should be configured for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Capture sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Profiled core clock in Hz.
    pub clock_hz: f64,
    /// Full detector configuration (clients default to
    /// [`EmprofConfig::for_rates`]; the server validates it).
    pub config: EmprofConfig,
    /// Free-form device label for logs and the watch tail.
    pub device: String,
    /// Whether this is a watch subscription ([`FLAG_WATCH`]).
    pub watch: bool,
    /// Whether this session is opened by a router on behalf of a remote
    /// client ([`FLAG_PROXIED`]).
    pub proxied: bool,
    /// Non-zero to resume a detached session after a transport loss:
    /// the id the server assigned at the original HELLO.
    pub resume_session_id: u64,
    /// The resume token the server issued for that session; both must
    /// match or the resume is rejected with `NoSession`.
    pub resume_token: u64,
}

/// The STATS payload: a session's progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStatsWire {
    /// Samples ingested into the detector so far.
    pub samples_pushed: u64,
    /// Stall events finalized so far.
    pub events_emitted: u64,
    /// Samples currently buffered inside the detector.
    pub buffered_samples: u64,
    /// Current depth of the session's ingest queue, in frames.
    pub queue_depth: u64,
    /// SAMPLES batches dropped by shed mode.
    pub sheds: u64,
    /// Highest SAMPLES sequence number accepted so far (frames the
    /// client no longer needs to retain for replay).
    pub acked_seq: u64,
    /// Non-finite samples rejected at the detector's ingest boundary.
    pub samples_rejected: u64,
    /// Events finalized so far that carry a degraded-confidence mark.
    pub events_degraded: u64,
    /// Whether this is the final report of a finished session.
    pub final_report: bool,
}

/// Server-wide aggregate stats carried in a TAIL reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsWire {
    /// Sessions currently registered.
    pub sessions_active: u64,
    /// Total frames ingested since the server started.
    pub frames_in: u64,
    /// Total SAMPLES frame bytes ingested, headers included.
    pub bytes_in: u64,
    /// Total magnitude samples ingested.
    pub samples_in: u64,
    /// Total stall events finalized across all sessions.
    pub events_total: u64,
    /// Total batches dropped by shed mode.
    pub sheds: u64,
}

/// One per-session row in a METRICS reply: the live operational state
/// of a registered session, whether or not a connection is attached.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionRow {
    /// Registry id of the session.
    pub session_id: u64,
    /// The trace id the server assigned at HELLO (stamps flight dumps).
    pub trace_id: u64,
    /// Device label from the session's HELLO.
    pub device: String,
    /// Whether a connection is currently attached.
    pub connected: bool,
    /// Frames currently queued for the session's worker.
    pub queue_depth: u64,
    /// The session queue's bound, in frames.
    pub queue_capacity: u64,
    /// Samples ingested into the detector so far.
    pub samples_pushed: u64,
    /// Windowed ingest rate in samples/second.
    pub samples_per_sec: f64,
    /// Stall events finalized so far.
    pub events_emitted: u64,
    /// Highest event sequence the client has acknowledged.
    pub events_acked: u64,
    /// Events durably journaled so far (0 when journaling is off).
    pub journaled_events: u64,
    /// SAMPLES batches dropped by shed mode.
    pub sheds: u64,
    /// Non-finite samples rejected at the ingest boundary.
    pub samples_rejected: u64,
    /// Events emitted with a degraded-confidence mark.
    pub events_degraded: u64,
    /// Milliseconds since the session last saw client activity.
    pub idle_ms: u64,
}

impl SessionRow {
    /// Events finalized but not yet acknowledged by the client — the
    /// session's delivery lag.
    pub fn delivery_lag(&self) -> u64 {
        self.events_emitted.saturating_sub(self.events_acked)
    }
}

/// The METRICS payload: the server's full telemetry snapshot plus
/// server-wide aggregates and one row per registered session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReply {
    /// The server's process-global `emprof_obs` snapshot, verbatim —
    /// a client that decodes this frame sees exactly what a local
    /// `emprof_obs::snapshot()` call on the server would return.
    pub snapshot: Snapshot,
    /// Server-wide aggregates (same shape TAIL carries).
    pub server: ServerStatsWire,
    /// One row per registered session, ordered by id.
    pub sessions: Vec<SessionRow>,
}

/// The HEALTH payload: a compact liveness summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthWire {
    /// Whether the server considers itself able to accept new sessions.
    pub healthy: bool,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Sessions currently registered.
    pub sessions_active: u64,
    /// The configured session limit.
    pub max_sessions: u64,
    /// Whether event journaling is enabled.
    pub journal_enabled: bool,
}

emprof_store::discriminants! {
    /// What a CLUSTER_JOIN frame asks the receiving node to do.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ClusterAction: u8 {
        /// Add (or re-add) the named node to the ring.
        Join = 0,
        /// Remove the named node from the ring.
        Leave = 1,
        /// Stop placing new sessions on the node and migrate its existing
        /// sessions away; the node keeps serving until the drain completes.
        Drain = 2,
    }
    fn from_u8;
}

/// One byte; any other value fails ("unknown cluster action").
impl Wire for ClusterAction {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        ClusterAction::from_u8(r.u8()?).ok_or(DecodeError("unknown cluster action"))
    }
}

/// One node's row in the cluster membership/health table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeHealthWire {
    /// The node's cluster name (a backend's name on the router; empty
    /// when a backend reports itself — it may not know its own name).
    pub name: String,
    /// The node's listener address as the reporter knows it.
    pub addr: String,
    /// Whether the node is currently marked up (probes succeeding).
    pub up: bool,
    /// Whether the node is draining (no new sessions placed on it).
    pub draining: bool,
    /// Sessions the reporter attributes to this node.
    pub sessions_active: u64,
    /// The node's configured session limit (0 when unknown).
    pub max_sessions: u64,
    /// Sessions migrated *onto* this node so far.
    pub migrations_in: u64,
    /// Sessions migrated *off* this node so far.
    pub migrations_out: u64,
    /// Consecutive failed health probes (0 while the node is up).
    pub consecutive_failures: u64,
    /// Milliseconds since the node (or its router-side tracking) started.
    pub uptime_ms: u64,
}

/// One flight-recorder dump in a FLIGHT reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDumpWire {
    /// The session whose recorder was dumped.
    pub session_id: u64,
    /// The session's trace id (also stamped inside the JSON).
    pub trace_id: u64,
    /// The dump itself: one self-contained JSON document.
    pub json: String,
}

/// The QUERY payload: what to compute, over which sample-index window
/// and session set (mirrors `emprof_store::QuerySpec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpecWire {
    /// Window start, inclusive, in sample indexes.
    pub t0: u64,
    /// Window end, inclusive (`u64::MAX` for open-ended).
    pub t1: u64,
    /// Event-rate timeline bucket width in samples; 0 disables it.
    pub bucket_samples: u64,
    /// Sessions to include; empty means all.
    pub sessions: Vec<u64>,
}

impl Default for QuerySpecWire {
    fn default() -> Self {
        QuerySpecWire {
            t0: 0,
            t1: u64::MAX,
            bucket_samples: 0,
            sessions: Vec::new(),
        }
    }
}

/// One per-session row in a QUERY_RESULT.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryRowWire {
    /// The session id.
    pub session_id: u64,
    /// Device label from the session's identity checkpoint.
    pub device: String,
    /// In-range events.
    pub events: u64,
    /// Of those, degraded-confidence events.
    pub degraded: u64,
    /// Of those, refresh-collision events.
    pub refresh_collisions: u64,
}

/// The QUERY_RESULT payload. The latency distribution travels as the
/// raw histogram (counts per power-of-two bucket), never as
/// precomputed quantiles: every consumer derives p50/p90/p99 from the
/// same buckets with the same code, which is what keeps remote query
/// results bit-identical to local replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryResultWire {
    /// In-range events across all matched sessions.
    pub events: u64,
    /// Of those, degraded-confidence events.
    pub degraded: u64,
    /// Of those, refresh-collision events.
    pub refresh_collisions: u64,
    /// Stall-latency distribution over the in-range events.
    pub latency: HistogramSnapshot,
    /// Event counts per timeline bucket (empty when disabled).
    pub timeline: Vec<u64>,
    /// Per-session rows, ordered by session id.
    pub sessions: Vec<QueryRowWire>,
    /// Segments whose records were folded.
    pub segments_scanned: u64,
    /// Segments skipped by footer pruning.
    pub segments_pruned: u64,
    /// Decoded-segment cache hits.
    pub cache_hits: u64,
    /// Decoded-segment cache misses.
    pub cache_misses: u64,
    /// How many nodes contributed (1 from a backend; the router sums).
    pub nodes: u64,
}

impl QueryResultWire {
    /// Folds another node's result into this one (the router's fan-out
    /// aggregation). Because every node buckets latencies into the same
    /// power-of-two bounds, merging bucket counts then recomputing
    /// quantiles is bit-identical to having run one query over the
    /// union of journals.
    pub fn merge(&mut self, other: &QueryResultWire) {
        self.events += other.events;
        self.degraded += other.degraded;
        self.refresh_collisions += other.refresh_collisions;
        self.latency.count += other.latency.count;
        self.latency.sum = self.latency.sum.wrapping_add(other.latency.sum);
        self.latency.min = match (self.latency.min, other.latency.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.latency.max = match (self.latency.max, other.latency.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for &(lo, hi, n) in &other.latency.buckets {
            match self.latency.buckets.iter_mut().find(|b| b.0 == lo) {
                Some(b) => b.2 += n,
                None => self.latency.buckets.push((lo, hi, n)),
            }
        }
        self.latency.buckets.sort_by_key(|b| b.0);
        if self.timeline.len() < other.timeline.len() {
            self.timeline.resize(other.timeline.len(), 0);
        }
        for (i, n) in other.timeline.iter().enumerate() {
            self.timeline[i] += n;
        }
        self.sessions.extend(other.sessions.iter().cloned());
        self.sessions.sort_by_key(|r| r.session_id);
        self.segments_scanned += other.segments_scanned;
        self.segments_pruned += other.segments_pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.nodes += other.nodes;
    }
}

/// One finalized event in the watch tail, tagged with its session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailEvent {
    /// The session that produced the event.
    pub session_id: u64,
    /// The event itself.
    pub event: StallEvent,
}

/// The TAIL payload: everything a watch poll gets back.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Pass this back as the next poll's cursor.
    pub cursor: u64,
    /// How many tail events were evicted before the polled cursor (0
    /// means the tail is gapless from the client's point of view).
    pub missed: u64,
    /// Server-wide aggregates.
    pub server: ServerStatsWire,
    /// Events finalized after the polled cursor.
    pub events: Vec<TailEvent>,
}

// Payload layouts: each struct's fields in wire order (see
// `emprof_store::codec::wire_struct!`). `[flag]` fields travel in the
// frame header, not the payload.
emprof_store::wire_struct! {
    Hello {
        sample_rate_hz,
        clock_hz,
        config,
        device,
        resume_session_id,
        resume_token,
        watch: [flag],
        proxied: [flag],
    }
    SessionStatsWire {
        samples_pushed,
        events_emitted,
        buffered_samples,
        queue_depth,
        sheds,
        acked_seq,
        samples_rejected,
        events_degraded,
        final_report: [flag],
    }
    ServerStatsWire { sessions_active, frames_in, bytes_in, samples_in, events_total, sheds }
    SessionRow {
        session_id,
        trace_id,
        device,
        connected,
        queue_depth,
        queue_capacity,
        samples_pushed,
        samples_per_sec,
        events_emitted,
        events_acked,
        journaled_events,
        sheds,
        samples_rejected,
        events_degraded,
        idle_ms,
    }
    MetricsReply {
        snapshot,
        server,
        sessions: [MAX_SESSION_ROWS, "session row count exceeds bound"],
    }
    HealthWire { healthy, uptime_ms, sessions_active, max_sessions, journal_enabled }
    NodeHealthWire {
        name,
        addr,
        up,
        draining,
        sessions_active,
        max_sessions,
        migrations_in,
        migrations_out,
        consecutive_failures,
        uptime_ms,
    }
    FlightDumpWire { session_id, trace_id, json: [long MAX_FLIGHT_JSON] }
    QuerySpecWire {
        t0,
        t1,
        bucket_samples,
        sessions: [MAX_QUERY_SESSIONS, "query session count exceeds bound"],
    }
    QueryRowWire { session_id, device, events, degraded, refresh_collisions }
    QueryResultWire {
        events,
        degraded,
        refresh_collisions,
        latency,
        timeline: [MAX_QUERY_BUCKETS, "timeline bucket count exceeds bound"],
        sessions: [MAX_SESSION_ROWS, "query row count exceeds bound"],
        segments_scanned,
        segments_pruned,
        cache_hits,
        cache_misses,
        nodes,
    }
    TailEvent { session_id, event }
    Tail {
        cursor,
        missed,
        server,
        events: [MAX_EVENTS_PER_FRAME, "event count exceeds bound"],
    }
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// See [`Hello`].
    Hello(Hello),
    /// Session accepted.
    HelloAck {
        /// The version the server will speak.
        version: u16,
        /// The registry id of the new session (0 for watch connections).
        session_id: u64,
        /// The largest SAMPLES batch the server will accept.
        max_samples_per_frame: u32,
        /// Token the client presents to resume this session after a
        /// transport loss (0 for watch connections).
        resume_token: u64,
        /// Highest SAMPLES sequence accepted so far — 0 on a fresh
        /// session; on a resume, tells the client where to replay from.
        acked_seq: u64,
        /// Server-assigned trace id: stable across resumes, stamped on
        /// the session's flight-recorder dumps and METRICS rows (0 for
        /// watch connections).
        trace_id: u64,
    },
    /// A batch of magnitude samples, tagged with a per-session sequence
    /// number (1 for the first batch) so a resumed client can replay
    /// unacked frames without the server double-ingesting.
    Samples {
        /// Monotonic per-session batch sequence, starting at 1.
        seq: u64,
        /// The magnitude samples.
        samples: Vec<f64>,
    },
    /// Deliver finalized events now.
    Flush,
    /// End of capture.
    Fin,
    /// Finalized stall events, tagged with the per-session sequence of
    /// the first event so a client can deduplicate redeliveries after a
    /// lost reply or a server restart.
    Events {
        /// Sequence number of `events[0]` (sequences are contiguous
        /// from 1 per session; meaningless when `events` is empty).
        first_seq: u64,
        /// The events, in finalization order.
        events: Vec<StallEvent>,
    },
    /// Session progress counters.
    Stats(SessionStatsWire),
    /// A fatal error; the sender closes after this frame.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Poll the event tail from this cursor.
    Watch {
        /// 0 on the first poll, then the cursor from the last TAIL.
        cursor: u64,
    },
    /// Tail events plus server-wide stats.
    Tail(Tail),
    /// Server liveness while quiet; carries the session's acked
    /// sequence (0 on watch connections).
    Heartbeat {
        /// Highest SAMPLES sequence accepted so far.
        acked_seq: u64,
    },
    /// Client acknowledgment of delivered events: every event with a
    /// sequence at or below `seq` has been received.
    EventsAck {
        /// Highest event sequence the client has seen.
        seq: u64,
    },
    /// Poll the server's telemetry snapshot and session rows.
    MetricsRequest,
    /// See [`MetricsReply`].
    Metrics(MetricsReply),
    /// Poll the server's liveness summary.
    HealthRequest,
    /// See [`HealthWire`].
    Health(HealthWire),
    /// Request flight-recorder dumps.
    FlightRequest {
        /// Dump this session only, or every registered session when 0.
        session_id: u64,
    },
    /// Flight-recorder dumps, one JSON document per session.
    FlightReply {
        /// The dumps, ordered by session id.
        dumps: Vec<FlightDumpWire>,
    },
    /// A cluster topology change: join, leave, or drain the named node.
    ClusterJoin {
        /// The node's cluster name.
        name: String,
        /// The node's listener address (empty on a drain sent *to* the
        /// draining node itself).
        addr: String,
        /// What to do with the node.
        action: ClusterAction,
    },
    /// Poll the cluster membership/health table.
    ClusterStateRequest,
    /// The cluster membership/health table, one row per known node.
    ClusterStateReply {
        /// Rows ordered by node name.
        nodes: Vec<NodeHealthWire>,
    },
    /// Poll one node's health row (the router probe).
    NodeHealthRequest,
    /// The polled node's health row.
    NodeHealthReply(NodeHealthWire),
    /// Evaluate a journal range query. See [`QuerySpecWire`].
    Query(QuerySpecWire),
    /// The query's statistics. See [`QueryResultWire`].
    QueryResult(QueryResultWire),
}

/// What went wrong while reading or decoding a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The header did not start with [`MAGIC`].
    BadMagic,
    /// The peer's version is not one this build speaks.
    UnsupportedVersion(u16),
    /// The header checksum did not verify.
    HeaderChecksum,
    /// The payload checksum did not verify.
    PayloadChecksum,
    /// The announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The frame type byte is unknown.
    UnknownType(u8),
    /// The payload failed to decode.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::BadMagic => write!(f, "bad magic (not an EMPROF stream)"),
            ProtoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION})"
                )
            }
            ProtoError::HeaderChecksum => write!(f, "header checksum mismatch"),
            ProtoError::PayloadChecksum => write!(f, "payload checksum mismatch"),
            ProtoError::Oversized(n) => {
                write!(
                    f,
                    "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte bound"
                )
            }
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        ProtoError::Malformed(e.0)
    }
}

impl ProtoError {
    /// The error code a peer should be told about this failure.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            ProtoError::Io(_) => ErrorCode::Internal,
            ProtoError::BadMagic | ProtoError::UnknownType(_) | ProtoError::Malformed(_) => {
                ErrorCode::Malformed
            }
            ProtoError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
            ProtoError::HeaderChecksum | ProtoError::PayloadChecksum => ErrorCode::Checksum,
            ProtoError::Oversized(_) => ErrorCode::TooLarge,
        }
    }
}

// ---------------------------------------------------------------------
// Checksums: the journal's CRC-32 (integrity, not authentication).

/// The header checksum: CRC-32 of the 14 header bytes other than the
/// checksum field itself, folded to 16 bits.
fn header_checksum(header: &[u8]) -> u16 {
    let mut crc = Crc32::new();
    crc.update(&header[..6]);
    crc.update(&header[8..HEADER_LEN]);
    let h = crc.finish();
    ((h >> 16) ^ (h & 0xffff)) as u16
}

/// Fills in the header of `frame`, a zeroed header followed by the
/// payload: magic, version, type, flags, payload length, the payload's
/// CRC-32, and last the header checksum. The frame is sealed in place,
/// so its payload is written once and hashed once.
fn seal(frame: &mut [u8], ty: u8, flags: u8) {
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "frame too large");
    header[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    header[2..4].copy_from_slice(&VERSION.to_le_bytes());
    header[4] = ty;
    header[5] = flags;
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
    let hsum = header_checksum(header);
    header[6..8].copy_from_slice(&hsum.to_le_bytes());
}

/// A frame of type byte `ty` with `flags` around `payload`, with a valid
/// header: the one sealing function every encoder uses. `ty` is the raw
/// byte, so tests can seal a frame of an unknown type, or damaged
/// payload bytes, and reach the decoder past the checksums.
pub fn seal_frame(ty: u8, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&[0; HEADER_LEN]);
    frame.extend_from_slice(payload);
    seal(&mut frame, ty, flags);
    frame
}

// ---------------------------------------------------------------------
// Payload encoding/decoding: the frame table below, over the payload
// declarations above and `emprof_store::codec`, plus the zero-copy
// SAMPLES view.

/// A SAMPLES frame decoded zero-copy: the sequence number plus the
/// whole verified frame, header and payload, borrowed straight from the
/// receive buffer. The payload and its CRC-32 are read from that frame,
/// so a journal appends the payload under the checksum the decoder
/// verified, and a router forwards the frame as it arrived. Samples
/// are decoded lazily as they are read, so a frame that is validated
/// but never consumed costs no per-sample work at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplesView<'a> {
    /// Sequence number of this batch (first sample's global index).
    pub seq: u64,
    /// The whole frame: the header, then the payload of sequence
    /// number, count and `len() * 8` bytes of little-endian f64s.
    frame: &'a [u8],
}

/// Payload bytes ahead of a SAMPLES frame's samples: sequence and count.
const SAMPLES_PREFIX: usize = 12;

/// Bytes a SAMPLES frame of `n` samples occupies on the wire: the
/// header, the sequence number and count, then eight bytes per sample.
/// The `bytes_in` ingest counters count SAMPLES frames by this length.
#[must_use]
pub const fn samples_frame_len(n: usize) -> usize {
    HEADER_LEN + SAMPLES_PREFIX + n * 8
}

impl<'a> SamplesView<'a> {
    /// Number of samples in the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.frame.len() - HEADER_LEN - SAMPLES_PREFIX) / 8
    }

    /// Whether the frame carries no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame's bytes exactly as they arrived, header included.
    #[must_use]
    pub fn frame(&self) -> &'a [u8] {
        self.frame
    }

    /// The payload bytes as they arrived — the encoding a journal
    /// `Samples` record stores.
    #[must_use]
    pub fn payload(&self) -> &'a [u8] {
        &self.frame[HEADER_LEN..]
    }

    /// The payload's CRC-32, as the frame's header carried it and the
    /// decoder verified it.
    #[must_use]
    pub fn crc(&self) -> u32 {
        u32::from_le_bytes(self.frame[12..HEADER_LEN].try_into().unwrap())
    }

    /// Iterates the samples, decoding each f64 from the borrowed bytes.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        codec::f64s(&self.frame[HEADER_LEN + SAMPLES_PREFIX..])
    }

    /// Appends every sample to `out`. Reserves once up front; when `out`
    /// already has the capacity this performs no allocation.
    pub fn copy_into(&self, out: &mut Vec<f64>) {
        out.reserve(self.len());
        out.extend(self.iter());
    }
}

/// A decoded frame whose SAMPLES payload borrows from the input buffer;
/// every other frame type decodes to its owned [`Frame`] representation.
/// Produced by [`decode_frame_view`].
#[derive(Debug)]
pub enum FrameView<'a> {
    /// A SAMPLES frame, zero-copy.
    Samples(SamplesView<'a>),
    /// Any other frame, decoded owned.
    Owned(Frame),
}

/// Parses and bounds-checks a verified SAMPLES frame into a
/// [`SamplesView`]. Shares validation with the owned decode path:
/// sequence number, sample count against [`SAMPLES_FITTING_PAYLOAD`],
/// exact payload length.
fn samples_view(frame: &[u8]) -> Result<SamplesView<'_>, DecodeError> {
    let mut c = Reader::new(&frame[HEADER_LEN..]);
    let (seq, _) = c.samples(SAMPLES_FITTING_PAYLOAD)?;
    c.done()?;
    Ok(SamplesView { seq, frame })
}

/// A copy of `frame`, a sealed SAMPLES frame, carrying sequence number
/// `seq` instead of its own, resealed: the bytes [`encode_samples`]
/// writes for `seq` and the same samples, without decoding them.
#[must_use]
pub fn resequence_samples(frame: &[u8], seq: u64) -> Vec<u8> {
    let mut out = frame.to_vec();
    out[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&seq.to_le_bytes());
    seal(&mut out, FrameType::Samples as u8, 0);
    out
}

// The frame table: each variant's frame type, payload and, for the two
// polls that share a type with their reply, the header flag that tells
// them apart.
emprof_store::wire_enum! {
    Frame: FrameType {
        Hello(Hello) => Hello;
        HelloAck { version, session_id, max_samples_per_frame, resume_token, acked_seq, trace_id }
            => HelloAck;
        Samples { seq, samples: [samples SAMPLES_FITTING_PAYLOAD] } => Samples;
        Flush => Flush;
        Fin => Fin;
        Events { first_seq, events: [MAX_EVENTS_PER_FRAME, "event count exceeds bound"] }
            => Events;
        Stats(SessionStatsWire) => Stats;
        Error { code, message } => Error;
        Watch { cursor } => Watch;
        Tail(Tail) => Tail;
        Heartbeat { acked_seq } => Heartbeat;
        EventsAck { seq } => EventsAck;
        MetricsRequest => MetricsRequest;
        Metrics(MetricsReply) => Metrics;
        HealthRequest => HealthRequest;
        Health(HealthWire) => Health;
        FlightRequest { session_id } => FlightRequest;
        FlightReply { dumps: [MAX_FLIGHT_DUMPS, "flight dump count exceeds bound"] } => FlightReply;
        ClusterJoin { name, addr, action } => ClusterJoin;
        ClusterStateRequest => ClusterState | FLAG_REQUEST;
        ClusterStateReply { nodes: [MAX_CLUSTER_NODES, "cluster node count exceeds bound"] }
            => ClusterState;
        NodeHealthRequest => NodeHealth | FLAG_REQUEST;
        NodeHealthReply(NodeHealthWire) => NodeHealth;
        Query(QuerySpecWire) => Query;
        QueryResult(QueryResultWire) => QueryResult;
    }
}

/// `bit` if `on`, else no flag.
fn flag_if(on: bool, bit: u8) -> u8 {
    bit * u8::from(on)
}

/// Appends `frame`'s payload to `p`; returns its type and flags: the
/// table's, plus the HELLO and STATS flags their payloads carry.
fn encode_payload(frame: &Frame, p: &mut Vec<u8>) -> (FrameType, u8) {
    let flags = frame.put_payload(p);
    let carried = match frame {
        Frame::Hello(h) => flag_if(h.watch, FLAG_WATCH) | flag_if(h.proxied, FLAG_PROXIED),
        Frame::Stats(s) => flag_if(s.final_report, FLAG_FINAL),
        _ => 0,
    };
    (frame.kind(), flags | carried)
}

fn decode_payload(ty: FrameType, flags: u8, payload: &[u8]) -> Result<Frame, DecodeError> {
    let mut r = Reader::new(payload);
    let mut frame = Frame::get_payload(ty, flags & FLAG_REQUEST, &mut r)?;
    r.done()?;
    match &mut frame {
        Frame::Hello(h) => {
            h.watch = flags & FLAG_WATCH != 0;
            h.proxied = flags & FLAG_PROXIED != 0;
        }
        Frame::Stats(s) => s.final_report = flags & FLAG_FINAL != 0,
        _ => {}
    }
    Ok(frame)
}

// ---------------------------------------------------------------------
// Framed I/O.

/// Serializes a frame to bytes (header + payload), encoding the payload
/// straight into the buffer that is then sealed in place.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = vec![0; HEADER_LEN];
    let (ty, flags) = encode_payload(frame, &mut out);
    seal(&mut out, ty as u8, flags);
    out
}

/// Serializes a SAMPLES frame straight from borrowed samples into one
/// exactly sized buffer: the bytes [`encode_frame`] writes for the owned
/// frame, without first copying the batch into one.
pub fn encode_samples(seq: u64, samples: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_samples_into(&mut out, seq, samples);
    out
}

/// [`encode_samples`] into `out`, replacing its contents: a buffer that
/// already holds a frame's worth of capacity is reused without
/// allocating.
pub fn encode_samples_into(out: &mut Vec<u8>, seq: u64, samples: &[f64]) {
    out.clear();
    out.reserve_exact(samples_frame_len(samples.len()));
    out.resize(HEADER_LEN, 0);
    codec::put_samples(out, seq, samples);
    seal(out, FrameType::Samples as u8, 0);
}

/// The whole length of the frame `header` opens, as its length field
/// announces it. Meaningful once [`decode_frame_view`] has accepted the
/// header, which bounds the length by [`MAX_PAYLOAD`].
pub(crate) fn announced_frame_len(header: &[u8]) -> usize {
    let len: [u8; 4] = header[8..12].try_into().expect("a header holds its length");
    HEADER_LEN + u32::from_le_bytes(len) as usize
}

/// Validates a frame header, returning the frame type, flags, payload
/// length, and expected payload checksum. Checks run in wire order:
/// magic, version, header checksum, length bound, frame type.
fn validate_header(header: &[u8]) -> Result<(FrameType, u8, usize, u32), ProtoError> {
    if u16::from_le_bytes(header[0..2].try_into().unwrap()) != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = u16::from_le_bytes(header[2..4].try_into().unwrap());
    if version != VERSION {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    if u16::from_le_bytes(header[6..8].try_into().unwrap()) != header_checksum(header) {
        return Err(ProtoError::HeaderChecksum);
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    let ty = FrameType::from_u8(header[4]).ok_or(ProtoError::UnknownType(header[4]))?;
    let sum = u32::from_le_bytes(header[12..16].try_into().unwrap());
    Ok((ty, header[5], len as usize, sum))
}

/// Validates and splits one frame out of a byte slice **without
/// copying**: header checks, then the payload CRC-32 verified over the
/// borrowed payload bytes — the one pass over them on the receiving
/// side. Returns the frame type, flags, the payload slice, and the
/// total bytes consumed.
fn split_frame(bytes: &[u8]) -> Result<(FrameType, u8, &[u8], usize), ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtoError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    let (ty, flags, len, sum) = validate_header(&bytes[..HEADER_LEN])?;
    let end = HEADER_LEN
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(ProtoError::Io(io::ErrorKind::UnexpectedEof.into()))?;
    let payload = &bytes[HEADER_LEN..end];
    if crc32(payload) != sum {
        return Err(ProtoError::PayloadChecksum);
    }
    Ok((ty, flags, payload, end))
}

/// Decodes one frame from a byte slice, returning the frame and how many
/// bytes it consumed. Sockets are read through
/// [`Conn::read_frame_with`](crate::net::Conn::read_frame_with), which
/// decodes with [`decode_frame_view`]. The payload is decoded in place
/// (no intermediate copy); the returned [`Frame`] owns whatever it
/// decoded to.
///
/// # Errors
///
/// [`ProtoError::Io`] with `UnexpectedEof` when the slice holds less
/// than one whole frame. A bad header or payload checksum, a payload
/// over its bound, or a malformed payload is its own [`ProtoError`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), ProtoError> {
    let (ty, flags, payload, consumed) = split_frame(bytes)?;
    Ok((decode_payload(ty, flags, payload)?, consumed))
}

/// [`decode_frame`], except SAMPLES payloads are returned as a borrowed
/// [`SamplesView`] instead of an owned `Vec<f64>`. This is the server
/// ingest hot path: for a well-formed SAMPLES frame the call performs
/// **zero heap allocation** — validation, checksumming, and sample
/// access all happen against the caller's receive buffer.
///
/// # Errors
///
/// Exactly as [`decode_frame`].
pub fn decode_frame_view(bytes: &[u8]) -> Result<(FrameView<'_>, usize), ProtoError> {
    let (ty, flags, payload, consumed) = split_frame(bytes)?;
    let view = match ty {
        FrameType::Samples => FrameView::Samples(samples_view(&bytes[..consumed])?),
        _ => FrameView::Owned(decode_payload(ty, flags, payload)?),
    };
    Ok((view, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> EmprofConfig {
        EmprofConfig::for_rates(40e6, 1.0e9)
    }

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let (decoded, consumed) = decode_frame(&bytes).expect("decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: sample_config(),
            device: "olimex".into(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        }));
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: EmprofConfig {
                calib: CalibConfig::adaptive(),
                ..sample_config()
            },
            device: "adaptive".into(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        }));
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: sample_config(),
            device: "routed".into(),
            watch: false,
            proxied: true,
            resume_session_id: 3,
            resume_token: 4,
        }));
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 1.0,
            clock_hz: 1.0,
            config: sample_config(),
            device: String::new(),
            watch: true,
            proxied: false,
            resume_session_id: 17,
            resume_token: 0xDEAD_BEEF_CAFE,
        }));
        roundtrip(Frame::HelloAck {
            version: VERSION,
            session_id: 42,
            max_samples_per_frame: SAMPLES_FITTING_PAYLOAD,
            resume_token: 99,
            acked_seq: 1234,
            trace_id: 0x9e37_79b9_7f4a_7c15,
        });
        roundtrip(Frame::Samples {
            seq: 1,
            samples: vec![],
        });
        roundtrip(Frame::Samples {
            seq: u64::MAX,
            samples: (0..1000).map(|i| i as f64 * 0.5).collect(),
        });
        roundtrip(Frame::Flush);
        roundtrip(Frame::Fin);
        roundtrip(Frame::Events {
            first_seq: 7,
            events: vec![
                StallEvent {
                    start_sample: 10,
                    end_sample: 20,
                    duration_cycles: 250.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::High,
                },
                StallEvent {
                    start_sample: 100,
                    end_sample: 220,
                    duration_cycles: 3000.0,
                    kind: StallKind::RefreshCollision,
                    confidence: Confidence::Degraded,
                },
                StallEvent {
                    start_sample: 300,
                    end_sample: 305,
                    duration_cycles: 125.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::Degraded,
                },
            ],
        });
        roundtrip(Frame::Events {
            first_seq: 1,
            events: vec![],
        });
        roundtrip(Frame::EventsAck { seq: 0 });
        roundtrip(Frame::EventsAck { seq: u64::MAX });
        roundtrip(Frame::Stats(SessionStatsWire {
            samples_pushed: 1,
            events_emitted: 2,
            buffered_samples: 3,
            queue_depth: 4,
            sheds: 5,
            acked_seq: 6,
            samples_rejected: 7,
            events_degraded: 1,
            final_report: true,
        }));
        roundtrip(Frame::Heartbeat { acked_seq: 0 });
        roundtrip(Frame::Heartbeat { acked_seq: 31_337 });
        roundtrip(Frame::Error {
            code: ErrorCode::SessionLimit,
            message: "full".into(),
        });
        roundtrip(Frame::Watch { cursor: 7 });
        roundtrip(Frame::ClusterJoin {
            name: "n1".into(),
            addr: "127.0.0.1:7701".into(),
            action: ClusterAction::Join,
        });
        roundtrip(Frame::ClusterJoin {
            name: "n2".into(),
            addr: String::new(),
            action: ClusterAction::Drain,
        });
        roundtrip(Frame::ClusterStateRequest);
        roundtrip(Frame::ClusterStateReply { nodes: vec![] });
        roundtrip(Frame::ClusterStateReply {
            nodes: vec![
                NodeHealthWire {
                    name: "n1".into(),
                    addr: "127.0.0.1:7701".into(),
                    up: true,
                    draining: false,
                    sessions_active: 3,
                    max_sessions: 256,
                    migrations_in: 1,
                    migrations_out: 0,
                    consecutive_failures: 0,
                    uptime_ms: 12_345,
                },
                NodeHealthWire {
                    name: "n2".into(),
                    addr: "127.0.0.1:7702".into(),
                    up: false,
                    draining: true,
                    sessions_active: 0,
                    max_sessions: 256,
                    migrations_in: 0,
                    migrations_out: 3,
                    consecutive_failures: 7,
                    uptime_ms: 99,
                },
            ],
        });
        roundtrip(Frame::NodeHealthRequest);
        roundtrip(Frame::NodeHealthReply(NodeHealthWire {
            name: String::new(),
            addr: "127.0.0.1:7700".into(),
            up: true,
            draining: false,
            sessions_active: 2,
            max_sessions: 64,
            migrations_in: 0,
            migrations_out: 0,
            consecutive_failures: 0,
            uptime_ms: 1,
        }));
        roundtrip(Frame::Tail(Tail {
            cursor: 9,
            missed: 1,
            server: ServerStatsWire {
                sessions_active: 2,
                frames_in: 3,
                bytes_in: 4,
                samples_in: 5,
                events_total: 6,
                sheds: 7,
            },
            events: vec![TailEvent {
                session_id: 3,
                event: StallEvent {
                    start_sample: 5,
                    end_sample: 9,
                    duration_cycles: 100.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::Degraded,
                },
            }],
        }));
    }

    fn sample_metrics_reply() -> MetricsReply {
        MetricsReply {
            snapshot: Snapshot {
                counters: vec![("serve.events".into(), 7), ("serve.frames_in".into(), 9)],
                gauges: vec![("serve.sessions_active".into(), 2.0)],
                meters: vec![(
                    "meter.samples_in".into(),
                    MeterSnapshot {
                        count: 4096,
                        rate_per_sec: 1.5e6,
                    },
                )],
                histograms: vec![(
                    "detect.event_width_samples".into(),
                    HistogramSnapshot {
                        count: 3,
                        sum: 60,
                        min: Some(10),
                        max: Some(30),
                        buckets: vec![(8, 16, 2), (16, 32, 1)],
                    },
                )],
                spans: vec![(
                    "serve.ingest".into(),
                    SpanSnapshot {
                        count: 5,
                        total_ns: 1000,
                        min_ns: 100,
                        max_ns: 400,
                    },
                )],
            },
            server: ServerStatsWire {
                sessions_active: 1,
                frames_in: 9,
                bytes_in: 100,
                samples_in: 4096,
                events_total: 7,
                sheds: 0,
            },
            sessions: vec![SessionRow {
                session_id: 3,
                trace_id: 0xDEAD_BEEF,
                device: "olimex".into(),
                connected: true,
                queue_depth: 2,
                queue_capacity: 64,
                samples_pushed: 4096,
                samples_per_sec: 1.5e6,
                events_emitted: 7,
                events_acked: 5,
                journaled_events: 7,
                sheds: 0,
                samples_rejected: 1,
                events_degraded: 2,
                idle_ms: 12,
            }],
        }
    }

    #[test]
    fn observability_frames_roundtrip() {
        roundtrip(Frame::MetricsRequest);
        roundtrip(Frame::Metrics(sample_metrics_reply()));
        roundtrip(Frame::Metrics(MetricsReply::default()));
        roundtrip(Frame::HealthRequest);
        roundtrip(Frame::Health(HealthWire {
            healthy: true,
            uptime_ms: 120_000,
            sessions_active: 3,
            max_sessions: 256,
            journal_enabled: true,
        }));
        roundtrip(Frame::FlightRequest { session_id: 0 });
        roundtrip(Frame::FlightRequest { session_id: 42 });
        roundtrip(Frame::FlightReply { dumps: vec![] });
        roundtrip(Frame::FlightReply {
            dumps: vec![FlightDumpWire {
                session_id: 3,
                trace_id: 99,
                json: "{\"type\":\"flight\",\"events\":[]}".into(),
            }],
        });
    }

    #[test]
    fn session_row_delivery_lag_saturates() {
        let mut row = SessionRow {
            events_emitted: 10,
            events_acked: 4,
            ..SessionRow::default()
        };
        assert_eq!(row.delivery_lag(), 6);
        row.events_acked = 12; // stale ack past emitted must not wrap
        assert_eq!(row.delivery_lag(), 0);
    }

    #[test]
    fn truncated_metrics_frames_are_rejected_cleanly() {
        let bytes = encode_frame(&Frame::Metrics(sample_metrics_reply()));
        for cut in (HEADER_LEN..bytes.len()).step_by(7) {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn bit_flipped_metrics_frames_never_panic() {
        // Every single-bit flip either fails a checksum or (if it lands
        // in the checksum fields themselves, making them consistent by
        // fluke) still decodes without panicking.
        let bytes = encode_frame(&Frame::Metrics(sample_metrics_reply()));
        for i in (0..bytes.len()).step_by(3) {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let _ = decode_frame(&corrupt);
            }
        }
        let health = encode_frame(&Frame::Health(HealthWire::default()));
        for i in 0..health.len() {
            let mut corrupt = health.clone();
            corrupt[i] ^= 0xff;
            let _ = decode_frame(&corrupt);
        }
    }

    #[test]
    fn oversized_metric_counts_are_rejected() {
        // Hand-build a Metrics payload announcing too many counters.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(MAX_METRICS_ENTRIES + 1).to_le_bytes());
        let bytes = seal_frame(FrameType::Metrics as u8, 0, &payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn cluster_frame_bounds_are_enforced() {
        // A ClusterState reply announcing too many nodes fails at the
        // count, before any row is read.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(MAX_CLUSTER_NODES + 1).to_le_bytes());
        let bytes = seal_frame(FrameType::ClusterState as u8, 0, &payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));

        // An unknown cluster action byte is malformed, not a panic.
        let mut join = encode_frame(&Frame::ClusterJoin {
            name: "n".into(),
            addr: "a".into(),
            action: ClusterAction::Leave,
        });
        let last = join.len() - 1;
        join[last] = 99;
        let join = seal_frame(join[4], join[5], &join[HEADER_LEN..]);
        assert!(matches!(decode_frame(&join), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn query_frames_roundtrip() {
        roundtrip(Frame::Query(QuerySpecWire::default()));
        roundtrip(Frame::Query(QuerySpecWire {
            t0: 1_000,
            t1: 2_000_000,
            bucket_samples: 4_096,
            sessions: vec![1, 7, 42],
        }));
        roundtrip(Frame::QueryResult(QueryResultWire::default()));
        roundtrip(Frame::QueryResult(QueryResultWire {
            events: 12,
            degraded: 3,
            refresh_collisions: 2,
            latency: HistogramSnapshot {
                count: 12,
                sum: 4_800,
                min: Some(100),
                max: Some(900),
                buckets: vec![(64, 127, 4), (128, 255, 8)],
            },
            timeline: vec![0, 3, 0, 9],
            sessions: vec![QueryRowWire {
                session_id: 7,
                device: "olimex".into(),
                events: 12,
                degraded: 3,
                refresh_collisions: 2,
            }],
            segments_scanned: 5,
            segments_pruned: 11,
            cache_hits: 4,
            cache_misses: 1,
            nodes: 1,
        }));
    }

    #[test]
    fn query_frame_bounds_are_enforced() {
        // A QUERY announcing too many session ids fails at the count.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&(MAX_QUERY_SESSIONS + 1).to_le_bytes());
        let bytes = seal_frame(FrameType::Query as u8, 0, &payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn query_result_merge_aggregates() {
        let a = QueryResultWire {
            events: 3,
            degraded: 1,
            refresh_collisions: 0,
            latency: HistogramSnapshot {
                count: 3,
                sum: 300,
                min: Some(50),
                max: Some(200),
                buckets: vec![(32, 63, 1), (128, 255, 2)],
            },
            timeline: vec![1, 2],
            sessions: vec![QueryRowWire {
                session_id: 9,
                device: "b".into(),
                events: 3,
                ..QueryRowWire::default()
            }],
            segments_scanned: 2,
            segments_pruned: 1,
            cache_hits: 0,
            cache_misses: 2,
            nodes: 1,
        };
        let b = QueryResultWire {
            events: 2,
            degraded: 0,
            refresh_collisions: 1,
            latency: HistogramSnapshot {
                count: 2,
                sum: 600,
                min: Some(250),
                max: Some(350),
                buckets: vec![(128, 255, 1), (256, 511, 1)],
            },
            timeline: vec![0, 1, 1],
            sessions: vec![QueryRowWire {
                session_id: 4,
                device: "a".into(),
                events: 2,
                ..QueryRowWire::default()
            }],
            segments_scanned: 1,
            segments_pruned: 0,
            cache_hits: 3,
            cache_misses: 0,
            nodes: 1,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.events, 5);
        assert_eq!(ab.latency.count, 5);
        assert_eq!(ab.latency.min, Some(50));
        assert_eq!(ab.latency.max, Some(350));
        assert_eq!(
            ab.latency.buckets,
            vec![(32, 63, 1), (128, 255, 3), (256, 511, 1)]
        );
        assert_eq!(ab.timeline, vec![1, 3, 1]);
        assert_eq!(ab.sessions[0].session_id, 4, "rows re-sorted by id");
        assert_eq!(ab.nodes, 2);
        // Merge is order-independent.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.events, ba.events);
        assert_eq!(ab.latency, ba.latency);
        assert_eq!(ab.timeline, ba.timeline);
        assert_eq!(ab.sessions, ba.sessions);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::BadMagic)));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[2] = 99;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn header_corruption_is_detected() {
        let mut bytes = encode_frame(&Frame::Watch { cursor: 3 });
        bytes[5] ^= 0x40; // flip a flag bit without fixing the checksum
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::HeaderChecksum)
        ));
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut bytes = encode_frame(&Frame::Samples {
            seq: 1,
            samples: vec![1.0, 2.0, 3.0],
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::PayloadChecksum)
        ));
    }

    #[test]
    fn borrowed_samples_encode_to_the_owned_frame_bytes() {
        let samples = vec![1.5, -0.0, f64::from_bits(0x7ff8_0000_0000_0001), 1e-310];
        let bytes = encode_samples(9, &samples);
        assert_eq!(
            bytes,
            encode_frame(&Frame::Samples {
                seq: 9,
                samples: samples.clone()
            })
        );
        assert_eq!(bytes.capacity(), bytes.len(), "sized exactly, grown once");
        let Ok((FrameView::Samples(v), used)) = decode_frame_view(&bytes) else {
            panic!("not a SAMPLES view");
        };
        assert_eq!(used, bytes.len());
        assert_eq!(v.frame(), &bytes[..]);
        assert_eq!(v.payload(), &bytes[HEADER_LEN..]);
        assert_eq!(v.crc(), crc32(v.payload()));
        assert_eq!(v.crc().to_le_bytes(), bytes[12..16]);
        let back: Vec<u64> = v.iter().map(f64::to_bits).collect();
        assert_eq!(
            back,
            samples.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn resequenced_samples_equal_a_fresh_encode() {
        let seqs = [0, 1, 2, 255, 256, 1 << 32, u64::MAX - 1, u64::MAX];
        for n in [0usize, 1, 7, 5_000] {
            let samples: Vec<f64> = (0..n as u64)
                .map(|i| f64::from_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            for &from in &seqs {
                let frame = encode_samples(from, &samples);
                for &to in &seqs {
                    let moved = resequence_samples(&frame, to);
                    assert_eq!(moved, encode_samples(to, &samples), "n {n}, {from} -> {to}");
                    let Ok((FrameView::Samples(v), used)) = decode_frame_view(&moved) else {
                        panic!("resequenced frame must decode: n {n}, {from} -> {to}");
                    };
                    assert_eq!((v.seq, v.len(), used), (to, n, moved.len()));
                    assert_eq!(v.frame(), &moved[..]);
                    assert!(v
                        .iter()
                        .map(f64::to_bits)
                        .eq(samples.iter().map(|x| x.to_bits())));
                }
            }
        }
    }

    #[test]
    fn samples_past_the_fitting_bound_are_refused() {
        // The count is checked before any sample byte is read, on both
        // the owned and the zero-copy path.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&(SAMPLES_FITTING_PAYLOAD + 1).to_le_bytes());
        let bytes = seal_frame(FrameType::Samples as u8, 0, &payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            decode_frame_view(&bytes),
            Err(ProtoError::Malformed(_))
        ));
        // The bound is the most samples whose payload fits MAX_PAYLOAD.
        let at_bound = SAMPLES_PREFIX + SAMPLES_FITTING_PAYLOAD as usize * 8;
        assert!(at_bound <= MAX_PAYLOAD as usize);
        assert!(at_bound + 8 > MAX_PAYLOAD as usize);
    }

    #[test]
    fn oversized_length_is_rejected_before_reading_payload() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let hsum = header_checksum(&bytes);
        bytes[6..8].copy_from_slice(&hsum.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[4] = 200;
        let hsum = header_checksum(&bytes);
        bytes[6..8].copy_from_slice(&hsum.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::UnknownType(200))
        ));
    }

    #[test]
    fn truncated_inputs_want_more_bytes() {
        let bytes = encode_frame(&Frame::Samples {
            seq: 1,
            samples: vec![1.0; 16],
        });
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert!(
                matches!(decode_frame(&bytes[..cut]), Err(ProtoError::Io(_))),
                "cut at {cut} should want more bytes"
            );
        }
    }

    #[test]
    fn fuzzed_random_bytes_never_panic() {
        // Deterministic pseudo-random buffers; the decoder must fail
        // cleanly (or decode — some buffers may be valid) without
        // panicking or over-allocating.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for len in [0usize, 3, 15, 16, 17, 64, 300] {
            for _ in 0..200 {
                let buf: Vec<u8> = (0..len).map(|_| next()).collect();
                let _ = decode_frame(&buf);
            }
        }
    }

    #[test]
    fn truncated_payload_fields_are_malformed() {
        // A Samples frame whose count promises more f64s than the
        // payload carries: rebuild with a consistent checksum so only
        // the *decoder* can catch it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // seq
        payload.extend_from_slice(&10u32.to_le_bytes()); // promises 10
        payload.extend_from_slice(&1.0f64.to_le_bytes()); // delivers 1
        let bytes = seal_frame(FrameType::Samples as u8, 0, &payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn over_long_strings_are_cut_at_a_char_boundary() {
        // 255 ASCII bytes then a 2-byte 'é': a byte cut at the 256-byte
        // string bound would split the 'é', and the frame would encode
        // but never decode.
        let label = format!("{}é", "a".repeat(255));
        let hello = Frame::Hello(Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: sample_config(),
            device: label.clone(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        });
        let decoded = |f: &Frame| decode_frame(&encode_frame(f)).expect("decodes").0;
        let Frame::Hello(h) = decoded(&hello) else {
            panic!("not a HELLO");
        };
        assert_eq!(h.device, "a".repeat(255));
        let error = Frame::Error {
            code: ErrorCode::Internal,
            message: label,
        };
        let Frame::Error { message, .. } = decoded(&error) else {
            panic!("not an ERROR");
        };
        assert_eq!(message, "a".repeat(255));
        // The long-string writer keeps the same rule at its own bound.
        let json = format!("{}é", "x".repeat(MAX_FLIGHT_JSON - 1));
        let flight = Frame::FlightReply {
            dumps: vec![FlightDumpWire {
                session_id: 1,
                trace_id: 2,
                json,
            }],
        };
        let Frame::FlightReply { dumps } = decoded(&flight) else {
            panic!("not a FLIGHT reply");
        };
        assert_eq!(dumps[0].json, "x".repeat(MAX_FLIGHT_JSON - 1));
    }

    #[test]
    fn error_codes_map_back() {
        for code in [
            ErrorCode::UnsupportedVersion,
            ErrorCode::Malformed,
            ErrorCode::Checksum,
            ErrorCode::TooLarge,
            ErrorCode::Protocol,
            ErrorCode::Shutdown,
            ErrorCode::SessionLimit,
            ErrorCode::NoSession,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), code);
        }
    }
}
