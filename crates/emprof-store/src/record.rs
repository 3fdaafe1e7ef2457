//! Journal record kinds and their payloads, written with the byte codec
//! the wire protocol also uses ([`crate::codec`]): the same event,
//! detector-config, sample-batch and string encodings, so a `Meta`
//! record and a HELLO frame carry a configuration byte for byte alike.
//!
//! A record's payload is opaque to the segment layer — framing and CRC
//! live in [`crate::segment`]. Decoding here is bounds-checked and
//! never panics; a payload that passes its CRC but fails to decode is a
//! format error (not a torn write) and is surfaced as such.

use emprof_core::{Confidence, EmprofConfig, StallEvent, StallKind};

pub use crate::codec::DecodeError;
use crate::codec::Reader;

/// Upper bound on samples per [`Record::Samples`] record.
pub const MAX_SAMPLES_PER_RECORD: u32 = 1 << 20;

/// Upper bound on events per [`Record::Events`] record.
pub const MAX_EVENTS_PER_RECORD: u32 = 1 << 20;

/// Exact encoded payload size of a [`Record::Footer`]: eleven 64-bit
/// fields, nothing variable-length, so a reader can fetch a sealed
/// segment's footer with a single fixed-size tail read.
pub const FOOTER_PAYLOAD_LEN: usize = 88;

/// Per-segment statistics index, written as the *last* record of a
/// segment when it is sealed at roll time.
///
/// The footer is an ordinary CRC-framed record, so legacy readers that
/// predate it still scan the segment cleanly. It can be fetched in O(1)
/// with [`crate::segment::read_segment_footer`]; the query engine takes
/// it from its own walk of the segment and skips folding a segment
/// whose event range cannot intersect the query window.
/// Sentinel values make "no events" unambiguous: `min_*` fields are
/// `u64::MAX` / `+inf` and `max_*` fields are `0` / `-inf` when the
/// corresponding population is empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentFooter {
    /// Data records before this footer (footers never count themselves).
    pub record_count: u64,
    /// Stall events across all [`Record::Events`] records.
    pub event_count: u64,
    /// Events with degraded confidence.
    pub degraded_count: u64,
    /// Events classified as refresh collisions.
    pub refresh_count: u64,
    /// Magnitude samples across all [`Record::Samples`] records.
    pub samples_count: u64,
    /// Smallest event `start_sample` (`u64::MAX` when no events).
    pub min_event_start: u64,
    /// Largest event `end_sample` (`0` when no events).
    pub max_event_end: u64,
    /// Smallest event sequence number (`u64::MAX` when no events).
    pub min_event_seq: u64,
    /// Largest event sequence number (`0` when no events).
    pub max_event_seq: u64,
    /// Smallest event duration in cycles (`+inf` when no events).
    pub min_duration_cycles: f64,
    /// Largest event duration in cycles (`-inf` when no events).
    pub max_duration_cycles: f64,
}

impl Default for SegmentFooter {
    fn default() -> Self {
        SegmentFooter::empty()
    }
}

impl SegmentFooter {
    /// A footer describing zero records (sentinel mins/maxes).
    pub fn empty() -> SegmentFooter {
        SegmentFooter {
            record_count: 0,
            event_count: 0,
            degraded_count: 0,
            refresh_count: 0,
            samples_count: 0,
            min_event_start: u64::MAX,
            max_event_end: 0,
            min_event_seq: u64::MAX,
            max_event_seq: 0,
            min_duration_cycles: f64::INFINITY,
            max_duration_cycles: f64::NEG_INFINITY,
        }
    }

    /// Folds one record into the running statistics. Footer records are
    /// ignored, so re-accumulating over a whole scanned segment (which
    /// may contain an earlier footer from an interrupted roll)
    /// reproduces exactly what the final footer should claim.
    pub fn note(&mut self, rec: &Record) {
        match rec {
            Record::Footer(_) => return,
            Record::Samples { samples, .. } => return self.note_samples(samples.len()),
            Record::Events { first_seq, events } => {
                for (seq, e) in sequenced(*first_seq, events) {
                    self.event_count += 1;
                    if e.confidence == Confidence::Degraded {
                        self.degraded_count += 1;
                    }
                    if e.kind == StallKind::RefreshCollision {
                        self.refresh_count += 1;
                    }
                    self.min_event_start = self.min_event_start.min(e.start_sample as u64);
                    self.max_event_end = self.max_event_end.max(e.end_sample as u64);
                    self.min_event_seq = self.min_event_seq.min(seq);
                    self.max_event_seq = self.max_event_seq.max(seq);
                    self.min_duration_cycles = self.min_duration_cycles.min(e.duration_cycles);
                    self.max_duration_cycles = self.max_duration_cycles.max(e.duration_cycles);
                }
            }
            Record::Meta(_) | Record::Cursor { .. } | Record::Finished { .. } => {}
        }
        self.record_count += 1;
    }

    /// Folds in one [`Record::Samples`] record of `count` samples — the
    /// whole of what [`SegmentFooter::note`] takes from such a record,
    /// for writers that journal borrowed samples without building one.
    pub(crate) fn note_samples(&mut self, count: usize) {
        self.samples_count += count as u64;
        self.record_count += 1;
    }

    /// Whether any event in this segment could have a `start_sample`
    /// inside `[t0, t1]`. Conservative: uses `[min_event_start,
    /// max_event_end]` as the covering interval (starts never exceed
    /// ends), so a `false` answer is always safe to prune on.
    pub fn overlaps(&self, t0: u64, t1: u64) -> bool {
        self.event_count > 0 && self.min_event_start <= t1 && self.max_event_end >= t0
    }
}

/// The `(sequence, event)` pairs of an [`Record::Events`] record whose
/// first event is `first_seq`.
pub(crate) fn sequenced(
    first_seq: u64,
    events: &[StallEvent],
) -> impl Iterator<Item = (u64, StallEvent)> + '_ {
    events
        .iter()
        .enumerate()
        .map(move |(i, e)| (first_seq + i as u64, *e))
}

/// Identity of a journaled session, written as the first record of a
/// fresh journal and re-written at every segment roll (the checkpoint),
/// so any retained suffix of segments is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// The server-assigned session id (directory names must agree).
    pub session_id: u64,
    /// The resume token issued at the original HELLO. Persisting it is
    /// what lets a client resume across a server *restart*: a fresh
    /// registry would otherwise mint tokens from a different seed.
    pub resume_token: u64,
    /// Capture sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Profiled core clock in Hz.
    pub clock_hz: f64,
    /// Full detector configuration; recovery rebuilds the detector from
    /// this plus the journaled sample batches.
    pub config: EmprofConfig,
    /// Free-form device label from HELLO.
    pub device: String,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Session identity checkpoint; see [`SessionMeta`].
    Meta(SessionMeta),
    /// An accepted SAMPLES batch, journaled before ingestion so the
    /// acked watermark never runs ahead of durable state.
    Samples {
        /// The batch's wire sequence number (contiguous from 1).
        seq: u64,
        /// The magnitude samples.
        samples: Vec<f64>,
    },
    /// Finalized stall events, journaled before they are offered to the
    /// client. Event sequences are contiguous from 1 per session.
    Events {
        /// Sequence number of `events[0]`.
        first_seq: u64,
        /// The events, in finalization order.
        events: Vec<StallEvent>,
    },
    /// Delivery-cursor checkpoint: every event with sequence at or
    /// below this has been acknowledged by the client (EVENTS_ACK).
    Cursor {
        /// The acknowledged event sequence.
        acked_events: u64,
    },
    /// The session's detector was finalized. After this record, sample
    /// records are no longer needed for recovery (the detector will
    /// never be rebuilt), which releases them for compaction.
    Finished {
        /// Samples the detector ingested over the session's lifetime.
        samples_pushed: u64,
        /// Non-finite samples rejected at the ingest boundary.
        samples_rejected: u64,
        /// The SAMPLES ack watermark at finalization — recovery needs
        /// it after sample records have been compacted away, or a
        /// resuming client replaying unacked frames would see a bogus
        /// sequence gap.
        last_samples_seq: u64,
    },
    /// Segment statistics index written when the segment is sealed;
    /// see [`SegmentFooter`]. Purely advisory for recovery (the fold
    /// skips it) but load-bearing for range-query pruning.
    Footer(SegmentFooter),
}

/// A record as read by the query engine and inspection, which have no
/// use for sample values: a [`Record::Samples`] payload passes
/// [`Record::samples_payload`] and keeps only its sample count, and
/// every other kind decodes in full. A payload [`Record::decode`] would
/// refuse is refused here too, so the valid prefix ends where recovery
/// ends it.
#[derive(Debug)]
pub(crate) enum Scanned {
    /// A checked `Samples` record's sample count.
    Samples(usize),
    /// Any other record, decoded.
    Record(Record),
}

impl Scanned {
    /// Reads one CRC-verified payload; the frame reader of
    /// [`crate::segment::scan_segment_with`].
    pub(crate) fn read(kind: u8, payload: &[u8]) -> Result<Scanned, DecodeError> {
        if kind == RecordKind::Samples as u8 {
            let (_, raw) = Record::samples_payload(payload)?;
            return Ok(Scanned::Samples(raw.len() / 8));
        }
        Record::decode(kind, payload).map(Scanned::Record)
    }
}

crate::discriminants! {
    /// Record discriminants as stored on disk.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecordKind: u8 {
        /// [`Record::Meta`].
        Meta = 1,
        /// [`Record::Samples`].
        Samples = 2,
        /// [`Record::Events`].
        Events = 3,
        /// [`Record::Cursor`].
        Cursor = 4,
        /// [`Record::Finished`].
        Finished = 5,
        /// [`Record::Footer`].
        Footer = 6,
    }
    pub fn from_u8;
}

crate::wire_struct! {
    SessionMeta { session_id, resume_token, sample_rate_hz, clock_hz, config, device }
    SegmentFooter {
        record_count,
        event_count,
        degraded_count,
        refresh_count,
        samples_count,
        min_event_start,
        max_event_end,
        min_event_seq,
        max_event_seq,
        min_duration_cycles,
        max_duration_cycles,
    }
}

crate::wire_enum! {
    Record: RecordKind {
        Meta(SessionMeta) => Meta;
        Samples { seq, samples: [samples MAX_SAMPLES_PER_RECORD] } => Samples;
        Events { first_seq, events: [MAX_EVENTS_PER_RECORD, "event count exceeds bound"] }
            => Events;
        Cursor { acked_events } => Cursor;
        Finished { samples_pushed, samples_rejected, last_samples_seq } => Finished;
        Footer(SegmentFooter) => Footer;
    }
}

impl Record {
    /// Encodes the payload (framing and CRC are the segment layer's).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        self.encode_into(&mut p);
        p
    }

    /// Appends the encoded payload to `p` — [`Record::encode`] into a
    /// caller-owned buffer.
    pub fn encode_into(&self, p: &mut Vec<u8>) {
        let at = p.len();
        self.put_payload(p);
        debug_assert!(
            !matches!(self, Record::Footer(_)) || p.len() - at == FOOTER_PAYLOAD_LEN,
            "a footer payload is FOOTER_PAYLOAD_LEN bytes"
        );
    }

    /// Checks a [`Record::Samples`] payload without decoding a sample:
    /// sequence number, count within [`MAX_SAMPLES_PER_RECORD`], and a
    /// length of exactly that many samples. Returns the sequence number
    /// and the raw sample bytes. [`Record::decode`] reads the same fields
    /// through the table's `Samples` row (the `u64` sequence number, then
    /// [`Reader::sample_bytes`], then [`Reader::done`]), so the two accept
    /// and reject the same payloads; `samples_payload_agrees_with_decode`
    /// pins that.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, a count over the bound, or
    /// trailing bytes.
    pub(crate) fn samples_payload(payload: &[u8]) -> Result<(u64, &[u8]), DecodeError> {
        let mut r = Reader::new(payload);
        let (seq, raw) = r.samples(MAX_SAMPLES_PER_RECORD)?;
        r.done()?;
        Ok((seq, raw))
    }

    /// Decodes a payload whose CRC already verified.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on unknown kinds, truncation, bound violations,
    /// or trailing bytes — never panics.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Record, DecodeError> {
        let kind = RecordKind::from_u8(kind).ok_or(DecodeError("unknown record kind"))?;
        let mut r = Reader::new(payload);
        let rec = Record::get_payload(kind, 0, &mut r)?;
        r.done()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SessionMeta {
        SessionMeta {
            session_id: 42,
            resume_token: 0xDEAD_BEEF,
            sample_rate_hz: 40e6,
            clock_hz: 1.0e9,
            config: EmprofConfig::for_rates(40e6, 1.0e9),
            device: "olimex".into(),
        }
    }

    fn roundtrip(rec: Record) {
        let payload = rec.encode();
        let decoded = Record::decode(rec.kind() as u8, &payload).expect("decodes");
        assert_eq!(decoded, rec);
    }

    #[test]
    fn all_records_roundtrip() {
        roundtrip(Record::Meta(meta()));
        roundtrip(Record::Samples {
            seq: 1,
            samples: vec![],
        });
        roundtrip(Record::Samples {
            seq: u64::MAX,
            samples: (0..500).map(|i| i as f64 * 0.25).collect(),
        });
        roundtrip(Record::Events {
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
                    end_sample: 301,
                    duration_cycles: 50.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::Degraded,
                },
            ],
        });
        roundtrip(Record::Events {
            first_seq: 1,
            events: vec![],
        });
        roundtrip(Record::Cursor { acked_events: 31 });
        roundtrip(Record::Finished {
            samples_pushed: 123,
            samples_rejected: 4,
            last_samples_seq: 99,
        });
        roundtrip(Record::Footer(SegmentFooter::empty()));
        roundtrip(Record::Footer(SegmentFooter {
            record_count: 12,
            event_count: 9,
            degraded_count: 2,
            refresh_count: 1,
            samples_count: 4096,
            min_event_start: 17,
            max_event_end: 9001,
            min_event_seq: 3,
            max_event_seq: 11,
            min_duration_cycles: 50.0,
            max_duration_cycles: 3000.0,
        }));
    }

    #[test]
    fn footer_payload_is_fixed_size() {
        assert_eq!(
            Record::Footer(SegmentFooter::empty()).encode().len(),
            FOOTER_PAYLOAD_LEN
        );
    }

    #[test]
    fn footer_fields_are_at_their_offsets() {
        // Eleven distinct values, so swapping any two fields in the
        // declaration moves bytes here, even where a fixture's values
        // happen to be equal.
        let f = SegmentFooter {
            record_count: 1,
            event_count: 2,
            degraded_count: 3,
            refresh_count: 4,
            samples_count: 5,
            min_event_start: 6,
            max_event_end: 7,
            min_event_seq: 8,
            max_event_seq: 9,
            min_duration_cycles: 10.5,
            max_duration_cycles: 11.5,
        };
        let mut want = Vec::new();
        for v in 1..=9u64 {
            want.extend_from_slice(&v.to_le_bytes());
        }
        want.extend_from_slice(&10.5f64.to_le_bytes());
        want.extend_from_slice(&11.5f64.to_le_bytes());
        assert_eq!(Record::Footer(f).encode(), want);
    }

    #[test]
    fn samples_payload_agrees_with_decode() {
        let valid = Record::Samples {
            seq: 9,
            samples: vec![0.5, -1.0, 2.25],
        }
        .encode();
        let mut payloads: Vec<Vec<u8>> = (0..=valid.len()).map(|n| valid[..n].to_vec()).collect();
        let mut trailing = valid.clone();
        trailing.push(0);
        payloads.push(trailing);
        let mut short = valid.clone();
        short[8..12].copy_from_slice(&4u32.to_le_bytes());
        payloads.push(short);
        let mut long = valid.clone();
        long[8..12].copy_from_slice(&2u32.to_le_bytes());
        payloads.push(long);
        let mut over = 1u64.to_le_bytes().to_vec();
        over.extend_from_slice(&(MAX_SAMPLES_PER_RECORD + 1).to_le_bytes());
        payloads.push(over);
        for p in &payloads {
            let checked = Record::samples_payload(p);
            let decoded = Record::decode(RecordKind::Samples as u8, p);
            match (checked, decoded) {
                (Ok((seq, raw)), Ok(Record::Samples { seq: s, samples })) => {
                    assert_eq!(seq, s);
                    assert_eq!(crate::codec::f64s(raw).collect::<Vec<_>>(), samples);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "payload {p:?}"),
                (a, b) => panic!("payload {p:?}: check {a:?}, decode {b:?}"),
            }
        }
    }

    #[test]
    fn footer_accumulation_matches_records() {
        let mut f = SegmentFooter::empty();
        f.note(&Record::Meta(meta()));
        f.note(&Record::Samples {
            seq: 1,
            samples: vec![1.0; 300],
        });
        f.note(&Record::Events {
            first_seq: 5,
            events: vec![
                StallEvent {
                    start_sample: 40,
                    end_sample: 90,
                    duration_cycles: 1250.0,
                    kind: StallKind::RefreshCollision,
                    confidence: Confidence::High,
                },
                StallEvent {
                    start_sample: 200,
                    end_sample: 230,
                    duration_cycles: 750.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::Degraded,
                },
            ],
        });
        f.note(&Record::Cursor { acked_events: 5 });
        // A stale footer from an interrupted roll must not perturb the
        // statistics of the records around it.
        f.note(&Record::Footer(SegmentFooter::empty()));
        assert_eq!(f.record_count, 4);
        assert_eq!(f.event_count, 2);
        assert_eq!(f.degraded_count, 1);
        assert_eq!(f.refresh_count, 1);
        assert_eq!(f.samples_count, 300);
        assert_eq!((f.min_event_start, f.max_event_end), (40, 230));
        assert_eq!((f.min_event_seq, f.max_event_seq), (5, 6));
        assert_eq!(
            (f.min_duration_cycles, f.max_duration_cycles),
            (750.0, 1250.0)
        );
        assert!(f.overlaps(0, u64::MAX));
        assert!(f.overlaps(90, 199));
        assert!(!f.overlaps(231, u64::MAX));
        assert!(!f.overlaps(0, 39));
        assert!(!SegmentFooter::empty().overlaps(0, u64::MAX));
    }

    #[test]
    fn truncated_payloads_fail_cleanly() {
        let full = Record::Samples {
            seq: 3,
            samples: vec![1.0, 2.0, 3.0],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Record::decode(RecordKind::Samples as u8, &full[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_fail() {
        assert!(Record::decode(99, &[]).is_err());
        let mut p = Record::Cursor { acked_events: 1 }.encode();
        p.push(0);
        assert!(Record::decode(RecordKind::Cursor as u8, &p).is_err());
    }

    #[test]
    fn over_long_device_label_is_cut_at_a_char_boundary() {
        // 255 ASCII bytes then a 2-byte 'é': cutting at byte 256 would
        // split the 'é', leaving a CRC-valid Meta that never decodes, and
        // recovery would drop the whole journal as torn.
        let mut m = meta();
        m.device = format!("{}é", "a".repeat(255));
        let Record::Meta(back) = Record::decode(RecordKind::Meta as u8, &Record::Meta(m).encode())
            .expect("Meta decodes")
        else {
            panic!("not a Meta record");
        };
        assert_eq!(back.device, "a".repeat(255));
    }

    #[test]
    fn fuzzed_payloads_never_panic() {
        let mut state = 0xA5A5_5A5Au64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for len in [0usize, 1, 7, 8, 31, 64, 200] {
            for kind in 0..8u8 {
                for _ in 0..50 {
                    let buf: Vec<u8> = (0..len).map(|_| next()).collect();
                    let _ = Record::decode(kind, &buf);
                }
            }
        }
    }
}
