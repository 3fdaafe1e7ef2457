//! Journal record kinds and their payload codec (little-endian, same
//! primitive encodings as the wire protocol: f64s as raw bits, strings
//! length-prefixed).
//!
//! A record's payload is opaque to the segment layer — framing and CRC
//! live in [`crate::segment`]. Decoding here is bounds-checked and
//! never panics; a payload that passes its CRC but fails to decode is a
//! format error (not a torn write) and is surfaced as such.

use emprof_core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};

/// Upper bound on a device-label string.
const MAX_STRING: usize = 256;

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
/// predate it still scan the segment cleanly; new readers use
/// [`crate::segment::read_segment_footer`] to fetch it in O(1) and
/// prune segments whose event range cannot intersect a query window.
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
                for (i, e) in events.iter().enumerate() {
                    let seq = first_seq + i as u64;
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

/// Record discriminants as stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
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

impl RecordKind {
    /// Decodes a stored discriminant.
    pub fn from_u8(v: u8) -> Option<RecordKind> {
        Some(match v {
            1 => RecordKind::Meta,
            2 => RecordKind::Samples,
            3 => RecordKind::Events,
            4 => RecordKind::Cursor,
            5 => RecordKind::Finished,
            6 => RecordKind::Footer,
            _ => return None,
        })
    }
}

/// Why a CRC-valid payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed record payload: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        if len > MAX_STRING {
            return Err(DecodeError("string too long"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError("string not UTF-8"))
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(MAX_STRING);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

/// Appends the payload of a [`Record::Samples`] record — sequence,
/// count, then each sample's raw bits — straight from borrowed samples.
pub(crate) fn encode_samples_payload(out: &mut Vec<u8>, seq: u64, samples: &[f64]) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    let at = out.len();
    out.resize(at + samples.len() * 8, 0);
    for (dst, s) in out[at..].chunks_exact_mut(8).zip(samples) {
        dst.copy_from_slice(&s.to_le_bytes());
    }
}

/// Event kind byte: bit 0 is the refresh classification, bit 1 the
/// degraded-confidence mark, so replaying a journal reproduces exactly
/// the confidence the live session reported.
fn encode_event(out: &mut Vec<u8>, e: &StallEvent) {
    out.extend_from_slice(&(e.start_sample as u64).to_le_bytes());
    out.extend_from_slice(&(e.end_sample as u64).to_le_bytes());
    out.extend_from_slice(&e.duration_cycles.to_le_bytes());
    let mut kind = match e.kind {
        StallKind::Normal => 0,
        StallKind::RefreshCollision => 1,
    };
    if e.confidence == Confidence::Degraded {
        kind |= 2;
    }
    out.push(kind);
}

fn decode_event(r: &mut Reader<'_>) -> Result<StallEvent, DecodeError> {
    let start_sample = r.u64()? as usize;
    let end_sample = r.u64()? as usize;
    let duration_cycles = r.f64()?;
    let bits = r.u8()?;
    if bits > 3 {
        return Err(DecodeError("unknown stall kind"));
    }
    let kind = if bits & 1 != 0 {
        StallKind::RefreshCollision
    } else {
        StallKind::Normal
    };
    let confidence = if bits & 2 != 0 {
        Confidence::Degraded
    } else {
        Confidence::High
    };
    if end_sample < start_sample {
        return Err(DecodeError("event ends before it starts"));
    }
    Ok(StallEvent {
        start_sample,
        end_sample,
        duration_cycles,
        kind,
        confidence,
    })
}

impl Record {
    /// This record's on-disk discriminant.
    pub fn kind(&self) -> RecordKind {
        match self {
            Record::Meta(_) => RecordKind::Meta,
            Record::Samples { .. } => RecordKind::Samples,
            Record::Events { .. } => RecordKind::Events,
            Record::Cursor { .. } => RecordKind::Cursor,
            Record::Finished { .. } => RecordKind::Finished,
            Record::Footer(_) => RecordKind::Footer,
        }
    }

    /// Encodes the payload (framing and CRC are the segment layer's).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        self.encode_into(&mut p);
        p
    }

    /// Appends the encoded payload to `p` — [`Record::encode`] into a
    /// caller-owned buffer.
    pub fn encode_into(&self, p: &mut Vec<u8>) {
        match self {
            Record::Meta(m) => {
                p.extend_from_slice(&m.session_id.to_le_bytes());
                p.extend_from_slice(&m.resume_token.to_le_bytes());
                p.extend_from_slice(&m.sample_rate_hz.to_le_bytes());
                p.extend_from_slice(&m.clock_hz.to_le_bytes());
                let c = &m.config;
                p.extend_from_slice(&(c.norm_window_samples as u64).to_le_bytes());
                p.extend_from_slice(&c.threshold.to_le_bytes());
                p.extend_from_slice(&c.min_duration_cycles.to_le_bytes());
                p.extend_from_slice(&(c.min_duration_samples as u64).to_le_bytes());
                p.extend_from_slice(&(c.merge_gap_samples as u64).to_le_bytes());
                p.extend_from_slice(&c.edge_level.to_le_bytes());
                p.extend_from_slice(&c.refresh_min_cycles.to_le_bytes());
                p.push(c.calib.enabled as u8);
                p.extend_from_slice(&(c.calib.block_samples as u64).to_le_bytes());
                p.extend_from_slice(&c.calib.ewma_weight.to_le_bytes());
                p.extend_from_slice(&c.calib.threshold_pad.to_le_bytes());
                p.extend_from_slice(&c.calib.threshold_max.to_le_bytes());
                p.extend_from_slice(&c.calib.gate_fraction.to_le_bytes());
                p.extend_from_slice(&c.calib.degraded_enter.to_le_bytes());
                p.extend_from_slice(&c.calib.degraded_exit.to_le_bytes());
                p.extend_from_slice(&(c.calib.window_min as u64).to_le_bytes());
                p.extend_from_slice(&c.calib.drift_tolerance.to_le_bytes());
                put_string(p, &m.device);
            }
            Record::Samples { seq, samples } => encode_samples_payload(p, *seq, samples),
            Record::Events { first_seq, events } => {
                p.extend_from_slice(&first_seq.to_le_bytes());
                p.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for e in events {
                    encode_event(p, e);
                }
            }
            Record::Cursor { acked_events } => {
                p.extend_from_slice(&acked_events.to_le_bytes());
            }
            Record::Finished {
                samples_pushed,
                samples_rejected,
                last_samples_seq,
            } => {
                p.extend_from_slice(&samples_pushed.to_le_bytes());
                p.extend_from_slice(&samples_rejected.to_le_bytes());
                p.extend_from_slice(&last_samples_seq.to_le_bytes());
            }
            Record::Footer(f) => {
                let at = p.len();
                p.extend_from_slice(&f.record_count.to_le_bytes());
                p.extend_from_slice(&f.event_count.to_le_bytes());
                p.extend_from_slice(&f.degraded_count.to_le_bytes());
                p.extend_from_slice(&f.refresh_count.to_le_bytes());
                p.extend_from_slice(&f.samples_count.to_le_bytes());
                p.extend_from_slice(&f.min_event_start.to_le_bytes());
                p.extend_from_slice(&f.max_event_end.to_le_bytes());
                p.extend_from_slice(&f.min_event_seq.to_le_bytes());
                p.extend_from_slice(&f.max_event_seq.to_le_bytes());
                p.extend_from_slice(&f.min_duration_cycles.to_le_bytes());
                p.extend_from_slice(&f.max_duration_cycles.to_le_bytes());
                debug_assert_eq!(p.len() - at, FOOTER_PAYLOAD_LEN);
            }
        }
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
        let rec = match kind {
            RecordKind::Meta => {
                let session_id = r.u64()?;
                let resume_token = r.u64()?;
                let sample_rate_hz = r.f64()?;
                let clock_hz = r.f64()?;
                let config = EmprofConfig {
                    norm_window_samples: r.u64()? as usize,
                    threshold: r.f64()?,
                    min_duration_cycles: r.f64()?,
                    min_duration_samples: r.u64()? as usize,
                    merge_gap_samples: r.u64()? as usize,
                    edge_level: r.f64()?,
                    refresh_min_cycles: r.f64()?,
                    calib: CalibConfig {
                        enabled: r.u8()? != 0,
                        block_samples: r.u64()? as usize,
                        ewma_weight: r.f64()?,
                        threshold_pad: r.f64()?,
                        threshold_max: r.f64()?,
                        gate_fraction: r.f64()?,
                        degraded_enter: r.f64()?,
                        degraded_exit: r.f64()?,
                        window_min: r.u64()? as usize,
                        drift_tolerance: r.f64()?,
                    },
                };
                let device = r.string()?;
                Record::Meta(SessionMeta {
                    session_id,
                    resume_token,
                    sample_rate_hz,
                    clock_hz,
                    config,
                    device,
                })
            }
            RecordKind::Samples => {
                let seq = r.u64()?;
                let count = r.u32()?;
                if count > MAX_SAMPLES_PER_RECORD {
                    return Err(DecodeError("sample count exceeds bound"));
                }
                let samples = r
                    .take(count as usize * 8)?
                    .chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                    .collect();
                Record::Samples { seq, samples }
            }
            RecordKind::Events => {
                let first_seq = r.u64()?;
                let count = r.u32()?;
                if count > MAX_EVENTS_PER_RECORD {
                    return Err(DecodeError("event count exceeds bound"));
                }
                let mut events = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    events.push(decode_event(&mut r)?);
                }
                Record::Events { first_seq, events }
            }
            RecordKind::Cursor => Record::Cursor {
                acked_events: r.u64()?,
            },
            RecordKind::Finished => Record::Finished {
                samples_pushed: r.u64()?,
                samples_rejected: r.u64()?,
                last_samples_seq: r.u64()?,
            },
            RecordKind::Footer => Record::Footer(SegmentFooter {
                record_count: r.u64()?,
                event_count: r.u64()?,
                degraded_count: r.u64()?,
                refresh_count: r.u64()?,
                samples_count: r.u64()?,
                min_event_start: r.u64()?,
                max_event_end: r.u64()?,
                min_event_seq: r.u64()?,
                max_event_seq: r.u64()?,
                min_duration_cycles: r.f64()?,
                max_duration_cycles: r.f64()?,
            }),
        };
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
        assert_eq!((f.min_duration_cycles, f.max_duration_cycles), (750.0, 1250.0));
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
