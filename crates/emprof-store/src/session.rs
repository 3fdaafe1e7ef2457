//! [`SessionJournal`]: the record-semantics layer over [`Journal`] that
//! `emprof-serve` mounts under each session.
//!
//! It owns the checkpoint discipline (a fresh [`Record::Meta`] +
//! [`Record::Cursor`] — and [`Record::Finished`], once finalized — at
//! the head of every new segment, so compaction can delete old
//! segments without losing the session's identity or cursor), the
//! delivery-cursor bookkeeping, and ack-driven compaction. Recovery
//! ([`SessionJournal::open`]) folds the journal's records back into the
//! state a restarted server needs to resume the session exactly where
//! durable delivery left off.

use std::fs;
use std::io;
use std::path::Path;

use emprof_core::StallEvent;

use crate::journal::{Journal, JournalConfig, JournalStats, RecoveryReport};
use crate::record::{Record, SessionMeta, MAX_EVENTS_PER_RECORD, MAX_SAMPLES_PER_RECORD};

/// Whether `(sequence, item)` pairs run strictly increasing in sequence,
/// as journals append them: the input [`fold_by_seq`] returns as it is.
pub(crate) fn in_seq_order<'a, T: 'a>(items: impl IntoIterator<Item = &'a (u64, T)>) -> bool {
    let mut last = None;
    items
        .into_iter()
        .all(|(seq, _)| last.replace(*seq).is_none_or(|l| l < *seq))
}

/// The one sequence fold, shared by recovery and the query engine:
/// `(sequence, item)` pairs in journal order, stably sorted by sequence,
/// the last-journaled copy of each sequence kept — a map keyed by
/// sequence, built in one pass. Journals append in order, so the input
/// is usually strictly increasing already, and then it is returned as
/// it is; otherwise [`sort_by_seq`] folds it.
pub(crate) fn fold_by_seq<T>(items: Vec<(u64, T)>) -> Vec<(u64, T)> {
    if in_seq_order(&items) {
        items
    } else {
        sort_by_seq(items)
    }
}

/// [`fold_by_seq`] for input its caller already found out of sequence
/// order: the stable sort, after which `dedup_by` keeps a run's first
/// slot and each later copy swaps in.
pub(crate) fn sort_by_seq<T>(mut items: Vec<(u64, T)>) -> Vec<(u64, T)> {
    items.sort_by_key(|(seq, _)| *seq);
    items.dedup_by(|later, kept| {
        later.0 == kept.0 && {
            std::mem::swap(later, kept);
            true
        }
    });
    items
}

/// A session's journal: append hooks for the serve path plus cursor
/// and compaction bookkeeping.
#[derive(Debug)]
pub struct SessionJournal {
    journal: Journal,
    meta: SessionMeta,
    acked_events: u64,
    finished: Option<Record>,
}

/// Everything recovery folded out of a session's journal.
#[derive(Debug)]
pub struct RecoveredSession {
    /// Session identity (last checkpoint wins).
    pub meta: SessionMeta,
    /// Accepted sample batches in sequence order. For an unfinished
    /// session this is the complete accepted stream (samples are never
    /// compacted before finalization), so replaying it through a fresh
    /// detector reproduces the exact pre-crash state.
    pub samples: Vec<(u64, Vec<f64>)>,
    /// Journaled finalized events as `(sequence, event)`, in order.
    /// After compaction this may start past sequence 1; it always
    /// covers everything past the recovered cursor.
    pub events: Vec<(u64, StallEvent)>,
    /// Highest event sequence ever journaled.
    pub journaled_events: u64,
    /// The recovered delivery cursor: events at or below it were
    /// acknowledged by the client.
    pub acked_events: u64,
    /// The SAMPLES ack watermark (highest accepted sequence).
    pub acked_samples_seq: u64,
    /// `Some((samples_pushed, samples_rejected))` when the detector was
    /// finalized before the crash.
    pub finished: Option<(u64, u64)>,
    /// What the underlying [`Journal::open`] found and repaired.
    pub report: RecoveryReport,
}

impl SessionJournal {
    /// Creates a fresh session journal in `dir` (any stale contents are
    /// removed) and writes the identity checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates directory and write failures.
    pub fn create(dir: &Path, meta: SessionMeta, cfg: JournalConfig) -> io::Result<SessionJournal> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        let mut journal = Journal::open_with(dir, cfg)?.journal;
        journal.append(&Record::Meta(meta.clone()))?;
        Ok(SessionJournal {
            journal,
            meta,
            acked_events: 0,
            finished: None,
        })
    }

    /// Opens and recovers an existing session journal. Returns
    /// `Ok(None)` when the recovered prefix holds no identity record —
    /// the journal is unusable (e.g. torn before the first checkpoint
    /// landed) and the caller should discard the directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; corruption is repaired, not reported.
    pub fn open(
        dir: &Path,
        cfg: JournalConfig,
    ) -> io::Result<Option<(SessionJournal, RecoveredSession)>> {
        let recovered = Journal::open_with(dir, cfg)?;
        let mut meta: Option<SessionMeta> = None;
        let mut samples = Vec::new();
        let mut events = Vec::new();
        let mut acked_events = 0u64;
        let mut finished: Option<(u64, u64, u64)> = None;
        for (_, rec) in recovered.records {
            match rec {
                Record::Meta(m) => meta = Some(m),
                Record::Samples { seq, samples: s } => samples.push((seq, s)),
                Record::Events {
                    first_seq,
                    events: evs,
                } => events.extend(crate::record::sequenced(first_seq, &evs)),
                Record::Cursor { acked_events: a } => acked_events = acked_events.max(a),
                Record::Finished {
                    samples_pushed,
                    samples_rejected,
                    last_samples_seq,
                } => finished = Some((samples_pushed, samples_rejected, last_samples_seq)),
                // Segment statistics footers are a read-path index, not
                // session state: the fold skips them.
                Record::Footer(_) => {}
            }
        }
        let Some(meta) = meta else {
            return Ok(None);
        };
        let (samples, events) = (fold_by_seq(samples), fold_by_seq(events));
        let journaled_events = events.last().map_or(0, |e| e.0);
        // Events at or below the cursor may already be compacted away;
        // whatever remains of the acked prefix is equally delivered.
        let acked_samples_seq = samples
            .last()
            .map_or(0, |s| s.0)
            .max(finished.map_or(0, |(_, _, last)| last));
        let session = SessionJournal {
            journal: recovered.journal,
            meta: meta.clone(),
            acked_events,
            finished: finished.map(|(p, r, last)| Record::Finished {
                samples_pushed: p,
                samples_rejected: r,
                last_samples_seq: last,
            }),
        };
        Ok(Some((
            session,
            RecoveredSession {
                meta,
                samples,
                events,
                journaled_events,
                acked_events,
                acked_samples_seq,
                finished: finished.map(|(p, r, _)| (p, r)),
                report: recovered.report,
            },
        )))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        self.journal.dir()
    }

    /// Size accounting (for telemetry and tests).
    pub fn stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// The recovered/active delivery cursor.
    pub fn acked_events(&self) -> u64 {
        self.acked_events
    }

    /// Rolls segments at the size target, re-writing the checkpoint at
    /// the head of the new segment, then appends `rec`.
    fn append_checked(&mut self, rec: &Record) -> io::Result<()> {
        self.roll_if_due()?;
        self.journal.append(rec)?;
        Ok(())
    }

    /// Rolls to a new segment when the active one has outgrown the size
    /// target, re-writing the checkpoint at the head of the new one.
    fn roll_if_due(&mut self) -> io::Result<()> {
        if self.journal.would_roll() {
            self.journal.roll()?;
            self.journal.append(&Record::Meta(self.meta.clone()))?;
            self.journal.append(&Record::Cursor {
                acked_events: self.acked_events,
            })?;
            if let Some(fin) = self.finished.clone() {
                self.journal.append(&fin)?;
            }
        }
        Ok(())
    }

    /// Journals an accepted SAMPLES batch. Call *before* reporting the
    /// batch acknowledged, so the watermark never runs ahead of durable
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append_samples(&mut self, seq: u64, samples: &[f64]) -> io::Result<()> {
        // A wire frame (4 MiB payload cap) always fits one record, and a
        // sequence number must map to exactly one record.
        if samples.len() > MAX_SAMPLES_PER_RECORD as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "samples batch exceeds one journal record",
            ));
        }
        self.roll_if_due()?;
        self.journal.append_samples(seq, samples)?;
        Ok(())
    }

    /// [`SessionJournal::append_samples`] from the batch's encoded
    /// payload and its CRC-32, as a SAMPLES frame carried and verified
    /// them; see [`Journal::append_samples_raw`].
    ///
    /// # Errors
    ///
    /// As [`Journal::append_samples_raw`].
    pub fn append_samples_raw(&mut self, payload: &[u8], payload_crc: u32) -> io::Result<()> {
        self.roll_if_due()?;
        self.journal.append_samples_raw(payload, payload_crc)?;
        Ok(())
    }

    /// Journals freshly finalized events. Call *before* offering them
    /// to the client: once offered, a reply loss must be recoverable
    /// from disk.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append_events(&mut self, first_seq: u64, events: &[StallEvent]) -> io::Result<()> {
        let mut seq = first_seq;
        for chunk in events.chunks(MAX_EVENTS_PER_RECORD as usize) {
            self.append_checked(&Record::Events {
                first_seq: seq,
                events: chunk.to_vec(),
            })?;
            seq += chunk.len() as u64;
        }
        Ok(())
    }

    /// Advances the delivery cursor (journaling a [`Record::Cursor`])
    /// and compacts newly acked segments. A cursor at or below the
    /// current one is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates write and deletion failures.
    pub fn ack(&mut self, acked_events: u64) -> io::Result<()> {
        if acked_events <= self.acked_events {
            return Ok(());
        }
        self.acked_events = acked_events;
        self.append_checked(&Record::Cursor { acked_events })?;
        self.journal
            .compact(self.acked_events, self.finished.is_some())?;
        Ok(())
    }

    /// Journals the detector's finalization, releasing sample records
    /// for compaction.
    ///
    /// # Errors
    ///
    /// Propagates write and deletion failures.
    pub fn finish(
        &mut self,
        samples_pushed: u64,
        samples_rejected: u64,
        last_samples_seq: u64,
    ) -> io::Result<()> {
        let fin = Record::Finished {
            samples_pushed,
            samples_rejected,
            last_samples_seq,
        };
        self.append_checked(&fin)?;
        self.finished = Some(fin);
        self.journal.compact(self.acked_events, true)?;
        Ok(())
    }

    /// Flushes and fsyncs the journal.
    ///
    /// # Errors
    ///
    /// Propagates flush/sync failures.
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }
}

/// Reads a session's journal for handoff without keeping it open: the
/// router's migration path uses this to lift a dead or draining
/// backend's session state off disk and replay it into the new owner.
/// The same longest-valid-prefix recovery as [`SessionJournal::open`]
/// applies (torn tails are truncated in place — the source process is
/// gone, so there is no writer to conflict with), but no journal handle
/// is retained and nothing is appended: the directory stays the old
/// owner's property until the migration succeeds and deletes it.
///
/// Returns `Ok(None)` when no identity checkpoint survived — there is
/// no session to hand off.
///
/// # Errors
///
/// Propagates I/O failures; corruption is repaired, not reported.
pub fn read_session(dir: &Path, cfg: JournalConfig) -> io::Result<Option<RecoveredSession>> {
    Ok(SessionJournal::open(dir, cfg)?.map(|(_, recovered)| recovered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_core::{Confidence, EmprofConfig, StallKind};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emprof-store-session-{}-{}-{tag}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            session_id: 7,
            resume_token: 1234,
            sample_rate_hz: 40e6,
            clock_hz: 1.0e9,
            config: EmprofConfig::for_rates(40e6, 1.0e9),
            device: "t".into(),
        }
    }

    fn ev(i: usize) -> StallEvent {
        StallEvent {
            start_sample: i * 50,
            end_sample: i * 50 + 10,
            duration_cycles: 300.0,
            kind: StallKind::Normal,
            confidence: Confidence::High,
        }
    }

    #[test]
    fn fold_returns_increasing_input_as_it_is() {
        let items: Vec<(u64, char)> = vec![(1, 'a'), (2, 'b'), (7, 'c'), (9, 'd')];
        assert_eq!(fold_by_seq(items.clone()), items);
        assert!(fold_by_seq(Vec::<(u64, char)>::new()).is_empty());
    }

    #[test]
    fn fold_sorts_stably_and_keeps_the_last_copy() {
        for (input, want) in [
            (
                vec![(3, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')],
                vec![(1, 'e'), (2, 'd'), (3, 'c')],
            ),
            // Increasing but not strictly: the repeat still folds.
            (vec![(1, 'a'), (1, 'b'), (2, 'c')], vec![(1, 'b'), (2, 'c')]),
            (vec![(2, 'a'), (1, 'b')], vec![(1, 'b'), (2, 'a')]),
        ] {
            assert_eq!(fold_by_seq(input.clone()), want, "{input:?}");
            assert_eq!(sort_by_seq(input.clone()), want, "{input:?}");
        }
    }

    #[test]
    fn create_append_recover_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut sj = SessionJournal::create(&dir, meta(), JournalConfig::default()).unwrap();
        sj.append_samples(1, &[5.0; 64]).unwrap();
        sj.append_samples(2, &[4.0; 32]).unwrap();
        sj.append_events(1, &[ev(0), ev(1)]).unwrap();
        sj.ack(1).unwrap();
        drop(sj);
        let (sj, rec) = SessionJournal::open(&dir, JournalConfig::default())
            .unwrap()
            .expect("has meta");
        assert_eq!(rec.meta, meta());
        assert_eq!(rec.samples.len(), 2);
        assert_eq!(rec.samples[0], (1, vec![5.0; 64]));
        assert_eq!(rec.samples[1], (2, vec![4.0; 32]));
        assert_eq!(rec.events, vec![(1, ev(0)), (2, ev(1))]);
        assert_eq!(rec.journaled_events, 2);
        assert_eq!(rec.acked_events, 1);
        assert_eq!(rec.acked_samples_seq, 2);
        assert!(rec.finished.is_none());
        assert_eq!(sj.acked_events(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_releases_samples_and_watermark_survives_compaction() {
        let dir = tmp_dir("finish");
        let cfg = JournalConfig {
            segment_bytes: 400,
            sync_on_append: false,
            ..Default::default()
        };
        let mut sj = SessionJournal::create(&dir, meta(), cfg.clone()).unwrap();
        for seq in 1..=20u64 {
            sj.append_samples(seq, &[5.0; 32]).unwrap();
        }
        sj.append_events(1, &[ev(0), ev(1), ev(2)]).unwrap();
        sj.finish(640, 0, 20).unwrap();
        sj.ack(3).unwrap();
        let after = sj.stats();
        assert!(
            after.segments <= 2,
            "acked+finished prefix must compact, still {} segments",
            after.segments
        );
        drop(sj);
        let (_, rec) = SessionJournal::open(&dir, cfg).unwrap().expect("has meta");
        // The sample records are gone but the watermark survives via
        // the Finished record.
        assert_eq!(rec.acked_samples_seq, 20);
        assert_eq!(rec.finished, Some((640, 0)));
        assert_eq!(rec.acked_events, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_keep_rolled_journals_self_describing() {
        let dir = tmp_dir("checkpoint");
        let cfg = JournalConfig {
            segment_bytes: 300,
            sync_on_append: false,
            ..Default::default()
        };
        let mut sj = SessionJournal::create(&dir, meta(), cfg.clone()).unwrap();
        let mut seq = 1u64;
        for _ in 0..30 {
            sj.append_events(seq, &[ev(seq as usize)]).unwrap();
            seq += 1;
            sj.ack(seq - 1).unwrap();
        }
        assert!(sj.stats().segments <= 3, "acked events must compact");
        drop(sj);
        // Despite the compacted prefix, the retained suffix still knows
        // who it is and where the cursor stands.
        let (_, rec) = SessionJournal::open(&dir, cfg).unwrap().expect("has meta");
        assert_eq!(rec.meta, meta());
        assert_eq!(rec.acked_events, seq - 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The segment files of `dir`, by name, with their bytes.
    fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn raw_samples_append_writes_the_bytes_of_the_decoded_append() {
        // Bit patterns a lossy re-encode would not keep: NaNs with
        // payloads, both zeros, subnormals, infinities. Small segments
        // make both journals roll and write footers and checkpoints.
        let odd = [
            f64::from_bits(0x7ff8_0000_0000_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 8.0,
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let batch = |seq: u64| -> Vec<f64> {
            let n = (seq as usize * 7) % 40;
            let mut s: Vec<f64> = (0..n)
                .map(|i| 5.0 - (seq as usize + i) as f64 / 16.0)
                .collect();
            s.extend_from_slice(&odd[..seq as usize % (odd.len() + 1)]);
            s
        };
        let cfg = JournalConfig {
            segment_bytes: 700,
            ..Default::default()
        };
        let (decoded, raw) = (tmp_dir("decoded"), tmp_dir("raw"));
        let mut a = SessionJournal::create(&decoded, meta(), cfg.clone()).unwrap();
        let mut b = SessionJournal::create(&raw, meta(), cfg).unwrap();
        for seq in 1..=24u64 {
            let samples = batch(seq);
            a.append_samples(seq, &samples).unwrap();
            let mut payload = Vec::new();
            crate::codec::put_samples(&mut payload, seq, &samples);
            b.append_samples_raw(&payload, crate::crc32(&payload))
                .unwrap();
            if seq % 5 == 0 {
                a.append_events(seq, &[ev(seq as usize)]).unwrap();
                b.append_events(seq, &[ev(seq as usize)]).unwrap();
            }
        }
        drop((a, b));
        let files = segment_files(&decoded);
        assert!(files.len() > 2, "the journals must roll");
        assert_eq!(files, segment_files(&raw));
        fs::remove_dir_all(&decoded).unwrap();
        fs::remove_dir_all(&raw).unwrap();
    }

    #[test]
    fn raw_samples_append_refuses_a_payload_that_is_not_one_batch() {
        let dir = tmp_dir("raw-bad");
        let mut sj = SessionJournal::create(&dir, meta(), JournalConfig::default()).unwrap();
        let mut payload = Vec::new();
        crate::codec::put_samples(&mut payload, 1, &[1.0, 2.0]);
        for bad in [&payload[..payload.len() - 1], &[0u8; 5][..]] {
            let err = sj.append_samples_raw(bad, crate::crc32(bad)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        let mut long = payload.clone();
        long.push(0);
        let err = sj
            .append_samples_raw(&long, crate::crc32(&long))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_without_meta_is_discarded() {
        let dir = tmp_dir("nometa");
        // A bare journal with no Meta record (not created through
        // SessionJournal::create).
        let mut j = Journal::open(&dir).unwrap().journal;
        j.append(&Record::Cursor { acked_events: 3 }).unwrap();
        drop(j);
        assert!(SessionJournal::open(&dir, JournalConfig::default())
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
