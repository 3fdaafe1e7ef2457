//! The journal: an append-only sequence of records spread over
//! segments in one directory, with torn-write recovery on open and
//! whole-segment compaction.
//!
//! ## Recovery rules
//!
//! [`Journal::open`] never panics and never refuses a damaged journal;
//! it recovers the **longest valid prefix**:
//!
//! 1. Segment files are ordered by base index. A file whose header is
//!    invalid, or whose header disagrees with its file name, ends the
//!    prefix (it and everything after it is deleted).
//! 2. Within a segment, records are validated front to back; the first
//!    truncated, oversized, or CRC-corrupt frame ends the prefix. The
//!    file is truncated back to the last valid record and every later
//!    segment is deleted.
//! 3. Appending resumes immediately after the recovered prefix.
//!
//! ## Compaction
//!
//! Deletion is whole-segment and prefix-only: [`Journal::compact`]
//! removes sealed segments from the front while every event they hold
//! is at or below the acknowledged cursor (and, unless the caller says
//! sample records are released, while they hold no samples). Callers
//! re-write their checkpoint records at every segment roll, so the
//! retained suffix is always self-describing.

use std::fs;
use std::io::{self, IoSlice, Write};
use std::path::{Path, PathBuf};

use emprof_obs as obs;

use crate::codec;
use crate::record::{Record, RecordKind, SegmentFooter};
use crate::segment::{
    encode_segment_header, parse_segment_file_name, raw_record_header, scan_segment,
    segment_file_name, write_record_frame, SEGMENT_HEADER_LEN,
};

/// Journal tuning knobs.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Target segment size; a segment that grows past this is sealed
    /// and a new one started at the next append.
    pub segment_bytes: u64,
    /// Fsync after every append. Off by default: the exactly-once
    /// guarantee targets process crashes and restarts, not power loss;
    /// callers that need power-loss durability can also call
    /// [`Journal::sync`] at their own barriers.
    pub sync_on_append: bool,
    /// Write a [`SegmentFooter`] statistics record as the last frame of
    /// every segment sealed by [`Journal::roll`]. On by default; off
    /// produces footer-less segments identical to the legacy format
    /// (used by tests that pin exact record sequences, and a knob for
    /// byte-compatible downgrades).
    pub write_footers: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_bytes: 4 << 20,
            sync_on_append: false,
            write_footers: true,
        }
    }
}

/// What [`Journal::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files kept after recovery.
    pub segments: usize,
    /// Records in the recovered prefix.
    pub records: u64,
    /// Torn tails repaired (files truncated back to a valid record).
    pub truncations: u32,
    /// Bytes discarded by truncation.
    pub truncated_bytes: u64,
    /// Whole segment files discarded (invalid header, or past a torn
    /// segment).
    pub dropped_segments: usize,
    /// Of the dropped segments, those discarded because their base
    /// index duplicated or overlapped an earlier segment's index range
    /// (e.g. `seg-1.emj` sitting next to its zero-padded twin) — named
    /// corruption rather than a silently mis-ordered replay.
    pub overlapping_segments: usize,
}

/// In-memory summary of one segment, maintained at append time and
/// rebuilt by the recovery scan — this is what makes compaction
/// decisions O(segments) instead of O(bytes).
#[derive(Debug, Clone)]
struct SegmentInfo {
    path: PathBuf,
    bytes: u64,
    records: u64,
    /// Whether the segment holds any sample records (pins it until the
    /// session is finished).
    has_samples: bool,
    /// Running footer statistics (event range, counts); written to disk
    /// as the segment's [`SegmentFooter`] when it is sealed.
    stats: SegmentFooter,
}

impl SegmentInfo {
    fn note_record(&mut self, rec: &Record, frame_len: u64) {
        self.bytes += frame_len;
        self.records += 1;
        self.stats.note(rec);
        if matches!(rec, Record::Samples { .. }) {
            self.has_samples = true;
        }
    }

    fn note_samples(&mut self, count: usize, frame_len: u64) {
        self.bytes += frame_len;
        self.records += 1;
        self.stats.note_samples(count);
        self.has_samples = true;
    }
}

/// Point-in-time size accounting for telemetry and the inspect verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Segment files on disk (sealed + active).
    pub segments: usize,
    /// Total journal bytes on disk.
    pub bytes: u64,
    /// Index the next appended record will get.
    pub next_index: u64,
}

/// The result of opening (and recovering) a journal directory.
#[derive(Debug)]
pub struct Recovered {
    /// The journal, positioned to append after the recovered prefix.
    pub journal: Journal,
    /// What recovery found and repaired.
    pub report: RecoveryReport,
    /// Every recovered record with its journal index, in order.
    pub records: Vec<(u64, Record)>,
}

/// A segmented append-only record journal in one directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    cfg: JournalConfig,
    sealed: Vec<SegmentInfo>,
    active: SegmentInfo,
    writer: fs::File,
    next_index: u64,
    /// Reused frame buffer: each append encodes its frame here and
    /// writes it with one call, so steady-state appends allocate
    /// nothing.
    frame: Vec<u8>,
}

impl Journal {
    /// Opens (creating if absent) the journal in `dir` with default
    /// knobs, recovering the longest valid prefix. See the module docs
    /// for the recovery rules.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (directory creation, reads, truncation);
    /// corruption is repaired, not reported as an error.
    pub fn open(dir: &Path) -> io::Result<Recovered> {
        Self::open_with(dir, JournalConfig::default())
    }

    /// [`Journal::open`] with explicit [`JournalConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As [`Journal::open`].
    pub fn open_with(dir: &Path, cfg: JournalConfig) -> io::Result<Recovered> {
        fs::create_dir_all(dir)?;
        let mut names: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            // Only regular files can be segments; journal directories
            // legitimately hold other droppings (flight-recorder dumps,
            // editor temp files, subdirectories) that must not be
            // mistaken for — or deleted as — corrupt segments.
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(base) = parse_segment_file_name(name) {
                names.push((base, entry.path()));
            }
        }
        names.sort_by_key(|&(base, _)| base);

        let mut report = RecoveryReport::default();
        let mut records: Vec<(u64, Record)> = Vec::new();
        let mut segments: Vec<SegmentInfo> = Vec::new();
        let mut next_index = 0u64;
        let mut last_base: Option<u64> = None;
        let mut broken = false;
        for (file_base, path) in names {
            if broken {
                // Everything past the first anomaly is outside the
                // valid prefix.
                fs::remove_file(&path)?;
                report.dropped_segments += 1;
                continue;
            }
            if last_base == Some(file_base) {
                // Two file names parsing to the same base (`seg-1.emj`
                // beside its zero-padded twin): keeping both would
                // replay the same index range twice, so this is named
                // corruption, not a quiet mis-ordering.
                fs::remove_file(&path)?;
                report.dropped_segments += 1;
                report.overlapping_segments += 1;
                broken = true;
                continue;
            }
            last_base = Some(file_base);
            let scan = scan_segment(&path)?;
            let valid = scan.as_ref().is_some_and(|s| s.base_index == file_base);
            let Some(scan) = scan.filter(|_| valid) else {
                fs::remove_file(&path)?;
                report.dropped_segments += 1;
                broken = true;
                continue;
            };
            if scan.base_index < next_index {
                // The header claims an index range an earlier segment
                // already covers — overlapping coverage is the same
                // named corruption as a duplicate base.
                fs::remove_file(&path)?;
                report.dropped_segments += 1;
                report.overlapping_segments += 1;
                broken = true;
                continue;
            }
            if scan.torn {
                let on_disk = fs::metadata(&path)?.len();
                report.truncated_bytes += on_disk.saturating_sub(scan.valid_len);
                let f = fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
                f.sync_data()?;
                report.truncations += 1;
                broken = true;
            }
            let mut info = SegmentInfo {
                path: path.clone(),
                bytes: scan.valid_len,
                records: 0,
                has_samples: false,
                stats: SegmentFooter::empty(),
            };
            for (_, rec) in &scan.records {
                // Re-derive the per-record accounting without re-sizing
                // the actual frames: bytes already counted via valid_len.
                info.records += 1;
                info.stats.note(rec);
                if matches!(rec, Record::Samples { .. }) {
                    info.has_samples = true;
                }
            }
            next_index = scan.base_index + scan.records.len() as u64;
            report.records += scan.records.len() as u64;
            records.extend(scan.records);
            segments.push(info);
        }

        let active = match segments.pop() {
            Some(info) => info,
            None => {
                // Fresh (or fully discarded) journal: start a segment.
                let info = new_segment(dir, next_index)?;
                obs::counter_add!("store.segments_created", 1);
                info
            }
        };
        let writer = fs::OpenOptions::new().append(true).open(&active.path)?;
        report.segments = segments.len() + 1;
        if report.truncations > 0 {
            obs::counter_add!("store.recovered_truncations", report.truncations as u64);
        }
        let journal = Journal {
            dir: dir.to_path_buf(),
            cfg,
            sealed: segments,
            active,
            writer,
            next_index,
            frame: Vec::new(),
        };
        Ok(Recovered {
            journal,
            report,
            records,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index the next appended record will get.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Size accounting across all segments.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            segments: self.sealed.len() + 1,
            bytes: self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active.bytes,
            next_index: self.next_index,
        }
    }

    /// Whether the active segment has outgrown the roll target. Callers
    /// that write checkpoint records should check this *before* an
    /// append, [`Journal::roll`], write their checkpoint, then append.
    pub fn would_roll(&self) -> bool {
        self.active.records > 0 && self.active.bytes >= self.cfg.segment_bytes
    }

    /// Seals the active segment and starts a new one.
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn roll(&mut self) -> io::Result<()> {
        if self.cfg.write_footers && self.active.records > 0 {
            // Seal the segment with its statistics footer so range
            // queries can skip folding it. The footer
            // is an ordinary CRC-framed record: legacy readers scan
            // straight over it, and SegmentFooter::note ignores footer
            // records, so its statistics describe only the data frames.
            let footer = Record::Footer(self.active.stats);
            self.append(&footer)?;
        }
        self.writer.flush()?;
        let info = new_segment(&self.dir, self.next_index)?;
        obs::counter_add!("store.segments_created", 1);
        self.writer = fs::OpenOptions::new().append(true).open(&info.path)?;
        let sealed = std::mem::replace(&mut self.active, info);
        self.sealed.push(sealed);
        Ok(())
    }

    /// Appends one record, returning its journal index.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the record is not counted on failure
    /// (the torn bytes, if any, are repaired by the next open).
    pub fn append(&mut self, rec: &Record) -> io::Result<u64> {
        let index =
            self.write_frame(|f| write_record_frame(f, rec.kind(), |p| rec.encode_into(p)))?;
        self.active.note_record(rec, self.frame.len() as u64);
        Ok(index)
    }

    /// Appends a [`Record::Samples`] record encoded straight from the
    /// borrowed `samples`: the same bytes as [`Journal::append`] of the
    /// owned record, without first copying the batch into one.
    ///
    /// # Errors
    ///
    /// As [`Journal::append`].
    pub fn append_samples(&mut self, seq: u64, samples: &[f64]) -> io::Result<u64> {
        let index = self.write_frame(|f| {
            write_record_frame(f, RecordKind::Samples, |p| {
                codec::put_samples(p, seq, samples)
            });
        })?;
        self.active
            .note_samples(samples.len(), self.frame.len() as u64);
        Ok(index)
    }

    /// Appends a [`Record::Samples`] record from its encoded payload —
    /// a SAMPLES wire payload is exactly that encoding — and the
    /// payload's CRC-32, as the wire carried and verified them: the
    /// payload bytes are written as they are, from the caller's buffer
    /// in one vectored write behind the record header, and not hashed
    /// again. The record on disk is byte-identical to
    /// [`Journal::append_samples`] of the decoded batch.
    ///
    /// `payload_crc` must be `crc32(payload)`; a wrong one writes a
    /// record that the next open discards as a torn tail.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `payload` is not one encoded
    /// batch of at most [`crate::record::MAX_SAMPLES_PER_RECORD`] samples;
    /// otherwise as [`Journal::append`].
    pub fn append_samples_raw(&mut self, payload: &[u8], payload_crc: u32) -> io::Result<u64> {
        let count = Record::samples_payload(payload)
            .map(|(_, raw)| raw.len() / 8)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let header = raw_record_header(RecordKind::Samples, payload, payload_crc);
        write_all_vectored(
            &mut self.writer,
            &mut [IoSlice::new(&header), IoSlice::new(payload)],
        )?;
        let len = (header.len() + payload.len()) as u64;
        let index = self.appended(len)?;
        self.active.note_samples(count, len);
        Ok(index)
    }

    /// Builds one frame into the reused buffer with `frame` and writes
    /// it; the caller notes the record into the active segment's
    /// accounting.
    fn write_frame(&mut self, frame: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        self.frame.clear();
        frame(&mut self.frame);
        self.writer.write_all(&self.frame)?;
        self.appended(self.frame.len() as u64)
    }

    /// Completes an append of `len` frame bytes already written: syncs
    /// under [`JournalConfig::sync_on_append`], and hands out the
    /// record's index.
    fn appended(&mut self, len: u64) -> io::Result<u64> {
        if self.cfg.sync_on_append {
            self.writer.sync_data()?;
        }
        let index = self.next_index;
        self.next_index += 1;
        obs::counter_add!("store.appends", 1);
        obs::counter_add!("store.bytes_written", len);
        Ok(index)
    }

    /// Flushes and fsyncs the active segment.
    ///
    /// # Errors
    ///
    /// Propagates flush/sync failures.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.sync_data()
    }

    /// Deletes sealed segments from the front while every event they
    /// hold is at or below `acked_event_seq` — and, unless
    /// `samples_released`, while they hold no sample records (samples
    /// pin their segment until the session's detector is finalized,
    /// because recovery rebuilds the detector from them). Returns how
    /// many segments were deleted.
    ///
    /// # Errors
    ///
    /// Propagates file deletion failures.
    pub fn compact(&mut self, acked_event_seq: u64, samples_released: bool) -> io::Result<usize> {
        let mut deletable = 0;
        for info in &self.sealed {
            let events_done = info.stats.max_event_seq <= acked_event_seq;
            let samples_ok = samples_released || !info.has_samples;
            if events_done && samples_ok {
                deletable += 1;
            } else {
                break;
            }
        }
        for info in self.sealed.drain(..deletable) {
            fs::remove_file(&info.path)?;
        }
        if deletable > 0 {
            obs::counter_add!("store.compactions", deletable as u64);
        }
        Ok(deletable)
    }
}

/// Writes all of `bufs` to `w`, in order, with as few vectored writes
/// as `w` takes them in.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Creates the segment file for `base_index` holding its header.
///
/// The header is not synced. Under the default contract (process
/// crashes, not power loss; see [`JournalConfig::sync_on_append`]) the
/// page cache already holds it. Under `sync_on_append` the segment's
/// first append syncs the whole file, header included, before that
/// record is acknowledged. Either way no acknowledged record's
/// durability depends on a sync here: a header lost to power loss
/// before any append leaves an invalid last segment with nothing in it,
/// which recovery drops.
fn new_segment(dir: &Path, base_index: u64) -> io::Result<SegmentInfo> {
    let path = dir.join(segment_file_name(base_index));
    let mut f = fs::File::create(&path)?;
    f.write_all(&encode_segment_header(base_index))?;
    Ok(SegmentInfo {
        path,
        bytes: SEGMENT_HEADER_LEN as u64,
        records: 0,
        has_samples: false,
        stats: SegmentFooter::empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::encode_record_frame;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emprof-store-journal-{}-{}-{tag}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cursor(n: u64) -> Record {
        Record::Cursor { acked_events: n }
    }

    fn events(first_seq: u64, n: usize) -> Record {
        use emprof_core::{Confidence, StallEvent, StallKind};
        Record::Events {
            first_seq,
            events: (0..n)
                .map(|i| StallEvent {
                    start_sample: i * 100,
                    end_sample: i * 100 + 10,
                    duration_cycles: 250.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::High,
                })
                .collect(),
        }
    }

    #[test]
    fn append_close_reopen_replays_identically() {
        let dir = tmp_dir("reopen");
        let mut j = Journal::open(&dir).unwrap().journal;
        let recs = vec![cursor(1), events(1, 3), cursor(3)];
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(j.append(r).unwrap(), i as u64);
        }
        drop(j);
        let rec = Journal::open(&dir).unwrap();
        assert_eq!(rec.report.truncations, 0);
        assert_eq!(rec.report.records, 3);
        let got: Vec<Record> = rec.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, recs);
        assert_eq!(rec.journal.next_index(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn borrowed_samples_append_writes_the_owned_record_bytes() {
        let samples = [5.0, -0.0, f64::NAN, 0.8, f64::NEG_INFINITY];
        let owned = Record::Samples {
            seq: 9,
            samples: samples.to_vec(),
        };
        let (da, db) = (tmp_dir("borrowed-a"), tmp_dir("borrowed-b"));
        let mut a = Journal::open(&da).unwrap().journal;
        let mut b = Journal::open(&db).unwrap().journal;
        for _ in 0..3 {
            a.append(&owned).unwrap();
            b.append_samples(9, &samples).unwrap();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.active.stats, b.active.stats);
        assert_eq!(a.active.has_samples, b.active.has_samples);
        let seg = segment_file_name(0);
        assert_eq!(
            fs::read(da.join(&seg)).unwrap(),
            fs::read(db.join(&seg)).unwrap()
        );
        fs::remove_dir_all(&da).unwrap();
        fs::remove_dir_all(&db).unwrap();
    }

    /// A writer that takes at most `max` bytes per call, and fails every
    /// other call with `Interrupted`.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.max - n);
                self.out.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_writes_resume_after_short_and_interrupted_writes() {
        let (head, body) = ([1u8, 2, 3, 4, 5, 6, 7, 8, 9], [10u8; 40]);
        for max in [1, 4, 9, 10, 49, 64] {
            let mut w = Trickle {
                out: Vec::new(),
                max,
                calls: 0,
            };
            write_all_vectored(&mut w, &mut [IoSlice::new(&head), IoSlice::new(&body)]).unwrap();
            assert_eq!(w.out, [&head[..], &body[..]].concat(), "max {max}");
        }
    }

    #[test]
    fn rolls_at_segment_target_and_replays_across_segments() {
        let dir = tmp_dir("roll");
        let cfg = JournalConfig {
            segment_bytes: 256,
            sync_on_append: false,
            // Pinning the exact record sequence: no interleaved footers.
            write_footers: false,
        };
        let mut j = Journal::open_with(&dir, cfg.clone()).unwrap().journal;
        for i in 0..50 {
            if j.would_roll() {
                j.roll().unwrap();
            }
            j.append(&cursor(i)).unwrap();
        }
        assert!(j.stats().segments > 1, "segment target must force rolls");
        drop(j);
        let rec = Journal::open_with(&dir, cfg).unwrap();
        assert_eq!(rec.report.records, 50);
        for (i, (idx, r)) in rec.records.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*r, cursor(i as u64));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_append_resumes() {
        let dir = tmp_dir("torn");
        let mut j = Journal::open(&dir).unwrap().journal;
        for i in 0..5 {
            j.append(&cursor(i)).unwrap();
        }
        let path = j.active.path.clone();
        drop(j);
        // Tear the last record.
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let rec = Journal::open(&dir).unwrap();
        assert_eq!(rec.report.truncations, 1);
        assert_eq!(rec.report.records, 4);
        assert_eq!(rec.journal.next_index(), 4);
        let mut j = rec.journal;
        j.append(&cursor(99)).unwrap();
        drop(j);
        let rec = Journal::open(&dir).unwrap();
        assert_eq!(rec.report.records, 5);
        assert_eq!(rec.records.last().unwrap().1, cursor(99));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_after_a_torn_one_are_dropped() {
        let dir = tmp_dir("cascade");
        let cfg = JournalConfig {
            segment_bytes: 128,
            sync_on_append: false,
            write_footers: false,
        };
        let mut j = Journal::open_with(&dir, cfg.clone()).unwrap().journal;
        for i in 0..40 {
            if j.would_roll() {
                j.roll().unwrap();
            }
            j.append(&cursor(i)).unwrap();
        }
        assert!(j.stats().segments >= 3);
        let first_sealed = j.sealed[0].clone();
        drop(j);
        // Corrupt a record in the FIRST segment: every later segment is
        // outside the valid prefix and must go.
        let mut bytes = fs::read(&first_sealed.path).unwrap();
        let off = SEGMENT_HEADER_LEN + 12;
        bytes[off] ^= 0xff;
        fs::write(&first_sealed.path, &bytes).unwrap();
        let rec = Journal::open_with(&dir, cfg).unwrap();
        assert!(rec.report.dropped_segments >= 2);
        assert!(rec.report.records < 40);
        // The recovered prefix is still a clean 0..n run.
        for (i, (idx, r)) in rec.records.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*r, cursor(i as u64));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_deletes_acked_prefix_only() {
        let dir = tmp_dir("compact");
        let cfg = JournalConfig {
            segment_bytes: 200,
            sync_on_append: false,
            ..Default::default()
        };
        let mut j = Journal::open_with(&dir, cfg.clone()).unwrap().journal;
        let mut seq = 1u64;
        for _ in 0..12 {
            if j.would_roll() {
                j.roll().unwrap();
            }
            j.append(&events(seq, 2)).unwrap();
            seq += 2;
        }
        let before = j.stats();
        assert!(before.segments > 2);
        // Nothing acked: nothing to delete.
        assert_eq!(j.compact(0, true).unwrap(), 0);
        // Ack everything: every sealed segment goes, the active stays.
        let deleted = j.compact(seq, true).unwrap();
        assert!(deleted > 0);
        let after = j.stats();
        assert_eq!(after.segments, 1);
        assert!(after.bytes < before.bytes);
        // The journal still appends and reopens cleanly.
        j.append(&events(seq, 1)).unwrap();
        drop(j);
        let rec = Journal::open_with(&dir, cfg).unwrap();
        assert_eq!(rec.report.truncations, 0);
        assert!(!rec.records.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roll_writes_footer_and_recovery_replays_through_it() {
        use crate::segment::read_segment_footer;
        let dir = tmp_dir("footer");
        let mut j = Journal::open(&dir).unwrap().journal;
        j.append(&events(1, 3)).unwrap();
        j.append(&cursor(3)).unwrap();
        let sealed_path = j.active.path.clone();
        j.roll().unwrap();
        let footer = read_segment_footer(&sealed_path)
            .unwrap()
            .expect("sealed segment carries a footer");
        assert_eq!(footer.record_count, 2);
        assert_eq!(footer.event_count, 3);
        assert_eq!((footer.min_event_seq, footer.max_event_seq), (1, 3));
        assert_eq!((footer.min_event_start, footer.max_event_end), (0, 210));
        // The active segment has no footer yet.
        assert_eq!(read_segment_footer(&j.active.path).unwrap(), None);
        j.append(&cursor(4)).unwrap();
        drop(j);
        // Recovery replays through the footer record; the fold layers
        // above skip it, but indexes stay contiguous.
        let rec = Journal::open(&dir).unwrap();
        assert_eq!(rec.report.truncations, 0);
        assert_eq!(rec.report.records, 4);
        assert!(matches!(rec.records[2].1, Record::Footer(_)));
        assert_eq!(rec.records[3], (3, cursor(4)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_segment_files_are_left_alone() {
        let dir = tmp_dir("droppings");
        let mut j = Journal::open(&dir).unwrap().journal;
        j.append(&cursor(1)).unwrap();
        drop(j);
        // Flight dumps and editor droppings share the directory.
        fs::write(dir.join("flight-session-7.json"), b"{}").unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        fs::create_dir_all(dir.join(segment_file_name(999))).unwrap();
        let rec = Journal::open(&dir).unwrap();
        assert_eq!(rec.report.dropped_segments, 0);
        assert_eq!(rec.report.records, 1);
        assert!(dir.join("flight-session-7.json").exists());
        assert!(dir.join("notes.txt").exists());
        assert!(dir.join(segment_file_name(999)).is_dir());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_and_overlapping_bases_are_named_corruption() {
        let dir = tmp_dir("dupes");
        let mut j = Journal::open(&dir).unwrap().journal;
        for i in 0..3 {
            j.append(&cursor(i)).unwrap();
        }
        drop(j);
        // A non-zero-padded twin of the first segment parses to the
        // same base index.
        let canonical = dir.join(segment_file_name(0));
        fs::copy(&canonical, dir.join("seg-0.emj")).unwrap();
        let rec = Journal::open(&dir).unwrap();
        assert_eq!(rec.report.overlapping_segments, 1);
        assert_eq!(rec.report.records, 3, "one copy of the range survives");
        drop(rec);

        // A later file whose header overlaps covered indexes.
        let dir2 = tmp_dir("overlap");
        let mut j = Journal::open(&dir2).unwrap().journal;
        for i in 0..3 {
            j.append(&cursor(i)).unwrap();
        }
        drop(j);
        // Segment claiming base 1 while indexes 0..3 are already
        // covered by seg-0.
        let twin = dir2.join(segment_file_name(1));
        let mut f = fs::File::create(&twin).unwrap();
        use std::io::Write as _;
        f.write_all(&encode_segment_header(1)).unwrap();
        f.write_all(&encode_record_frame(&cursor(77))).unwrap();
        drop(f);
        let rec = Journal::open(&dir2).unwrap();
        assert_eq!(rec.report.overlapping_segments, 1);
        assert_eq!(rec.report.records, 3);
        assert!(!twin.exists(), "overlapping segment is quarantined out");
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn samples_pin_their_segment_until_released() {
        let dir = tmp_dir("pin");
        let cfg = JournalConfig {
            segment_bytes: 100,
            sync_on_append: false,
            ..Default::default()
        };
        let mut j = Journal::open_with(&dir, cfg).unwrap().journal;
        j.append(&Record::Samples {
            seq: 1,
            samples: vec![5.0; 16],
        })
        .unwrap();
        j.roll().unwrap();
        j.append(&cursor(1)).unwrap();
        assert_eq!(j.compact(u64::MAX, false).unwrap(), 0, "samples pin");
        assert_eq!(
            j.compact(u64::MAX, true).unwrap(),
            1,
            "released after finish"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
