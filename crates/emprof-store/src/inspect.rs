//! Read-only journal inspection for `emprof journal-inspect`.
//!
//! Unlike [`crate::journal::Journal::open`], inspection never mutates
//! the directory: torn tails are reported, not truncated, and broken
//! segments are reported, not deleted. Safe to run against a journal a
//! live server has open.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::record::{Record, RecordKind, Scanned, SegmentFooter};
use crate::segment::{parse_segment_file_name, scan_segment_with};

/// Health of a segment's statistics footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FooterStatus {
    /// No footer: a footer-less legacy segment or the active segment
    /// (still being appended to). Queries fall back to a full scan.
    Missing,
    /// A footer is present and its statistics match a recount of the
    /// segment's records.
    Ok,
    /// A footer is present but its statistics disagree with the
    /// records it claims to index — range pruning would be unsound.
    Mismatch,
}

/// Per-segment health as found on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentHealth {
    /// Segment file name (`seg-<base>.emj`).
    pub file_name: String,
    /// Base journal index from the file name.
    pub base_index: u64,
    /// File size on disk.
    pub bytes_on_disk: u64,
    /// Length of the CRC-valid record prefix (header included).
    pub valid_bytes: u64,
    /// Whether the segment header itself validated.
    pub header_ok: bool,
    /// Whether bytes past `valid_bytes` exist (torn or corrupt tail).
    pub torn: bool,
    /// Number of valid records.
    pub records: u64,
    /// Valid records by kind:
    /// `[Meta, Samples, Events, Cursor, Finished, Footer]`.
    pub records_by_kind: [u64; 6],
    /// Total samples across valid `Samples` records.
    pub samples_total: u64,
    /// Total events across valid `Events` records.
    pub events_total: u64,
    /// Highest event sequence covered by valid `Events` records.
    pub max_event_seq: u64,
    /// Statistics-footer health (see [`FooterStatus`]).
    pub footer: FooterStatus,
}

/// A whole-journal inspection report.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalInspect {
    /// The inspected directory.
    pub dir: PathBuf,
    /// Segments in base-index order (header-less files sort by name).
    pub segments: Vec<SegmentHealth>,
    /// Directory-level corruption that no single segment can report:
    /// duplicate base indexes (`seg-1.emj` beside its zero-padded
    /// twin) and segments whose index ranges overlap. Replaying such a
    /// directory would silently mis-order records.
    pub anomalies: Vec<String>,
}

impl JournalInspect {
    /// Whether every segment is fully intact and the directory has no
    /// structural anomalies.
    pub fn healthy(&self) -> bool {
        self.anomalies.is_empty()
            && self
                .segments
                .iter()
                .all(|s| s.header_ok && !s.torn && s.footer != FooterStatus::Mismatch)
    }

    /// Total valid records across all segments.
    pub fn records(&self) -> u64 {
        self.segments.iter().map(|s| s.records).sum()
    }
}

/// `rec`'s slot in [`SegmentHealth::records_by_kind`]: on-disk
/// discriminants run 1 to 6 in that order.
fn kind_slot(rec: &Scanned) -> usize {
    let kind = match rec {
        Scanned::Samples(_) => RecordKind::Samples,
        Scanned::Record(rec) => rec.kind(),
    };
    kind as usize - 1
}

/// Walks every `seg-*.emj` regular file in `dir` without modifying
/// anything. Non-segment files (flight-recorder dumps, editor
/// droppings) and subdirectories are skipped, not reported as broken
/// segments.
///
/// # Errors
///
/// Propagates I/O failures reading the directory or its files.
pub fn inspect_dir(dir: &Path) -> io::Result<JournalInspect> {
    let mut named: Vec<(u64, String, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(base) = parse_segment_file_name(&name) {
            named.push((base, name, entry.path()));
        }
    }
    named.sort();
    let mut segments = Vec::with_capacity(named.len());
    for (base, file_name, path) in named {
        let bytes_on_disk = fs::metadata(&path)?.len();
        // Samples are counted from their checked headers, not decoded.
        let health = match scan_segment_with(&path, Scanned::read)? {
            None => SegmentHealth {
                file_name,
                base_index: base,
                bytes_on_disk,
                valid_bytes: 0,
                header_ok: false,
                torn: true,
                records: 0,
                records_by_kind: [0; 6],
                samples_total: 0,
                events_total: 0,
                max_event_seq: 0,
                footer: FooterStatus::Missing,
            },
            Some(scan) => {
                let mut by_kind = [0u64; 6];
                let mut samples_total = 0u64;
                let mut events_total = 0u64;
                let mut max_event_seq = 0u64;
                let mut expected = SegmentFooter::empty();
                for (_, rec) in &scan.records {
                    by_kind[kind_slot(rec)] += 1;
                    match rec {
                        Scanned::Samples(count) => {
                            expected.note_samples(*count);
                            samples_total += *count as u64;
                        }
                        Scanned::Record(rec) => {
                            expected.note(rec);
                            if let Record::Events { first_seq, events } = rec {
                                events_total += events.len() as u64;
                                if !events.is_empty() {
                                    max_event_seq =
                                        max_event_seq.max(first_seq + events.len() as u64 - 1);
                                }
                            }
                        }
                    }
                }
                // `note` skips footer records, so `expected` is exactly
                // what the segment's final footer must claim.
                let footer = match scan.records.last() {
                    Some((_, Scanned::Record(Record::Footer(f)))) => {
                        if *f == expected {
                            FooterStatus::Ok
                        } else {
                            FooterStatus::Mismatch
                        }
                    }
                    _ => FooterStatus::Missing,
                };
                SegmentHealth {
                    file_name,
                    base_index: scan.base_index,
                    bytes_on_disk,
                    valid_bytes: scan.valid_len,
                    header_ok: true,
                    torn: scan.torn,
                    records: scan.records.len() as u64,
                    records_by_kind: by_kind,
                    samples_total,
                    events_total,
                    max_event_seq,
                    footer,
                }
            }
        };
        segments.push(health);
    }
    let mut anomalies = Vec::new();
    for w in segments.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if b.base_index == a.base_index {
            anomalies.push(format!(
                "duplicate base index {}: {} and {} cover the same records",
                a.base_index, a.file_name, b.file_name
            ));
        } else if a.header_ok && b.base_index < a.base_index + a.records {
            anomalies.push(format!(
                "{} overlaps {}: base index {} is below {}'s next free index {}",
                b.file_name,
                a.file_name,
                b.base_index,
                a.file_name,
                a.base_index + a.records
            ));
        }
    }
    Ok(JournalInspect {
        dir: dir.to_path_buf(),
        segments,
        anomalies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emprof-store-inspect-{}-{}-{tag}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn inspect_reports_without_mutating() {
        let dir = tmp_dir("ro");
        let mut j = Journal::open_with(
            &dir,
            JournalConfig {
                segment_bytes: 200,
                sync_on_append: false,
                write_footers: false,
            },
        )
        .unwrap()
        .journal;
        for i in 1..=12u64 {
            if j.would_roll() {
                j.roll().unwrap();
            }
            j.append(&Record::Cursor { acked_events: i }).unwrap();
        }
        drop(j);
        // Tear the last segment's tail.
        let report = inspect_dir(&dir).unwrap();
        let last = report.segments.last().unwrap().file_name.clone();
        let path = dir.join(&last);
        let full = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);

        let before: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), e.metadata().unwrap().len())
            })
            .collect();
        let report = inspect_dir(&dir).unwrap();
        assert!(!report.healthy());
        assert!(report.segments.len() >= 2);
        assert!(report.segments.iter().filter(|s| s.torn).count() == 1);
        assert_eq!(report.records(), 11, "one record lost to the tear");
        let after: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), e.metadata().unwrap().len())
            })
            .collect();
        assert_eq!(before, after, "inspection must not mutate the journal");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_accounting_is_per_segment() {
        let dir = tmp_dir("kinds");
        let mut j = Journal::open(&dir).unwrap().journal;
        j.append(&Record::Samples {
            seq: 1,
            samples: vec![1.0; 10],
        })
        .unwrap();
        j.append(&Record::Cursor { acked_events: 0 }).unwrap();
        drop(j);
        let report = inspect_dir(&dir).unwrap();
        assert!(report.healthy());
        assert_eq!(report.segments.len(), 1);
        let seg = &report.segments[0];
        assert_eq!(seg.records_by_kind, [0, 1, 0, 1, 0, 0]);
        assert_eq!(seg.samples_total, 10);
        assert_eq!(seg.footer, FooterStatus::Missing, "active segment");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footer_health_is_surfaced() {
        let dir = tmp_dir("footerhealth");
        let mut j = Journal::open(&dir).unwrap().journal;
        j.append(&Record::Cursor { acked_events: 1 }).unwrap();
        j.roll().unwrap();
        j.append(&Record::Cursor { acked_events: 2 }).unwrap();
        drop(j);
        let report = inspect_dir(&dir).unwrap();
        assert!(report.healthy());
        assert_eq!(report.segments[0].footer, FooterStatus::Ok);
        assert_eq!(report.segments[0].records_by_kind[5], 1);
        assert_eq!(report.segments[1].footer, FooterStatus::Missing);

        // A footer whose claims disagree with the records is Mismatch.
        use crate::segment::{encode_record_frame, segment_file_name};
        use std::io::Write as _;
        let sealed = dir.join(&report.segments[0].file_name);
        let mut lying = SegmentFooter::empty();
        lying.record_count = 99;
        // Re-write the sealed segment: cursor + lying footer.
        let bytes = fs::read(&sealed).unwrap();
        let header = bytes[..crate::segment::SEGMENT_HEADER_LEN].to_vec();
        let mut f = fs::File::create(dir.join(segment_file_name(0))).unwrap();
        f.write_all(&header).unwrap();
        f.write_all(&encode_record_frame(&Record::Cursor { acked_events: 1 }))
            .unwrap();
        f.write_all(&encode_record_frame(&Record::Footer(lying)))
            .unwrap();
        drop(f);
        let report = inspect_dir(&dir).unwrap();
        assert_eq!(report.segments[0].footer, FooterStatus::Mismatch);
        assert!(!report.healthy());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn droppings_are_skipped_and_duplicates_reported() {
        let dir = tmp_dir("anomalies");
        let mut j = Journal::open(&dir).unwrap().journal;
        for i in 1..=3u64 {
            j.append(&Record::Cursor { acked_events: i }).unwrap();
        }
        drop(j);
        fs::write(dir.join("flight-session-3.json"), b"{}").unwrap();
        fs::write(dir.join("seg-0.emj.swp"), b"vim was here").unwrap();
        fs::create_dir_all(dir.join("nested")).unwrap();
        let report = inspect_dir(&dir).unwrap();
        assert!(report.healthy(), "droppings must not look like segments");
        assert_eq!(report.segments.len(), 1);

        // A duplicate-base twin is a named anomaly, not a mis-ordering.
        use crate::segment::segment_file_name;
        fs::copy(dir.join(segment_file_name(0)), dir.join("seg-0.emj")).unwrap();
        let report = inspect_dir(&dir).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.anomalies.len(), 1);
        assert!(report.anomalies[0].contains("duplicate base index 0"));

        // An overlapping (but not duplicate) base is reported too:
        // seg-0 covers indexes 0..3, a twin claiming base 1 collides.
        fs::remove_file(dir.join("seg-0.emj")).unwrap();
        use crate::segment::{encode_record_frame, encode_segment_header};
        use std::io::Write as _;
        let mut f = fs::File::create(dir.join(segment_file_name(1))).unwrap();
        f.write_all(&encode_segment_header(1)).unwrap();
        f.write_all(&encode_record_frame(&Record::Cursor { acked_events: 9 }))
            .unwrap();
        drop(f);
        let report = inspect_dir(&dir).unwrap();
        assert!(
            report.anomalies.iter().any(|a| a.contains("overlaps")),
            "got {:?}",
            report.anomalies
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
