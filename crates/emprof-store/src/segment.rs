//! On-disk segment format: a fixed header followed by CRC-framed
//! records.
//!
//! ```text
//! segment header (24 bytes)
//!   offset  size  field
//!   0       8     magic            b"EMPROFJ1"
//!   8       4     format version   (currently 1)
//!   12      8     base index       journal index of the first record
//!   20      4     header CRC-32    over bytes 0..20
//!
//! record frame (9-byte header + payload)
//!   offset  size  field
//!   0       4     payload length   bounded by MAX_RECORD
//!   4       1     record kind      (RecordKind)
//!   5       4     CRC-32           over the kind byte + payload
//!   9       len   payload
//! ```
//!
//! Scanning validates the header, then walks records front to back.
//! The first frame that is truncated, oversized, or CRC-corrupt ends
//! the valid prefix: everything before it is intact (CRC-verified),
//! everything from it on is treated as a torn write. Scanning never
//! panics and allocates at most one bounded payload at a time beyond
//! the file read itself.

use std::fs;
use std::io;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::crc::{crc32, Crc32};
use crate::record::{Record, RecordKind, SegmentFooter, FOOTER_PAYLOAD_LEN};

/// First eight bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"EMPROFJ1";

/// On-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed segment-header length in bytes.
pub const SEGMENT_HEADER_LEN: usize = 24;

/// Fixed record-frame header length in bytes.
pub const RECORD_HEADER_LEN: usize = 9;

/// Upper bound on any record payload (16 MiB). A frame announcing more
/// is corruption by definition and ends the valid prefix.
pub const MAX_RECORD: u32 = 1 << 24;

/// Builds the canonical file name for a segment.
pub fn segment_file_name(base_index: u64) -> String {
    format!("seg-{base_index:020}.emj")
}

/// Parses a segment file name back to its base index.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".emj")?
        .parse()
        .ok()
}

/// Serializes a segment header for `base_index`.
pub fn encode_segment_header(base_index: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&base_index.to_le_bytes());
    let crc = crc32(&h[..20]);
    h[20..24].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validates a segment header, returning its base index.
pub fn decode_segment_header(h: &[u8]) -> Option<u64> {
    if h.len() < SEGMENT_HEADER_LEN || h[0..8] != SEGMENT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(h[8..12].try_into().unwrap()) != FORMAT_VERSION {
        return None;
    }
    if u32::from_le_bytes(h[20..24].try_into().unwrap()) != crc32(&h[..20]) {
        return None;
    }
    Some(u64::from_le_bytes(h[12..20].try_into().unwrap()))
}

/// The CRC-32 a record frame carries: over its kind byte, then its
/// payload, fed incrementally so neither is copied.
fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(payload);
    crc.finish()
}

/// Appends one record frame to `out`: `payload` writes the payload
/// bytes straight into `out` after a reserved frame header, which is
/// then filled in. The frame buffer is the only copy of the payload.
pub(crate) fn write_record_frame(
    out: &mut Vec<u8>,
    kind: RecordKind,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let at = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    payload(out);
    let body = &out[at + RECORD_HEADER_LEN..];
    debug_assert!(body.len() <= MAX_RECORD as usize, "record too large");
    let len = body.len() as u32;
    let crc = frame_crc(kind as u8, body);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4] = kind as u8;
    out[at + 5..at + RECORD_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Serializes one record frame (header + payload) ready to append.
pub fn encode_record_frame(rec: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    write_record_frame(&mut out, rec.kind(), |p| rec.encode_into(p));
    out
}

/// The outcome of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// The header's base index.
    pub base_index: u64,
    /// Every CRC-valid record, paired with its journal index.
    pub records: Vec<(u64, Record)>,
    /// Byte offset of the end of the last valid record — the length the
    /// file must be truncated to if `torn` is set.
    pub valid_len: u64,
    /// Whether a torn or corrupt tail was found past `valid_len`.
    pub torn: bool,
}

/// Scans a segment file, validating the header and every record frame.
/// Returns `None` when the header itself is invalid (the whole file is
/// unusable — a torn header write or foreign file).
///
/// # Errors
///
/// Propagates I/O failures reading the file; corruption is *not* an
/// error, it shortens the valid prefix instead.
pub fn scan_segment(path: &Path) -> io::Result<Option<SegmentScan>> {
    let bytes = fs::read(path)?;
    let Some(base_index) = decode_segment_header(&bytes) else {
        return Ok(None);
    };
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    let mut index = base_index;
    let mut torn = false;
    loop {
        if pos == bytes.len() {
            break;
        }
        if pos + RECORD_HEADER_LEN > bytes.len() {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let kind = bytes[pos + 4];
        let crc = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap());
        if len > MAX_RECORD {
            torn = true;
            break;
        }
        let Some(end) = (pos + RECORD_HEADER_LEN).checked_add(len as usize) else {
            torn = true;
            break;
        };
        if end > bytes.len() {
            torn = true;
            break;
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..end];
        if frame_crc(kind, payload) != crc {
            torn = true;
            break;
        }
        let Ok(rec) = Record::decode(kind, payload) else {
            // CRC-valid but undecodable: a format mismatch, treated the
            // same as corruption for recovery (prefix ends here).
            torn = true;
            break;
        };
        records.push((index, rec));
        index += 1;
        pos = end;
    }
    Ok(Some(SegmentScan {
        base_index,
        records,
        valid_len: pos as u64,
        torn,
    }))
}

/// Fetches a sealed segment's statistics footer in O(1): two fixed-size
/// reads (header, tail) instead of a full scan.
///
/// Returns `Ok(None)` — "no usable footer, fall back to scanning" — in
/// every non-I/O failure mode: a footer-less legacy segment, a segment
/// still being appended to (the footer is only the *last* frame of a
/// sealed segment; anything appended after a stale footer displaces it
/// from the tail), a torn tail, or a corrupt header. Only genuine I/O
/// failures surface as errors.
pub fn read_segment_footer(path: &Path) -> io::Result<Option<SegmentFooter>> {
    let mut f = fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let tail_len = (RECORD_HEADER_LEN + FOOTER_PAYLOAD_LEN) as u64;
    if file_len < SEGMENT_HEADER_LEN as u64 + tail_len {
        return Ok(None);
    }
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    f.read_exact(&mut header)?;
    if decode_segment_header(&header).is_none() {
        return Ok(None);
    }
    f.seek(SeekFrom::End(-(tail_len as i64)))?;
    let mut tail = [0u8; RECORD_HEADER_LEN + FOOTER_PAYLOAD_LEN];
    f.read_exact(&mut tail)?;
    let len = u32::from_le_bytes(tail[0..4].try_into().unwrap());
    let kind = tail[4];
    let crc = u32::from_le_bytes(tail[5..9].try_into().unwrap());
    if len as usize != FOOTER_PAYLOAD_LEN || kind != RecordKind::Footer as u8 {
        return Ok(None);
    }
    let payload = &tail[RECORD_HEADER_LEN..];
    if frame_crc(kind, payload) != crc {
        return Ok(None);
    }
    match Record::decode(kind, payload) {
        Ok(Record::Footer(footer)) => Ok(Some(footer)),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emprof-store-seg-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_segment(path: &Path, base: u64, records: &[Record]) {
        let mut f = fs::File::create(path).unwrap();
        f.write_all(&encode_segment_header(base)).unwrap();
        for r in records {
            f.write_all(&encode_record_frame(r)).unwrap();
        }
    }

    fn cursors(n: u64) -> Vec<Record> {
        (1..=n).map(|i| Record::Cursor { acked_events: i }).collect()
    }

    #[test]
    fn file_names_roundtrip() {
        for base in [0u64, 1, 42, u64::MAX] {
            assert_eq!(parse_segment_file_name(&segment_file_name(base)), Some(base));
        }
        assert_eq!(parse_segment_file_name("seg-x.emj"), None);
        assert_eq!(parse_segment_file_name("other.emj"), None);
    }

    #[test]
    fn clean_segment_scans_fully() {
        let dir = tmp_dir("clean");
        let path = dir.join(segment_file_name(5));
        let recs = cursors(4);
        write_segment(&path, 5, &recs);
        let scan = scan_segment(&path).unwrap().expect("valid header");
        assert_eq!(scan.base_index, 5);
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.records[0].0, 5);
        assert_eq!(scan.records[3].0, 8);
        assert_eq!(scan.valid_len, fs::metadata(&path).unwrap().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_ends_prefix() {
        let dir = tmp_dir("trunc");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(3));
        let full = fs::metadata(&path).unwrap().len();
        // Chop mid-way through the last record.
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert!(scan.valid_len < full - 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_ends_prefix() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(3));
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let second_payload = SEGMENT_HEADER_LEN + (RECORD_HEADER_LEN + 8) + RECORD_HEADER_LEN + 3;
        bytes[second_payload] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1, "only the first record survives");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_rejects_whole_file() {
        let dir = tmp_dir("badhdr");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(2));
        let mut bytes = fs::read(&path).unwrap();
        bytes[13] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(scan_segment(&path).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footer_tail_read_matches_scan() {
        let dir = tmp_dir("footer");
        let path = dir.join(segment_file_name(3));
        let mut recs = cursors(4);
        let mut footer = SegmentFooter::empty();
        for r in &recs {
            footer.note(r);
        }
        recs.push(Record::Footer(footer));
        write_segment(&path, 3, &recs);
        let got = read_segment_footer(&path).unwrap().expect("footer present");
        assert_eq!(got, footer);
        // The footer is an ordinary record to the scanner.
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.last().unwrap().1, Record::Footer(footer));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footer_absent_cases_fall_back_to_scan() {
        let dir = tmp_dir("nofooter");
        // Legacy segment: no footer at all.
        let legacy = dir.join(segment_file_name(0));
        write_segment(&legacy, 0, &cursors(20));
        assert_eq!(read_segment_footer(&legacy).unwrap(), None);
        // Active segment: records appended after a stale footer displace
        // it from the tail.
        let active = dir.join(segment_file_name(1));
        let mut recs = cursors(2);
        recs.push(Record::Footer(SegmentFooter::empty()));
        recs.push(Record::Cursor { acked_events: 99 });
        write_segment(&active, 1, &recs);
        assert_eq!(read_segment_footer(&active).unwrap(), None);
        // Torn tail: last byte chopped breaks the footer CRC.
        let torn = dir.join(segment_file_name(2));
        let mut recs = cursors(1);
        recs.push(Record::Footer(SegmentFooter::empty()));
        write_segment(&torn, 2, &recs);
        let full = fs::metadata(&torn).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&torn).unwrap();
        f.set_len(full - 1).unwrap();
        drop(f);
        assert_eq!(read_segment_footer(&torn).unwrap(), None);
        // Corrupt header: the file is not trusted at all.
        let badhdr = dir.join(segment_file_name(4));
        let mut recs = cursors(1);
        recs.push(Record::Footer(SegmentFooter::empty()));
        write_segment(&badhdr, 4, &recs);
        let mut bytes = fs::read(&badhdr).unwrap();
        bytes[13] ^= 0x01;
        fs::write(&badhdr, &bytes).unwrap();
        assert_eq!(read_segment_footer(&badhdr).unwrap(), None);
        // Tiny file: shorter than header + footer frame.
        let tiny = dir.join(segment_file_name(5));
        fs::write(&tiny, b"short").unwrap();
        assert_eq!(read_segment_footer(&tiny).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_length_field_is_corruption() {
        let dir = tmp_dir("oversz");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(2));
        let mut bytes = fs::read(&path).unwrap();
        bytes[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + 4]
            .copy_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(scan.torn);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, SEGMENT_HEADER_LEN as u64);
        fs::remove_dir_all(&dir).unwrap();
    }
}
