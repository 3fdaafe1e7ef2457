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
//! panics and reads the file in blocks of 256 KiB, checking records in
//! place, so a walk holds at most a block plus one bounded record.

use std::fs;
use std::io;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::crc::{combine, crc32, Crc32};
use crate::record::{DecodeError, Record, RecordKind, SegmentFooter, FOOTER_PAYLOAD_LEN};

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
fn decode_segment_header(h: &[u8]) -> Option<u64> {
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

/// A record frame's header: payload length, kind byte, then the CRC-32
/// of [`frame_crc`].
fn record_header(len: usize, kind: RecordKind, crc: u32) -> [u8; RECORD_HEADER_LEN] {
    debug_assert!(len <= MAX_RECORD as usize, "record too large");
    let mut h = [0u8; RECORD_HEADER_LEN];
    h[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    h[4] = kind as u8;
    h[5..9].copy_from_slice(&crc.to_le_bytes());
    h
}

/// The `(len, kind, crc)` of the record header `h` starts with, as
/// [`record_header`] writes it; nothing is validated.
fn parse_record_header(h: &[u8]) -> (u32, u8, u32) {
    let le32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    (le32(&h[0..4]), h[4], le32(&h[5..9]))
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
    let header = record_header(body.len(), kind, frame_crc(kind as u8, body));
    out[at..at + RECORD_HEADER_LEN].copy_from_slice(&header);
}

/// The header of the record frame around `payload`, whose CRC-32 the
/// caller already holds: the frame CRC, over the kind byte and then the
/// payload, is derived from it with [`combine`] instead of rehashing the
/// payload. This header followed by `payload` is the frame
/// [`write_record_frame`] writes for the same kind and payload.
pub(crate) fn raw_record_header(
    kind: RecordKind,
    payload: &[u8],
    payload_crc: u32,
) -> [u8; RECORD_HEADER_LEN] {
    debug_assert_eq!(crc32(payload), payload_crc, "payload CRC mismatch");
    let crc = combine(crc32(&[kind as u8]), payload_crc, payload.len());
    record_header(payload.len(), kind, crc)
}

/// Serializes one record frame (header + payload) ready to append.
pub fn encode_record_frame(rec: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    write_record_frame(&mut out, rec.kind(), |p| rec.encode_into(p));
    out
}

/// The outcome of scanning one segment file, its records read as `R`.
#[derive(Debug)]
pub struct SegmentScan<R = Record> {
    /// The header's base index.
    pub base_index: u64,
    /// Every CRC-valid record, paired with its journal index.
    pub records: Vec<(u64, R)>,
    /// Byte offset of the end of the last valid record — the length the
    /// file must be truncated to if `torn` is set.
    pub valid_len: u64,
    /// Whether a torn or corrupt tail was found past `valid_len`.
    pub torn: bool,
}

/// Scans a segment file, validating the header and every record frame.
/// Returns `None` when the header itself is invalid (the whole file is
/// unusable — a torn header write or foreign file). The walk covers the
/// file's length as of the open and holds one block, plus the record
/// that runs over its end, at a time.
///
/// # Errors
///
/// Propagates I/O failures reading the file; corruption is *not* an
/// error, it shortens the valid prefix instead.
pub fn scan_segment(path: &Path) -> io::Result<Option<SegmentScan>> {
    scan_segment_with(path, Record::decode)
}

/// The one frame walk every reader shares: [`scan_segment`] with each
/// CRC-verified payload handed to `read` as `(kind, payload)` instead
/// of [`Record::decode`]. A frame that is truncated, longer than
/// [`MAX_RECORD`] or fails its CRC ends the valid prefix, and so does a
/// frame `read` refuses: a CRC-valid payload that does not decode is a
/// format mismatch, which recovery treats as corruption. So does a file
/// that shrinks mid-walk: the bytes it lost read as a torn tail.
///
/// # Errors
///
/// As [`scan_segment`].
pub(crate) fn scan_segment_with<R>(
    path: &Path,
    read: impl FnMut(u8, &[u8]) -> Result<R, DecodeError>,
) -> io::Result<Option<SegmentScan<R>>> {
    let mut file = fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    scan_frames(&mut file, file_len, SCAN_BLOCK, &mut Vec::new(), read)
}

/// Bytes a segment walk asks for per `read` call: a few record frames
/// of the serve path's 64 KiB sample batches.
pub(crate) const SCAN_BLOCK: usize = 256 << 10;

/// The first `file_len` bytes of a source, read in blocks into one
/// reused buffer: `buf[start..end]` holds the bytes not yet consumed.
struct Blocks<'a, S> {
    src: &'a mut S,
    block: usize,
    buf: &'a mut Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes before `file_len` not yet read from `src`.
    unread: u64,
}

impl<'a, S: Read> Blocks<'a, S> {
    fn new(src: &'a mut S, file_len: u64, block: usize, buf: &'a mut Vec<u8>) -> Self {
        Blocks {
            src,
            block,
            buf,
            start: 0,
            end: 0,
            unread: file_len,
        }
    }

    /// The buffered bytes not yet consumed.
    fn window(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
    }

    /// Makes the window at least `need` bytes long. Once every byte read
    /// is consumed, the next read starts a block at the front of the
    /// buffer. A read fills the block, or goes past its end only as far
    /// as the frame being completed needs: a record that runs over a
    /// block's end, or is larger than a block, is completed in place, so
    /// no byte is moved or read twice, and the buffer stays within a
    /// block plus one record. `false` when the source ends first: a file
    /// that shrank after its length was taken reads short, and the walk
    /// treats the bytes it lost as a torn tail, as it would the tail of
    /// a short whole-file read. Nothing past `file_len` is ever read.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        if self.end - self.start >= need {
            return Ok(true);
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let left = usize::try_from(self.unread).unwrap_or(usize::MAX);
        let stop = (self.start + need)
            .max(self.block)
            .min(self.end.saturating_add(left));
        if stop > self.buf.len() {
            self.buf.reserve_exact(stop - self.buf.len());
            self.buf.resize(stop, 0);
        }
        while self.end - self.start < need {
            match self.src.read(&mut self.buf[self.end..stop]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.end += n;
                    self.unread -= n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// The walk of [`scan_segment_with`] over the first `file_len` bytes of
/// `src`, read `block` bytes at a time into `buf` (whatever it holds is
/// overwritten; it only grows) and checked in place. A length is checked
/// against [`MAX_RECORD`] and the bytes left before the walk waits for
/// it, so the walk holds at most a block plus one record and never reads
/// past `file_len`.
fn scan_frames<R>(
    src: &mut impl Read,
    file_len: u64,
    block: usize,
    buf: &mut Vec<u8>,
    mut read: impl FnMut(u8, &[u8]) -> Result<R, DecodeError>,
) -> io::Result<Option<SegmentScan<R>>> {
    if file_len < SEGMENT_HEADER_LEN as u64 {
        return Ok(None);
    }
    let mut blocks = Blocks::new(src, file_len, block, buf);
    if !blocks.fill(SEGMENT_HEADER_LEN)? {
        return Ok(None);
    }
    let Some(base_index) = decode_segment_header(blocks.window()) else {
        return Ok(None);
    };
    blocks.consume(SEGMENT_HEADER_LEN);
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN as u64;
    while file_len - pos >= RECORD_HEADER_LEN as u64 && blocks.fill(RECORD_HEADER_LEN)? {
        let (len, kind, crc) = parse_record_header(blocks.window());
        let left = file_len - pos - RECORD_HEADER_LEN as u64;
        if len > MAX_RECORD || u64::from(len) > left {
            break;
        }
        let frame = RECORD_HEADER_LEN + len as usize;
        if !blocks.fill(frame)? {
            break;
        }
        let payload = &blocks.window()[RECORD_HEADER_LEN..frame];
        if frame_crc(kind, payload) != crc {
            break;
        }
        let Ok(rec) = read(kind, payload) else {
            break;
        };
        records.push((base_index + records.len() as u64, rec));
        blocks.consume(frame);
        pos += frame as u64;
    }
    Ok(Some(SegmentScan {
        base_index,
        records,
        valid_len: pos,
        torn: pos < file_len,
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
    let (len, kind, crc) = parse_record_header(&tail);
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
    use emprof_core::{Confidence, StallEvent, StallKind};
    use proptest::prelude::*;
    use std::io::Write;

    /// The whole-buffer walk the streamed one replaced, kept as its
    /// model: every record check in the same order over the bytes of a
    /// single whole-file read.
    fn scan_bytes_reference(bytes: &[u8]) -> Option<SegmentScan> {
        let base_index = decode_segment_header(bytes)?;
        let mut records = Vec::new();
        let mut pos = SEGMENT_HEADER_LEN;
        while pos < bytes.len() {
            let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN) else {
                break;
            };
            let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
            let kind = header[4];
            let crc = u32::from_le_bytes(header[5..9].try_into().unwrap());
            if len > MAX_RECORD {
                break;
            }
            let start = pos + RECORD_HEADER_LEN;
            let Some(payload) = bytes.get(start..start + len as usize) else {
                break;
            };
            if frame_crc(kind, payload) != crc {
                break;
            }
            let Ok(rec) = Record::decode(kind, payload) else {
                break;
            };
            records.push((base_index + records.len() as u64, rec));
            pos = start + payload.len();
        }
        Some(SegmentScan {
            base_index,
            records,
            valid_len: pos as u64,
            torn: pos < bytes.len(),
        })
    }

    /// A source that hands out at most `most` bytes per read and is
    /// interrupted before every other read.
    struct ShortReads<'a> {
        src: &'a [u8],
        most: usize,
        interrupt: bool,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.most).min(self.src.len());
            buf[..n].copy_from_slice(&self.src[..n]);
            self.src = &self.src[n..];
            Ok(n)
        }
    }

    /// The streamed walk over `src` in `block`-byte blocks, told the
    /// file is `declared` bytes, reading at most `most` bytes at a time.
    /// It must read nothing past `declared`.
    fn scan_stream(src: &[u8], declared: usize, block: usize, most: usize) -> Option<SegmentScan> {
        scan_stream_into(src, declared, block, most, &mut vec![0xa5; block % 97])
    }

    /// [`scan_stream`] into `buf`, which may hold anything beforehand.
    fn scan_stream_into(
        src: &[u8],
        declared: usize,
        block: usize,
        most: usize,
        buf: &mut Vec<u8>,
    ) -> Option<SegmentScan> {
        let mut reader = ShortReads {
            src,
            most,
            interrupt: false,
        };
        let scan = scan_frames(&mut reader, declared as u64, block, buf, Record::decode).unwrap();
        let read = src.len() - reader.src.len();
        assert!(
            read <= declared,
            "read {read} bytes of a {declared}-byte file"
        );
        scan
    }

    type ScanView = Option<(u64, Vec<(u64, Record)>, u64, bool)>;

    fn view(scan: Option<SegmentScan>) -> ScanView {
        scan.map(|s| (s.base_index, s.records, s.valid_len, s.torn))
    }

    /// A record of one of three kinds, from plain drawn numbers.
    fn record((kind, x, n): (u8, u64, usize)) -> Record {
        match kind {
            0 => Record::Cursor { acked_events: x },
            1 => Record::Samples {
                seq: x,
                samples: (0..n).map(|i| (x >> (i % 32)) as u32 as f64).collect(),
            },
            _ => Record::Events {
                first_seq: x >> 20,
                events: (0..n % 4)
                    .map(|i| StallEvent {
                        start_sample: n * 1000 + i,
                        end_sample: n * 1000 + i + 7,
                        duration_cycles: (x % 100_000) as f64,
                        kind: StallKind::Normal,
                        confidence: Confidence::High,
                    })
                    .collect(),
            },
        }
    }

    proptest! {
        /// The streamed walk equals the whole-buffer walk over the file
        /// as it was when its length was taken, whatever the damage
        /// (truncation, byte flips, an oversized length field, a bad
        /// header), even when the file has grown since, for any block
        /// size (records straddle blocks and outgrow the buffer) and
        /// however short the reads come back.
        #[test]
        fn streamed_walk_equals_whole_buffer_walk(
            block in (0u8..3, 1usize..2048),
            most in (0u8..3, 1usize..4096),
            base in any::<u64>(),
            records in prop::collection::vec((0u8..3, any::<u64>(), 0usize..40), 0..12),
            oversize in (0u8..3, any::<usize>(), 0u32..=MAX_RECORD),
            flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..3),
            bad_header in (0u8..8, 0usize..SEGMENT_HEADER_LEN),
            cut in (any::<bool>(), any::<usize>(), any::<bool>()),
        ) {
            let mut bytes = encode_segment_header(base).to_vec();
            let mut frames = Vec::new();
            for r in records {
                frames.push(bytes.len());
                bytes.extend_from_slice(&encode_record_frame(&record(r)));
            }
            let (mode, at, len) = oversize;
            if mode > 0 && !frames.is_empty() {
                // Mode 1: within MAX_RECORD but past the file's end;
                // mode 2: past MAX_RECORD.
                let len = if mode == 1 { len } else { MAX_RECORD + 1 + len };
                let f = frames[at % frames.len()];
                bytes[f..f + 4].copy_from_slice(&len.to_le_bytes());
            }
            for (at, mask) in flips {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            if bad_header.0 == 0 {
                bytes[bad_header.1] ^= 0x5a;
            }
            let (truncate, at, grown) = cut;
            let declared = if truncate { at % (bytes.len() + 1) } else { bytes.len() };
            // A block of a few bytes, of a few records, or the shipped
            // one; reads of a few bytes, of a few records, or unbounded.
            let block = [1 + block.1 % 48, block.1, SCAN_BLOCK][usize::from(block.0)];
            let most = [1 + most.1 % 16, most.1, usize::MAX][usize::from(most.0)];
            let want = view(scan_bytes_reference(&bytes[..declared]));
            let src = if grown { &bytes[..] } else { &bytes[..declared] };
            prop_assert_eq!(view(scan_stream(src, declared, block, most)), want);
        }
    }

    #[test]
    fn shrunk_file_ends_in_a_torn_tail() {
        let mut bytes = encode_segment_header(7).to_vec();
        let mut ends = Vec::new();
        for r in cursors(3) {
            bytes.extend_from_slice(&encode_record_frame(&r));
            ends.push(bytes.len());
        }
        let declared = bytes.len();
        // Lost mid-record, at a record boundary, inside the first record
        // header: the prefix ends where the bytes run out, marked torn
        // because the declared length was never reached.
        for block in [1, 7, 64, SCAN_BLOCK] {
            for (have, valid, kept) in [
                (ends[2] - 3, ends[1], 2),
                (ends[1], ends[1], 2),
                (SEGMENT_HEADER_LEN + 4, SEGMENT_HEADER_LEN, 0),
            ] {
                let scan = scan_stream(&bytes[..have], declared, block, 5).expect("header intact");
                assert!(scan.torn, "shrunk to {have}, block {block}");
                assert_eq!(scan.valid_len, valid as u64, "shrunk to {have}");
                assert_eq!(scan.records.len(), kept, "shrunk to {have}");
            }
            // Lost inside the segment header: unusable, as a short read is.
            let header = &bytes[..SEGMENT_HEADER_LEN - 1];
            assert!(scan_stream(header, declared, block, 5).is_none());
        }
    }

    /// Records of many sizes walked in blocks smaller than most of
    /// them: the buffer never holds more than a block plus one record.
    #[test]
    fn walk_buffer_stays_within_a_block_plus_a_record() {
        let mut bytes = encode_segment_header(1).to_vec();
        let mut largest = 0;
        for i in 0..300u64 {
            let frame = encode_record_frame(&record(((i % 3) as u8, i * 7919, (i % 41) as usize)));
            largest = largest.max(frame.len());
            bytes.extend_from_slice(&frame);
        }
        for block in [1, 50, 100, 1000] {
            let mut buf = Vec::new();
            let scan = scan_stream_into(&bytes, bytes.len(), block, usize::MAX, &mut buf);
            let scan = scan.expect("header");
            assert_eq!((scan.records.len(), scan.torn), (300, false));
            assert!(buf.len() <= block + largest, "block {block}: {}", buf.len());
        }
    }

    /// A Samples record as large as the wire lets a batch be (a 4 MiB
    /// payload), far larger than a block, read intact and torn inside it.
    #[test]
    fn record_larger_than_a_block_grows_the_buffer() {
        let n = (4 << 20) / 8 - 2;
        let big = Record::Samples {
            seq: 3,
            samples: (0..n).map(|i| i as f64 * 0.5).collect(),
        };
        let mut bytes = encode_segment_header(11).to_vec();
        bytes.extend_from_slice(&encode_record_frame(&Record::Cursor { acked_events: 1 }));
        let big_at = bytes.len();
        let frame = encode_record_frame(&big);
        assert_eq!(frame.len() - RECORD_HEADER_LEN, 12 + 8 * n);
        assert!(frame.len() > 16 * SCAN_BLOCK && frame.len() <= (4 << 20) + 9);
        bytes.extend_from_slice(&frame);
        let big_end = bytes.len();
        bytes.extend_from_slice(&encode_record_frame(&Record::Cursor { acked_events: 2 }));
        for most in [usize::MAX, 100_003] {
            let scan = scan_stream(&bytes, bytes.len(), SCAN_BLOCK, most).expect("header");
            assert!(!scan.torn);
            assert_eq!(scan.valid_len, bytes.len() as u64);
            assert_eq!(scan.records.len(), 3);
            assert_eq!(scan.records[1], (12, big.clone()));
            // Torn inside the large record: the prefix ends before it.
            let cut = big_at + frame.len() / 2;
            let scan = scan_stream(&bytes[..cut], cut, SCAN_BLOCK, most).expect("header");
            assert!(scan.torn);
            assert_eq!(scan.valid_len, big_at as u64);
            assert_eq!(scan.records.len(), 1);
            // The file shrinks inside it after its length was taken.
            let scan = scan_stream(&bytes[..cut], big_end, SCAN_BLOCK, most).expect("header");
            assert!(scan.torn);
            assert_eq!(scan.valid_len, big_at as u64);
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("emprof-store-seg-{}-{tag}", std::process::id()));
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
        (1..=n)
            .map(|i| Record::Cursor { acked_events: i })
            .collect()
    }

    #[test]
    fn file_names_roundtrip() {
        for base in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                parse_segment_file_name(&segment_file_name(base)),
                Some(base)
            );
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
