//! Golden on-disk bytes of the session journal.
//!
//! `tests/fixtures/journal_golden/` is a small journal directory holding
//! every record kind (meta, samples, events, cursor, footer, finished),
//! written once by the journal encoder and committed. The encoder must
//! keep writing exactly those bytes — any change to framing, CRCs or
//! payload layout breaks every journal already on disk — and the reader
//! must keep reading them back.

use std::fs;
use std::path::{Path, PathBuf};

use emprof::core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};
use emprof::store::segment::{
    parse_segment_file_name, read_segment_footer, scan_segment, segment_file_name,
};
use emprof::store::{read_session, JournalConfig, Record, RecordKind, SessionJournal, SessionMeta};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_golden")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emprof-journal-golden-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Small segments, so the fixture rolls (and writes footers) after a
/// few records.
fn journal_config() -> JournalConfig {
    JournalConfig {
        segment_bytes: 320,
        sync_on_append: false,
        write_footers: true,
    }
}

fn meta() -> SessionMeta {
    let mut config = EmprofConfig::for_rates(40e6, 1.008e9);
    config.calib = CalibConfig::adaptive();
    SessionMeta {
        session_id: 42,
        resume_token: 0xDEAD_BEEF_0BAD_F00D,
        sample_rate_hz: 40e6,
        clock_hz: 1.008e9,
        config,
        device: "golden-olimex".into(),
    }
}

/// Sample batch `seq`: busy samples plus values whose bit patterns a
/// lossy encoder would not preserve (signed zero, subnormal, a NaN with
/// a payload, infinities).
fn samples(seq: u64) -> Vec<f64> {
    let mut s: Vec<f64> = (0..12).map(|i| 5.0 + (seq * 12 + i) as f64 / 64.0).collect();
    s.extend_from_slice(&[
        -0.0,
        f64::from_bits(1),
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.8,
    ]);
    s
}

fn event(start: usize, len: usize, kind: StallKind, confidence: Confidence) -> StallEvent {
    StallEvent {
        start_sample: start,
        end_sample: start + len,
        duration_cycles: len as f64 * 25.2,
        kind,
        confidence,
    }
}

fn events() -> Vec<StallEvent> {
    vec![
        event(3, 12, StallKind::Normal, Confidence::High),
        event(40, 130, StallKind::RefreshCollision, Confidence::High),
        event(200, 9, StallKind::Normal, Confidence::Degraded),
        event(260, 140, StallKind::RefreshCollision, Confidence::Degraded),
    ]
}

/// Writes the golden session through the public journal API.
fn write_journal(dir: &Path) {
    let ev = events();
    let mut sj = SessionJournal::create(dir, meta(), journal_config()).expect("create");
    sj.append_samples(1, &samples(1)).expect("samples 1");
    sj.append_events(1, &ev[..2]).expect("events 1");
    sj.ack(1).expect("ack 1");
    sj.append_samples(2, &samples(2)).expect("samples 2");
    sj.append_samples(3, &[]).expect("empty samples");
    sj.append_events(3, &ev[2..]).expect("events 2");
    sj.ack(3).expect("ack 3");
    sj.append_samples(4, &samples(4)).expect("samples 4");
    sj.finish(54, 0, 4).expect("finish");
}

/// The segment files of `dir`, by base index.
fn segment_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut files: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let base = parse_segment_file_name(p.file_name()?.to_str()?)?;
            Some((base, p))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn encoder_writes_the_golden_bytes() {
    let dir = scratch_dir("write");
    write_journal(&dir);
    let written = segment_files(&dir);
    let golden = segment_files(&fixture_dir());
    let names = |v: &[(u64, PathBuf)]| v.iter().map(|(b, _)| *b).collect::<Vec<_>>();
    assert_eq!(names(&written), names(&golden), "segment set differs");
    for ((base, w), (_, g)) in written.iter().zip(&golden) {
        let (w, g) = (fs::read(w).unwrap(), fs::read(g).unwrap());
        assert_eq!(w.len(), g.len(), "segment {base}: length differs");
        let first = w.iter().zip(&g).position(|(a, b)| a != b);
        assert_eq!(first, None, "segment {base}: first differing byte");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_fixture_scans_back() {
    let files = segment_files(&fixture_dir());
    assert!(files.len() >= 2, "fixture must span a roll");
    let mut kinds = Vec::new();
    let mut next_index = files[0].0;
    for (i, (base, path)) in files.iter().enumerate() {
        let scan = scan_segment(path).expect("read").expect("valid header");
        assert_eq!(scan.base_index, *base);
        assert_eq!(scan.base_index, next_index, "segments are contiguous");
        assert!(!scan.torn, "segment {base} is torn");
        assert_eq!(scan.valid_len, fs::metadata(path).unwrap().len());
        next_index += scan.records.len() as u64;
        let footer = read_segment_footer(path).expect("read footer");
        if i + 1 < files.len() {
            // Sealed segments end in a footer that matches a re-fold of
            // their data records.
            let Some((_, Record::Footer(last))) = scan.records.last() else {
                panic!("sealed segment {base} lacks a footer");
            };
            let mut refold = emprof::store::SegmentFooter::empty();
            for (_, r) in &scan.records {
                refold.note(r);
            }
            assert_eq!(*last, refold);
            assert_eq!(footer, Some(refold));
        } else {
            assert_eq!(footer, None, "the active segment has no footer");
        }
        kinds.extend(scan.records.iter().map(|(_, r)| r.kind()));
    }
    for kind in [
        RecordKind::Meta,
        RecordKind::Samples,
        RecordKind::Events,
        RecordKind::Cursor,
        RecordKind::Finished,
        RecordKind::Footer,
    ] {
        assert!(kinds.contains(&kind), "fixture lacks a {kind:?} record");
    }

    // Recovery folds the fixture back into the session that wrote it,
    // bit for bit (NaN payloads and signed zeros included). Recovery
    // may repair in place, so it runs on a copy.
    let copy = scratch_dir("read");
    fs::create_dir_all(&copy).unwrap();
    for (base, path) in &files {
        fs::copy(path, copy.join(segment_file_name(*base))).unwrap();
    }
    let rec = read_session(&copy, journal_config())
        .expect("read session")
        .expect("identity survived");
    assert_eq!(rec.meta, meta());
    assert_eq!(rec.finished, Some((54, 0)));
    assert_eq!(rec.acked_events, 3);
    assert_eq!(rec.acked_samples_seq, 4);
    assert_eq!(rec.journaled_events, 4);
    let evs: Vec<StallEvent> = rec.events.iter().map(|&(_, e)| e).collect();
    assert_eq!(evs[..], events()[events().len() - evs.len()..]);
    for (seq, batch) in &rec.samples {
        let expect = if *seq == 3 { Vec::new() } else { samples(*seq) };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(batch), bits(&expect), "samples {seq}");
    }
    fs::remove_dir_all(&copy).unwrap();
}
