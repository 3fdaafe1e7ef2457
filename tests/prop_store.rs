//! Property-based guarantees of the durable event journal.
//!
//! The recovery contract that exactly-once delivery rests on: whatever
//! prefix of a journal survives a crash — a file truncated at an
//! arbitrary byte offset, or a byte flipped anywhere — `open()` never
//! panics, recovers the longest valid record prefix, accepts further
//! appends, and every recovered sample is bit-identical to what was
//! written, so replaying the recovered prefix through a fresh detector
//! reproduces exactly the batch profile of the recovered signal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use emprof::core::{Emprof, EmprofConfig, StreamingEmprof};
use emprof::store::{JournalConfig, SessionJournal, SessionMeta};
use proptest::prelude::*;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;
/// Samples per journaled batch — small, so journals span many records.
const BATCH: usize = 1_024;

fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

/// Small segments force multi-segment journals even for short signals.
fn journal_config() -> JournalConfig {
    JournalConfig {
        segment_bytes: 4_096,
        sync_on_append: false,
        ..Default::default()
    }
}

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emprof-prop-store-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Arbitrary busy/dip signal (same shape as the detector properties).
fn build_signal(segments: &[(u16, u16, u8)]) -> Vec<f64> {
    let mut s = Vec::new();
    for (i, &(gap, dip, depth)) in segments.iter().enumerate() {
        let gap = 3 + gap as usize % 600;
        let dip = dip as usize % 160;
        let dip_level = 0.3 + (depth as f64 / 255.0) * 1.2;
        for k in 0..gap {
            s.push(5.0 + (((i * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        for k in 0..dip {
            s.push(dip_level + (((i * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
    }
    s.extend(std::iter::repeat_n(5.0, 500));
    s
}

fn meta() -> SessionMeta {
    SessionMeta {
        session_id: 1,
        resume_token: 42,
        sample_rate_hz: FS,
        clock_hz: CLK,
        config: config(),
        device: "prop".into(),
    }
}

/// Writes a full session journal (samples + finalized events) for the
/// signal and returns the original batches.
fn write_journal(dir: &std::path::Path, signal: &[f64]) -> Vec<(u64, Vec<f64>)> {
    let mut journal = SessionJournal::create(dir, meta(), journal_config()).unwrap();
    let mut batches = Vec::new();
    for (i, chunk) in signal.chunks(BATCH).enumerate() {
        let seq = i as u64 + 1;
        journal.append_samples(seq, chunk).unwrap();
        batches.push((seq, chunk.to_vec()));
    }
    let mut s = StreamingEmprof::new(config(), FS, CLK);
    s.extend(signal.iter().copied());
    let events = s.finish().events().to_vec();
    journal.append_events(1, &events).unwrap();
    journal.sync().unwrap();
    batches
}

/// Sorted list of segment files in a journal directory.
fn segment_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "emj"))
        .collect();
    files.sort();
    files
}

/// Asserts the recovered state is an honest prefix: every recovered
/// batch is bit-identical to the batch originally written under that
/// sequence number, with no gaps.
fn assert_honest_prefix(recovered: &[(u64, Vec<f64>)], written: &[(u64, Vec<f64>)]) {
    assert!(recovered.len() <= written.len());
    for (got, want) in recovered.iter().zip(written.iter()) {
        assert_eq!(got.0, want.0, "recovered sequence out of order");
        assert_eq!(
            got.1, want.1,
            "recovered batch {} differs from what was written",
            got.0
        );
    }
}

/// The detector-level replay identity: streaming the recovered batches
/// equals the batch detector on their concatenation.
fn assert_replay_identity(recovered: &[(u64, Vec<f64>)]) {
    let signal: Vec<f64> = recovered
        .iter()
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
    let mut s = StreamingEmprof::new(config(), FS, CLK);
    for (_, b) in recovered {
        s.extend(b.iter().copied());
    }
    let streamed = s.finish();
    assert_eq!(
        streamed.events(),
        batch.events(),
        "recovered journal does not replay to identical events"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating any segment at any byte offset leaves a journal that
    /// opens to the longest valid prefix, accepts new appends, and
    /// replays to identical events.
    #[test]
    fn truncation_recovers_longest_valid_prefix(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 2..16),
        which in any::<u16>(),
        cut in any::<u32>(),
    ) {
        let dir = fresh_dir();
        let signal = build_signal(&segments);
        let written = write_journal(&dir, &signal);

        let files = segment_files(&dir);
        let victim = &files[which as usize % files.len()];
        let bytes = std::fs::read(victim).unwrap();
        let cut = cut as usize % (bytes.len() + 1);
        std::fs::write(victim, &bytes[..cut]).unwrap();

        // open() must repair, never fail or panic. A cut inside the
        // first segment's identity checkpoint legitimately loses the
        // whole session (None); anything else recovers a prefix.
        let opened = SessionJournal::open(&dir, journal_config()).unwrap();
        let Some((mut journal, rec)) = opened else {
            prop_assert!(
                victim == &files[0],
                "only losing the first segment's checkpoint may lose the session"
            );
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(());
        };
        prop_assert_eq!(&rec.meta, &meta());
        assert_honest_prefix(&rec.samples, &written);
        assert_replay_identity(&rec.samples);

        // Re-append past the recovered prefix and reopen: the appended
        // batch must come back verbatim.
        let next_seq = rec.samples.last().map_or(1, |(s, _)| s + 1);
        let extra: Vec<f64> = (0..64).map(|i| 5.0 + i as f64 / 100.0).collect();
        journal.append_samples(next_seq, &extra).unwrap();
        journal.sync().unwrap();
        drop(journal);
        let (_, rec2) = SessionJournal::open(&dir, journal_config())
            .unwrap()
            .expect("re-appended journal must reopen");
        let last = rec2.samples.last().expect("appended batch must survive");
        prop_assert_eq!(last.0, next_seq);
        prop_assert_eq!(&last.1, &extra);
        assert_replay_identity(&rec2.samples);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte anywhere in the journal is *detected*:
    /// recovery drops the damage (and everything after it in that file)
    /// but never hands back silently corrupted samples.
    #[test]
    fn corruption_never_escapes_the_checksums(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 2..16),
        which in any::<u16>(),
        offset in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let dir = fresh_dir();
        let signal = build_signal(&segments);
        let written = write_journal(&dir, &signal);

        let files = segment_files(&dir);
        let victim = &files[which as usize % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        let offset = offset as usize % bytes.len();
        bytes[offset] ^= flip;
        std::fs::write(victim, &bytes).unwrap();

        let opened = SessionJournal::open(&dir, journal_config()).unwrap();
        let Some((_, rec)) = opened else {
            prop_assert!(
                victim == &files[0],
                "only corrupting the first segment's checkpoint may lose the session"
            );
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(());
        };
        // CRC-32 detects every single-byte flip, so nothing recovered
        // may differ from what was written — damage only truncates.
        assert_honest_prefix(&rec.samples, &written);
        assert_replay_identity(&rec.samples);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
