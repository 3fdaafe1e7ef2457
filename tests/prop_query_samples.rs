//! Query-equals-replay over journals that hold `Samples` records.
//!
//! The query engine checks a `Samples` payload (CRC, sequence number,
//! count bound, exact length) without decoding a sample, while replay
//! (`read_session`) decodes every one. Both must end a session's valid
//! prefix at the same record, so their answers agree bit for bit. This
//! suite interleaves sample batches with events over rolling segments
//! and damages the journal three ways:
//!
//! - truncation of any segment at any byte;
//! - a single-byte flip inside a `Samples` payload of a sealed segment,
//!   which its CRC catches;
//! - a `Samples` payload of a sealed segment whose count no longer
//!   matches its length, under a recomputed, valid CRC, which only the
//!   payload check catches.
//!
//! The query runs cold, warm and re-warmed through one cache before
//! replay repairs the journal in place; all three answers must equal
//! the replay fold.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use emprof::core::{Confidence, EmprofConfig, StallEvent, StallKind};
use emprof::store::segment::{parse_segment_file_name, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN};
use emprof::store::{
    crc32, query_journals, read_session, JournalConfig, QueryAccumulator, QueryResult, QuerySpec,
    RecordKind, SegmentCache, SessionJournal, SessionMeta,
};
use proptest::prelude::*;

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emprof-prop-query-samples-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small segments roll every few records, so most segments are sealed
/// and most hold sample batches.
fn journal_config(write_footers: bool) -> JournalConfig {
    JournalConfig {
        segment_bytes: 768,
        sync_on_append: false,
        write_footers,
    }
}

fn meta(id: u64) -> SessionMeta {
    SessionMeta {
        session_id: id,
        resume_token: 7,
        sample_rate_hz: 40e6,
        clock_hz: 1.0e9,
        config: EmprofConfig::for_rates(40e6, 1.0e9),
        device: format!("dev-{id}"),
    }
}

fn ev(start: usize, dur: u16, sel: u8) -> StallEvent {
    StallEvent {
        start_sample: start,
        end_sample: start + 1 + (dur as usize % 64),
        duration_cycles: 1.0 + dur as f64,
        kind: if sel.is_multiple_of(5) {
            StallKind::RefreshCollision
        } else {
            StallKind::Normal
        },
        confidence: if sel.is_multiple_of(3) {
            Confidence::Degraded
        } else {
            Confidence::High
        },
    }
}

/// One step of a session: a sample batch of `batch - 8` samples (none
/// at or below 8), then one event starting `gap` samples after the
/// previous one. Starts rise as a detector's do, so each sealed
/// segment covers its own stretch of time and footers prune.
type Step = (u16, u16, u8, u8);

/// Writes one session; returns its last event's start.
fn write_session(dir: &Path, id: u64, steps: &[Step], cfg: &JournalConfig) -> u64 {
    let mut journal = SessionJournal::create(dir, meta(id), cfg.clone()).unwrap();
    let (mut samples_seq, mut start) = (0u64, 0usize);
    for (i, &(gap, dur, sel, batch)) in steps.iter().enumerate() {
        start += usize::from(gap % 8192);
        let batch = batch.saturating_sub(8);
        if batch > 0 {
            samples_seq += 1;
            let samples: Vec<f64> = (0..batch)
                .map(|k| 5.0 - f64::from(k) / 64.0 + f64::from(sel) / 1024.0)
                .collect();
            journal.append_samples(samples_seq, &samples).unwrap();
        }
        journal
            .append_events(i as u64 + 1, &[ev(start, dur, sel)])
            .unwrap();
    }
    journal.sync().unwrap();
    start as u64
}

/// The replay side: full recovery of every session under `root` through
/// the same accumulator the engine uses. `read_session` repairs damage
/// in place, so it runs after every query.
fn replay_reference(root: &Path, cfg: &JournalConfig, spec: &QuerySpec) -> QueryResult {
    let mut dirs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(id) = name
            .strip_prefix("session-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            dirs.push((id, entry.path()));
        }
    }
    dirs.sort();
    let mut acc = QueryAccumulator::new(spec).unwrap();
    for (id, dir) in dirs {
        if !spec.matches_session(id) {
            continue;
        }
        let Some(rec) = read_session(&dir, cfg.clone()).unwrap() else {
            continue;
        };
        acc.add_session(id, &rec.meta.device, rec.events.iter());
    }
    acc.finish()
}

fn stats_of(mut r: QueryResult) -> QueryResult {
    r.accounting = Default::default();
    r
}

/// Every session's segment files, by session and then base index.
fn segments_by_session(root: &Path) -> Vec<Vec<PathBuf>> {
    let mut sessions: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    sessions.sort();
    sessions
        .iter()
        .map(|dir| {
            let mut segs: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name()?.to_str()?.to_owned();
                    Some((parse_segment_file_name(&name)?, path))
                })
                .collect();
            segs.sort();
            segs.into_iter().map(|(_, p)| p).collect()
        })
        .collect()
}

/// A `Samples` frame in a sealed segment: the file, the frame's offset
/// and its payload length.
fn sealed_samples_frames(root: &Path) -> Vec<(PathBuf, usize, usize)> {
    let mut frames = Vec::new();
    for segs in segments_by_session(root) {
        // Every segment but a session's last was sealed by a roll.
        for path in segs.iter().take(segs.len().saturating_sub(1)) {
            let bytes = std::fs::read(path).unwrap();
            let mut pos = SEGMENT_HEADER_LEN;
            while pos + RECORD_HEADER_LEN <= bytes.len() {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                if bytes[pos + 4] == RecordKind::Samples as u8 {
                    frames.push((path.clone(), pos, len));
                }
                pos += RECORD_HEADER_LEN + len;
            }
        }
    }
    frames
}

/// Damage 1: truncate one segment. Damage 2: flip one byte of a sealed
/// `Samples` payload. Damage 3: bump a sealed `Samples` payload's count
/// so it disagrees with the length, and re-seal the frame's CRC.
fn damage(root: &Path, kind: u8, which: u16, at: u32) {
    if kind == 1 {
        let files: Vec<PathBuf> = segments_by_session(root).concat();
        let victim = &files[which as usize % files.len()];
        let bytes = std::fs::read(victim).unwrap();
        let cut = at as usize % (bytes.len() + 1);
        std::fs::write(victim, &bytes[..cut]).unwrap();
        return;
    }
    let frames = sealed_samples_frames(root);
    if kind == 0 || frames.is_empty() {
        return;
    }
    let (path, frame, len) = &frames[which as usize % frames.len()];
    let mut bytes = std::fs::read(path).unwrap();
    let payload = frame + RECORD_HEADER_LEN;
    if kind == 2 {
        bytes[payload + at as usize % len] ^= 1 << (at % 8);
    } else {
        let count_at = payload + 8;
        let count = u32::from_le_bytes(bytes[count_at..count_at + 4].try_into().unwrap());
        bytes[count_at..count_at + 4].copy_from_slice(&(count + 1).to_le_bytes());
        let crc = crc32(&bytes[frame + 4..payload + len]);
        bytes[frame + 5..payload].copy_from_slice(&crc.to_le_bytes());
    }
    std::fs::write(path, &bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn query_equals_replay_with_samples_records(
        streams in prop::collection::vec(
            prop::collection::vec(
                (any::<u16>(), any::<u16>(), any::<u8>(), 0u8..56),
                1..60,
            ),
            1..3,
        ),
        legacy_sel in 0u8..4,
        damage_kind in 0u8..4,
        which in any::<u16>(),
        at in any::<u32>(),
        t0 in any::<u32>(),
        span in any::<u32>(),
        filter_sel in 0u8..4,
        bucket_on in any::<bool>(),
    ) {
        let root = fresh_dir();
        std::fs::create_dir_all(&root).unwrap();
        // One journal in four is footer-less, as legacy segments are.
        let cfg = journal_config(legacy_sel != 0);
        let mut end = 1;
        for (i, steps) in streams.iter().enumerate() {
            let id = i as u64 + 1;
            end = end.max(write_session(&root.join(format!("session-{id}")), id, steps, &cfg) + 1);
        }
        damage(&root, damage_kind, which, at);

        // Windows of up to a quarter of the journaled stretch, so footers
        // prune the sealed segments on either side of one.
        let t0 = u64::from(t0) % end;
        let t1 = if span.is_multiple_of(7) {
            t0.saturating_sub(1)
        } else {
            t0 + u64::from(span) % (end / 4 + 1)
        };
        let sessions = match filter_sel {
            0 => Vec::new(),
            1 => vec![1],
            2 => vec![2],
            _ => vec![1, 2],
        };
        let bucket_samples = if bucket_on && t1 >= t0 { (t1 - t0) / 1024 + 1 } else { 0 };
        let spec = QuerySpec { t0, t1, sessions, bucket_samples };

        let cold = query_journals(&root, &spec, None).unwrap();
        let cache = SegmentCache::default();
        let warm = query_journals(&root, &spec, Some(&cache)).unwrap();
        let rewarm = query_journals(&root, &spec, Some(&cache)).unwrap();
        let want = replay_reference(&root, &cfg, &spec);

        prop_assert_eq!(stats_of(cold), stats_of(want.clone()));
        prop_assert_eq!(stats_of(warm), stats_of(want.clone()));
        prop_assert_eq!(stats_of(rewarm), stats_of(want));

        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Regression: a sealed segment that footers prune out of the window
/// still ends the valid prefix when a record in it is damaged. Its tail
/// footer survives a flip further in, so trusting the footer without
/// the walk folded every later segment that replay drops.
#[test]
fn a_damaged_segment_ends_the_prefix_even_where_its_footer_prunes_it() {
    let steps: Vec<Step> = (0..60).map(|i| (4_000, 10, i as u8, 38)).collect();
    for kind in [2, 3] {
        let root = fresh_dir();
        let cfg = journal_config(true);
        let end = write_session(&root.join("session-1"), 1, &steps, &cfg);
        // Frame 20 sits in a sealed segment well before the window.
        damage(&root, kind, 20, 5);
        let spec = QuerySpec {
            t0: end / 2,
            t1: end,
            ..QuerySpec::all()
        };
        let cold = query_journals(&root, &spec, None).unwrap();
        let cache = SegmentCache::default();
        let warm = query_journals(&root, &spec, Some(&cache)).unwrap();
        let want = replay_reference(&root, &cfg, &spec);
        assert!(cold.accounting.segments_pruned > 0, "{:?}", cold.accounting);
        assert_eq!(want.events, 0, "replay stops before the window");
        assert_eq!(stats_of(cold), stats_of(want.clone()));
        assert_eq!(stats_of(warm), stats_of(want));
        let _ = std::fs::remove_dir_all(&root);
    }
}
