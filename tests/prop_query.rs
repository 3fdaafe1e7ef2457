//! Property-based guarantees of the journal query engine.
//!
//! The headline invariant: **query-equals-replay** — every statistic
//! `query_journals` returns is bit-identical to recomputing it from a
//! full replay (`read_session`) of the same journals through the same
//! [`QueryAccumulator`] fold. That must hold for arbitrary event
//! streams, arbitrary truncation damage, arbitrary `[t0, t1]` windows
//! (including empty ones), any session filter, footer-less legacy
//! journals, cold or cached reads, and while ack-driven compaction is
//! deleting segments out from under a running query.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use emprof::core::{Confidence, EmprofConfig, StallEvent, StallKind};
use emprof::store::{
    query_journals, read_session, JournalConfig, QueryAccumulator, QueryResult, QuerySpec,
    SegmentCache, SessionJournal, SessionMeta,
};
use proptest::prelude::*;

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emprof-prop-query-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small segments force multi-segment journals (and so footer pruning,
/// rolling, and compaction) even for short event streams.
fn journal_config(write_footers: bool) -> JournalConfig {
    JournalConfig {
        segment_bytes: 512,
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

/// Deterministic event from one arbitrary tuple.
fn ev(start: u32, dur: u16, sel: u8) -> StallEvent {
    let start = (start % 250_000) as usize;
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

/// Writes one session journal holding the synthesized event stream.
fn write_events(dir: &Path, id: u64, stream: &[(u32, u16, u8)], cfg: &JournalConfig) {
    let mut journal = SessionJournal::create(dir, meta(id), cfg.clone()).unwrap();
    for (i, &(start, dur, sel)) in stream.iter().enumerate() {
        journal
            .append_events(i as u64 + 1, &[ev(start, dur, sel)])
            .unwrap();
    }
    journal.sync().unwrap();
}

/// The replay side of the invariant: full recovery of every session
/// under `root`, pushed through the same accumulator the engine uses.
/// `read_session` repairs damage in place (truncates torn tails, drops
/// segments past the first anomaly) exactly as any replay consumer
/// would see the journal.
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

/// Strips the work accounting: the invariant is about the statistics;
/// how many segments were pruned or cached legitimately differs.
fn stats_of(mut r: QueryResult) -> QueryResult {
    r.accounting = Default::default();
    r
}

/// Sorted `.emj` files under a whole journal root (recursive one level).
fn all_segment_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            for sub in std::fs::read_dir(&path).unwrap() {
                let p = sub.unwrap().path();
                if p.extension().is_some_and(|e| e == "emj") {
                    files.push(p);
                }
            }
        } else if path.extension().is_some_and(|e| e == "emj") {
            files.push(path);
        }
    }
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// query-equals-replay over arbitrary streams, truncation points,
    /// windows, session filters, and footer-less legacy journals. The
    /// query runs first (read-only, over the damaged files); the
    /// replay reference then repairs in place; their statistics must
    /// still be bit-identical.
    #[test]
    fn query_equals_replay(
        streams in prop::collection::vec(
            prop::collection::vec((any::<u32>(), any::<u16>(), any::<u8>()), 1..60),
            1..3,
        ),
        legacy in any::<bool>(),
        do_damage in any::<bool>(),
        which in any::<u16>(),
        cut in any::<u32>(),
        t0 in any::<u32>(),
        span in any::<u32>(),
        filter_sel in 0u8..5,
        bucket_on in any::<bool>(),
    ) {
        let root = fresh_dir();
        std::fs::create_dir_all(&root).unwrap();
        let cfg = journal_config(!legacy);
        for (i, stream) in streams.iter().enumerate() {
            let id = i as u64 + 1;
            write_events(&root.join(format!("session-{id}")), id, stream, &cfg);
        }

        if do_damage {
            let files = all_segment_files(&root);
            let victim = &files[which as usize % files.len()];
            let bytes = std::fs::read(victim).unwrap();
            let cut = cut as usize % (bytes.len() + 1);
            std::fs::write(victim, &bytes[..cut]).unwrap();
        }

        let t0 = u64::from(t0 % 300_000);
        let t1 = if span.is_multiple_of(7) {
            // An empty window (t1 < t0) is a valid query.
            t0.saturating_sub(1)
        } else {
            t0 + u64::from(span % 300_000)
        };
        let sessions = match filter_sel {
            0 => Vec::new(),
            1 => vec![1],
            2 => vec![2],
            3 => vec![1, 2],
            _ => vec![999],
        };
        let bucket_samples = if bucket_on && t1 >= t0 {
            (t1 - t0) / 1024 + 1
        } else {
            0
        };
        let spec = QuerySpec { t0, t1, sessions, bucket_samples };

        // Cold query on the (possibly damaged) journal, read-only.
        let cold = query_journals(&root, &spec, None).unwrap();
        // Cached query, twice: warm paths must not change any answer.
        let cache = SegmentCache::default();
        let warm = query_journals(&root, &spec, Some(&cache)).unwrap();
        let rewarm = query_journals(&root, &spec, Some(&cache)).unwrap();
        // Replay reference last: read_session repairs in place.
        let want = replay_reference(&root, &cfg, &spec);

        prop_assert_eq!(stats_of(cold), stats_of(want.clone()));
        prop_assert_eq!(stats_of(warm), stats_of(want.clone()));
        prop_assert_eq!(stats_of(rewarm), stats_of(want));

        let _ = std::fs::remove_dir_all(&root);
    }

    /// Cache coherence as the journal grows and compacts: a warm cache
    /// must never serve answers that differ from a cold read, even
    /// after segments roll, new events land, and acks delete prefixes.
    #[test]
    fn cache_stays_coherent_across_growth_and_compaction(
        first in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u8>()), 10..50),
        second in prop::collection::vec((any::<u32>(), any::<u16>(), any::<u8>()), 1..30),
        ack_num in any::<u16>(),
        t0 in any::<u32>(),
        span in any::<u32>(),
    ) {
        let root = fresh_dir();
        let dir = root.join("session-1");
        let cfg = journal_config(true);
        write_events(&dir, 1, &first, &cfg);

        let t0 = u64::from(t0 % 300_000);
        let t1 = t0 + u64::from(span % 300_000);
        let spec = QuerySpec { t0, t1, sessions: Vec::new(), bucket_samples: 0 };

        let cache = SegmentCache::default();
        let cold = query_journals(&root, &spec, None).unwrap();
        let warm = query_journals(&root, &spec, Some(&cache)).unwrap();
        let rewarm = query_journals(&root, &spec, Some(&cache)).unwrap();
        prop_assert_eq!(stats_of(cold), stats_of(warm.clone()));
        prop_assert_eq!(stats_of(warm), stats_of(rewarm.clone()));
        if all_segment_files(&root).len() >= 2 {
            // Sealed segments were cached on the first warm pass.
            prop_assert!(
                rewarm.accounting.cache_hits > 0,
                "no cache hits on an identical repeat query: {:?}",
                rewarm.accounting
            );
        }

        // Grow the journal (rolling new segments) and compact a prefix:
        // stale cache entries must be revalidated away, never served.
        let (mut journal, _) = SessionJournal::open(&dir, cfg.clone()).unwrap().unwrap();
        for (i, &(start, dur, sel)) in second.iter().enumerate() {
            let seq = first.len() as u64 + i as u64 + 1;
            journal.append_events(seq, &[ev(start, dur, sel)]).unwrap();
        }
        journal.ack(u64::from(ack_num) % (first.len() as u64 + 1)).unwrap();
        journal.sync().unwrap();
        drop(journal);

        let cold2 = query_journals(&root, &spec, None).unwrap();
        let warm2 = query_journals(&root, &spec, Some(&cache)).unwrap();
        prop_assert_eq!(stats_of(cold2), stats_of(warm2));

        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Regression: ack-driven compaction deleting segments mid-query must
/// never fail a query — the engine re-lists and replans on a vanished
/// segment — and once the dust settles, query still equals replay.
#[test]
fn query_survives_concurrent_compaction() {
    let dir = fresh_dir();
    let cfg = journal_config(true);
    let mut journal = SessionJournal::create(&dir, meta(1), cfg.clone()).unwrap();
    // Seed enough events that queries always have segments to walk.
    for seq in 1..=40u64 {
        journal
            .append_events(seq, &[ev(seq as u32 * 997, seq as u16, seq as u8)])
            .unwrap();
    }
    journal.sync().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = std::thread::spawn({
        let dir = dir.clone();
        let stop = Arc::clone(&stop);
        move || {
            let cache = SegmentCache::default();
            let mut queries = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Any Err here is the regression: a vanished segment
                // must be replanned, not surfaced.
                query_journals(&dir, &QuerySpec::all(), Some(&cache))
                    .expect("query failed while compaction was running");
                queries += 1;
            }
            queries
        }
    });

    // Writer: keep appending (rolling fresh segments) and acking (so
    // compaction keeps deleting fully-acked prefix segments) while the
    // reader hammers queries.
    for seq in 41..=400u64 {
        journal
            .append_events(seq, &[ev(seq as u32 * 997, seq as u16, seq as u8)])
            .unwrap();
        if seq % 4 == 0 {
            journal.ack(seq - 20).unwrap();
        }
        if seq % 16 == 0 {
            journal.sync().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    journal.sync().unwrap();
    drop(journal);
    stop.store(true, Ordering::Relaxed);
    let queries = reader.join().expect("reader thread must not panic");
    assert!(queries > 0, "the reader never completed a query");

    // Steady state: the race is over, the invariant still holds.
    let spec = QuerySpec::all();
    let got = query_journals(&dir, &spec, None).unwrap();
    let rec = read_session(&dir, cfg)
        .unwrap()
        .expect("journal must recover");
    let mut acc = QueryAccumulator::new(&spec).unwrap();
    acc.add_session(1, &rec.meta.device, rec.events.iter());
    let want = acc.finish();
    assert!(
        got.events > 0,
        "unacked suffix events must survive compaction"
    );
    assert_eq!(stats_of(got), stats_of(want));

    let _ = std::fs::remove_dir_all(&dir);
}

/// query-equals-replay on detector-like streams. The properties above
/// draw event starts uniformly, so nearly every sealed segment's footer
/// spans any window and pruning rarely runs. Here starts rise by up to
/// 3 000 samples per event, as a detector's do, and windows cover at
/// most an eighth of the journaled stretch, so footers prune the
/// segments on either side; the test fails unless pruning happens in a
/// quarter of its cases or more.
#[test]
fn query_equals_replay_on_rising_starts() {
    const CASES: u32 = 32;
    let streams = prop::collection::vec(
        prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 20..80),
        1..3,
    );
    let damage = (any::<bool>(), any::<u16>(), any::<u32>());
    let window = (any::<u32>(), any::<u32>(), 0u8..4, any::<bool>());
    let mut pruned_cases = 0;
    for case in 0..CASES {
        let mut rng = TestRng::for_case(
            concat!(module_path!(), "::query_equals_replay_on_rising_starts"),
            case,
        );
        let (streams, legacy_sel) = (&streams, 0u8..4).generate(&mut rng);
        let (do_damage, which, cut) = damage.generate(&mut rng);
        let (t0, span, filter_sel, bucket_on) = window.generate(&mut rng);

        let root = fresh_dir();
        std::fs::create_dir_all(&root).unwrap();
        // One journal in four is footer-less, as legacy segments are.
        let cfg = journal_config(legacy_sel != 0);
        let mut end = 1;
        for (i, steps) in streams.iter().enumerate() {
            let mut start = 0u32;
            let stream: Vec<(u32, u16, u8)> = steps
                .iter()
                .map(|&(gap, dur, sel)| {
                    start += u32::from(gap % 3_000);
                    (start, dur, sel)
                })
                .collect();
            end = end.max(u64::from(start) + 1);
            let id = i as u64 + 1;
            write_events(&root.join(format!("session-{id}")), id, &stream, &cfg);
        }
        if do_damage {
            let files = all_segment_files(&root);
            let victim = &files[which as usize % files.len()];
            let bytes = std::fs::read(victim).unwrap();
            let cut = cut as usize % (bytes.len() + 1);
            std::fs::write(victim, &bytes[..cut]).unwrap();
        }

        let t0 = u64::from(t0) % end;
        let t1 = if span.is_multiple_of(7) {
            t0.saturating_sub(1)
        } else {
            t0 + u64::from(span) % (end / 8 + 1)
        };
        let sessions = match filter_sel {
            0 => Vec::new(),
            1 => vec![1],
            2 => vec![2],
            _ => vec![1, 2],
        };
        let bucket_samples = if bucket_on && t1 >= t0 {
            (t1 - t0) / 1024 + 1
        } else {
            0
        };
        let spec = QuerySpec {
            t0,
            t1,
            sessions,
            bucket_samples,
        };

        let cold = query_journals(&root, &spec, None).unwrap();
        let cache = SegmentCache::default();
        let warm = query_journals(&root, &spec, Some(&cache)).unwrap();
        let rewarm = query_journals(&root, &spec, Some(&cache)).unwrap();
        let want = replay_reference(&root, &cfg, &spec);

        if cold.accounting.segments_pruned > 0 {
            pruned_cases += 1;
        }
        assert_eq!(stats_of(cold), stats_of(want.clone()), "case {case}: cold");
        assert_eq!(stats_of(warm), stats_of(want.clone()), "case {case}: warm");
        assert_eq!(stats_of(rewarm), stats_of(want), "case {case}: rewarm");
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        pruned_cases >= CASES / 4,
        "footers pruned in only {pruned_cases} of {CASES} cases"
    );
}
