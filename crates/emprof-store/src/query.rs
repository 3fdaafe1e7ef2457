//! The query engine: range statistics over journal directories.
//!
//! Turns a directory of session journals (either a serve root holding
//! `session-<id>/` subdirectories or a flat `emprof record` directory
//! of segments) into Table-IV-style answers — stall-latency
//! percentiles, event-rate timelines, degraded fractions,
//! refresh-collision counts — over a `[t0, t1]` sample-index window
//! and a session set.
//!
//! ## query-equals-replay
//!
//! The headline invariant: every statistic a query returns is
//! bit-identical to recomputing it from a full replay of the same
//! journals. Four design choices enforce it by construction:
//!
//! 1. The fold is the *same* fold replay uses — one stable sort by
//!    sequence and last-wins dedup, the helper that
//!    [`crate::session::SessionJournal::open`] calls — the statistics are
//!    computed by [`QueryAccumulator`], a pure function both the
//!    engine and any replay-side verifier share, and the engine stops
//!    at the first segment anomaly (duplicate base, bad header,
//!    overlapping coverage, torn tail) exactly where recovery would
//!    discard the rest of the journal.
//! 2. Footer pruning only skips folding a sealed segment whose event
//!    interval `[min_event_start, max_event_end]` cannot intersect
//!    `[t0, t1]`, and only after its records checked out, so a pruned
//!    segment neither holds an in-range event nor hides damage that
//!    ends the prefix. (This leans on the append path journaling each
//!    event sequence exactly once, which the delivery layer guarantees.)
//! 3. The cache stores fully decoded sealed segments, pruned ones
//!    included, validated by file stat on every hit, so the hit path
//!    folds the same records the cold path would read.
//! 4. Cache-missed segments are walked in parallel, on `EMPROF_THREADS`
//!    workers per session, but the fold visits their results in
//!    segment order, and a stat or walk error is raised only when the
//!    fold reaches its segment. The parallel engine therefore answers,
//!    and accounts, exactly as a one-segment-at-a-time loop would.
//!
//! Reads are strictly read-only (the frame walk of [`scan_segment`],
//! never [`crate::journal::Journal::open`], which repairs in place), so
//! querying a live server's journals is safe. Ack-driven compaction
//! can still delete a segment between the directory listing and the
//! read; the engine re-lists and replans (compaction is prefix-only
//! and monotone, so a bounded number of replans always converges).
//!
//! [`scan_segment`]: crate::segment::scan_segment

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use emprof_core::{parallel_map, Parallelism, StallEvent};
use emprof_obs::metrics::{LogHistogram, LOG_BUCKETS};
use emprof_obs::HistogramSnapshot;

use crate::cache::{DecodedSegment, SegmentCache};
use crate::record::{sequenced, Record, Scanned, SegmentFooter, SessionMeta};
use crate::segment::{parse_segment_file_name, scan_segment_with};
use crate::session::fold_by_seq;

/// Upper bound on event-rate timeline buckets per query.
pub const MAX_TIMELINE_BUCKETS: u64 = 4096;

/// How many times a query replans a session after losing a segment to
/// concurrent compaction before giving up. Compaction only ever
/// deletes a monotone prefix, so each replan strictly shrinks the
/// contested range; this bound is never hit outside of pathological
/// delete loops.
const MAX_REPLANS: usize = 5;

/// What to compute, over which window and sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Window start, inclusive, in sample indexes (an event is in
    /// range when its `start_sample` is within `[t0, t1]`).
    pub t0: u64,
    /// Window end, inclusive. `t1 < t0` is a valid empty window.
    pub t1: u64,
    /// Sessions to include; empty means every session found.
    pub sessions: Vec<u64>,
    /// Event-rate timeline bucket width in samples; `0` disables the
    /// timeline. The window must span at most
    /// [`MAX_TIMELINE_BUCKETS`] buckets.
    pub bucket_samples: u64,
}

impl QuerySpec {
    /// The whole journal: every session, every event, no timeline.
    pub fn all() -> QuerySpec {
        QuerySpec {
            t0: 0,
            t1: u64::MAX,
            sessions: Vec::new(),
            bucket_samples: 0,
        }
    }

    /// Whether `session_id` passes the session filter.
    pub fn matches_session(&self, session_id: u64) -> bool {
        self.sessions.is_empty() || self.sessions.contains(&session_id)
    }

    /// Timeline length implied by the window, or an error when it
    /// would exceed [`MAX_TIMELINE_BUCKETS`].
    fn timeline_len(&self) -> io::Result<usize> {
        if self.bucket_samples == 0 || self.t1 < self.t0 {
            return Ok(0);
        }
        let buckets = ((self.t1 - self.t0) / self.bucket_samples).checked_add(1);
        match buckets {
            Some(n) if n <= MAX_TIMELINE_BUCKETS => Ok(n as usize),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "query window spans too many timeline buckets",
            )),
        }
    }
}

/// Per-session statistics row in a [`QueryResult`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuerySessionRow {
    /// The session id.
    pub session_id: u64,
    /// Device label from the session's identity checkpoint.
    pub device: String,
    /// In-range events.
    pub events: u64,
    /// In-range events with degraded confidence.
    pub degraded: u64,
    /// In-range refresh-collision events.
    pub refresh_collisions: u64,
}

/// How much work the engine did (and avoided) answering a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryAccounting {
    /// Segments whose records were folded (from disk or cache).
    pub segments_scanned: u64,
    /// Segments whose footer proved they hold no in-range events, so
    /// their records were checked but not folded.
    pub segments_pruned: u64,
    /// Decoded-segment cache hits.
    pub cache_hits: u64,
    /// Decoded-segment cache misses.
    pub cache_misses: u64,
}

/// The answer to a [`QuerySpec`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryResult {
    /// In-range events across all matched sessions.
    pub events: u64,
    /// Of those, events with degraded confidence.
    pub degraded: u64,
    /// Of those, refresh-collision events.
    pub refresh_collisions: u64,
    /// Stall-latency distribution (duration in cycles, truncated to
    /// integers) over the in-range events; quantiles via
    /// [`HistogramSnapshot::quantile`].
    pub latency: HistogramSnapshot,
    /// Event counts per timeline bucket (empty when the spec disables
    /// the timeline). Bucket `i` covers samples
    /// `[t0 + i*bucket_samples, t0 + (i+1)*bucket_samples)`.
    pub timeline: Vec<u64>,
    /// Per-session rows, ordered by session id.
    pub sessions: Vec<QuerySessionRow>,
    /// Work accounting.
    pub accounting: QueryAccounting,
}

/// The shared statistics fold: both the query engine and replay-side
/// verifiers push `(sequence, event)` streams through this, so
/// query-equals-replay is bit-identity by construction, not by two
/// implementations agreeing.
#[derive(Debug)]
pub struct QueryAccumulator {
    spec: QuerySpec,
    events: u64,
    degraded: u64,
    refresh_collisions: u64,
    /// The stall-latency histogram as plain counters, since one thread
    /// owns the fold: counts in [`LogHistogram`]'s buckets, the wrapping
    /// sum and the extrema. Its count is `events`.
    buckets: [u64; LOG_BUCKETS],
    sum: u64,
    min: u64,
    max: u64,
    timeline: Vec<u64>,
    rows: Vec<QuerySessionRow>,
    /// Work accounting, merged in by the engine; stays zero for pure
    /// replay-side use.
    pub accounting: QueryAccounting,
}

impl QueryAccumulator {
    /// Builds an accumulator for `spec`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the timeline would exceed
    /// [`MAX_TIMELINE_BUCKETS`].
    pub fn new(spec: &QuerySpec) -> io::Result<QueryAccumulator> {
        let timeline = vec![0u64; spec.timeline_len()?];
        Ok(QueryAccumulator {
            spec: spec.clone(),
            events: 0,
            degraded: 0,
            refresh_collisions: 0,
            buckets: [0; LOG_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
            timeline,
            rows: Vec::new(),
            accounting: QueryAccounting::default(),
        })
    }

    /// Folds one session's deduplicated `(sequence, event)` stream.
    /// The caller must already have applied last-wins sequence dedup
    /// (the sort-dedup fold replay also uses); this applies the `[t0,
    /// t1]` range filter and the statistics.
    pub fn add_session<'a, I>(&mut self, session_id: u64, device: &str, events: I)
    where
        I: IntoIterator<Item = &'a (u64, StallEvent)>,
    {
        use emprof_core::{Confidence, StallKind};
        let mut row = QuerySessionRow {
            session_id,
            device: device.to_string(),
            ..QuerySessionRow::default()
        };
        for (_, e) in events {
            let start = e.start_sample as u64;
            if start < self.spec.t0 || start > self.spec.t1 {
                continue;
            }
            row.events += 1;
            if e.confidence == Confidence::Degraded {
                row.degraded += 1;
            }
            if e.kind == StallKind::RefreshCollision {
                row.refresh_collisions += 1;
            }
            // Durations are f64 cycles; the histogram domain is u64.
            // `as` saturates (NaN to 0), identically everywhere.
            let cycles = e.duration_cycles as u64;
            self.buckets[LogHistogram::bucket_index(cycles)] += 1;
            self.sum = self.sum.wrapping_add(cycles);
            self.min = self.min.min(cycles);
            self.max = self.max.max(cycles);
            if !self.timeline.is_empty() {
                let bucket = ((start - self.spec.t0) / self.spec.bucket_samples) as usize;
                self.timeline[bucket] += 1;
            }
        }
        self.events += row.events;
        self.degraded += row.degraded;
        self.refresh_collisions += row.refresh_collisions;
        self.rows.push(row);
    }

    /// Finishes the fold into a [`QueryResult`]. Rows are ordered by
    /// session id so the result is independent of discovery order.
    pub fn finish(mut self) -> QueryResult {
        self.rows.sort_by_key(|r| r.session_id);
        QueryResult {
            events: self.events,
            degraded: self.degraded,
            refresh_collisions: self.refresh_collisions,
            latency: HistogramSnapshot::from_log_counts(
                &self.buckets,
                self.events,
                self.sum,
                self.min,
                self.max,
            ),
            timeline: self.timeline,
            sessions: self.rows,
            accounting: self.accounting,
        }
    }
}

/// Evaluates `spec` over the journals under `root`.
///
/// `root` may be a serve journal root (`session-<id>/` subdirectories)
/// or a flat `emprof record` directory of segments. Sessions without a
/// surviving identity checkpoint contribute nothing (exactly as replay
/// treats them). Pass a [`SegmentCache`] to reuse decoded sealed
/// segments across queries. Each session's cache-missed segments are
/// walked on `EMPROF_THREADS` workers (else one per hardware thread);
/// the answer does not depend on the count.
///
/// # Errors
///
/// Propagates I/O failures and `InvalidInput` for an over-wide
/// timeline; corrupt segments are not errors (the valid prefix
/// contributes, as in replay).
pub fn query_journals(
    root: &Path,
    spec: &QuerySpec,
    cache: Option<&SegmentCache>,
) -> io::Result<QueryResult> {
    query_journals_with(root, spec, cache, Parallelism::resolve(None))
}

/// [`query_journals`] with `par` workers scanning each session's
/// cache-missed segments. The result, accounting included, is the same
/// for every worker count.
pub(crate) fn query_journals_with(
    root: &Path,
    spec: &QuerySpec,
    cache: Option<&SegmentCache>,
    par: Parallelism,
) -> io::Result<QueryResult> {
    let mut acc = QueryAccumulator::new(spec)?;
    for (id_hint, dir) in discover_sessions(root)? {
        // A directory-named session the filter excludes is skipped
        // without touching any of its segments.
        if let Some(id) = id_hint {
            if !spec.matches_session(id) {
                continue;
            }
        }
        query_session(&dir, id_hint, spec, cache, par, &mut acc)?;
    }
    Ok(acc.finish())
}

/// Lists the session directories under a journal root. A root that
/// itself holds segment files (the `emprof record` layout) is a single
/// anonymous session whose id comes from its Meta checkpoint.
fn discover_sessions(root: &Path) -> io::Result<Vec<(Option<u64>, PathBuf)>> {
    let mut sessions: Vec<(Option<u64>, PathBuf)> = Vec::new();
    let mut has_segments = false;
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let ft = entry.file_type()?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if ft.is_dir() {
            if let Some(id) = name
                .strip_prefix("session-")
                .and_then(|s| s.parse::<u64>().ok())
            {
                sessions.push((Some(id), entry.path()));
            }
        } else if ft.is_file() && parse_segment_file_name(&name).is_some() {
            has_segments = true;
        }
    }
    if sessions.is_empty() && has_segments {
        sessions.push((None, root.to_path_buf()));
    }
    sessions.sort_by_key(|(id, _)| *id);
    Ok(sessions)
}

/// Queries one session directory, replanning when compaction deletes a
/// listed segment out from under the read.
fn query_session(
    dir: &Path,
    id_hint: Option<u64>,
    spec: &QuerySpec,
    cache: Option<&SegmentCache>,
    par: Parallelism,
    acc: &mut QueryAccumulator,
) -> io::Result<()> {
    for _ in 0..MAX_REPLANS {
        match query_session_once(dir, spec, cache, par) {
            Ok(None) => return Ok(()),
            Ok(Some((meta, events, acct))) => {
                acc.accounting.segments_scanned += acct.segments_scanned;
                acc.accounting.segments_pruned += acct.segments_pruned;
                acc.accounting.cache_hits += acct.cache_hits;
                acc.accounting.cache_misses += acct.cache_misses;
                let session_id = id_hint.unwrap_or(meta.session_id);
                if spec.matches_session(session_id) {
                    acc.add_session(session_id, &meta.device, events.iter());
                }
                return Ok(());
            }
            // A listed segment vanished: ack-driven compaction beat us
            // to it. Re-list and replan; the partial attempt's
            // accounting is discarded so nothing double-counts.
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::other(
        "query lost a segment to compaction on every replan",
    ))
}

type SessionRead = (SessionMeta, Vec<(u64, StallEvent)>, QueryAccounting);

/// One listed segment as planned: its stat and, when the cache holds a
/// valid entry for it, that entry.
struct Planned<'a> {
    base: u64,
    path: &'a Path,
    stat: io::Result<(u64, Option<SystemTime>)>,
    hit: Option<Arc<DecodedSegment>>,
}

/// A cache-missed segment after its checked walk, reduced to what the
/// fold reads.
struct Walked {
    base_index: u64,
    /// Records in the valid prefix, a footer included.
    records: u64,
    torn: bool,
    /// The tail footer of a sealed segment: a clean walk ending in it.
    footer: Option<SegmentFooter>,
    /// The segment's last identity checkpoint.
    meta: Option<SessionMeta>,
    events: Vec<(u64, StallEvent)>,
}

/// Walks one segment and checks it as recovery walks it; `None` is an
/// invalid header. Samples are checked, never decoded: no query reads
/// them.
fn walk(path: &Path) -> io::Result<Option<Walked>> {
    let Some(scan) = scan_segment_with(path, Scanned::read)? else {
        return Ok(None);
    };
    let footer = match scan.records.last() {
        Some((_, Scanned::Record(Record::Footer(f)))) if !scan.torn => Some(*f),
        _ => None,
    };
    let records = scan.records.len() as u64;
    let mut meta = None;
    let mut events = Vec::new();
    for (_, rec) in scan.records {
        match rec {
            Scanned::Record(Record::Meta(m)) => meta = Some(m),
            Scanned::Record(Record::Events {
                first_seq,
                events: batch,
            }) => events.extend(sequenced(first_seq, &batch)),
            _ => {}
        }
    }
    Ok(Some(Walked {
        base_index: scan.base_index,
        records,
        torn: scan.torn,
        footer,
        meta,
        events,
    }))
}

/// One read attempt over a session directory snapshot. `NotFound` from
/// any segment read means the snapshot went stale (compaction); the
/// caller replans.
///
/// Three phases: plan (stat every listed segment and look it up in the
/// cache, in list order), fan out (walk the cache misses on `par`
/// workers), fold (the valid-prefix state machine, in segment order).
/// A stat or walk error is held until the fold reaches its segment, so
/// a segment past the first anomaly never fails or replans the query.
fn query_session_once(
    dir: &Path,
    spec: &QuerySpec,
    cache: Option<&SegmentCache>,
    par: Parallelism,
) -> io::Result<Option<SessionRead>> {
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(base) = parse_segment_file_name(name) {
            segs.push((base, entry.path()));
        }
    }
    segs.sort_by_key(|s| s.0);
    if segs.is_empty() {
        return Ok(None);
    }
    // A duplicate base ends the plan: recovery keeps the first copy and
    // drops the rest of the journal.
    if let Some(dup) = segs.windows(2).position(|w| w[0].0 == w[1].0) {
        segs.truncate(dup + 1);
    }
    let plan: Vec<Planned> = segs
        .iter()
        .map(|(base, path)| {
            let stat = fs::metadata(path).map(|md| (md.len(), md.modified().ok()));
            let hit = match (cache, &stat) {
                (Some(c), Ok((len, modified))) => c.get(dir, *base, *len, *modified),
                _ => None,
            };
            Planned {
                base: *base,
                path,
                stat,
                hit,
            }
        })
        .collect();
    let misses: Vec<&Path> = plan
        .iter()
        .filter(|p| p.stat.is_ok() && p.hit.is_none())
        .map(|p| p.path)
        .collect();
    let mut walks = parallel_map(par, &misses, |path| walk(path)).into_iter();

    let mut meta: Option<SessionMeta> = None;
    let mut folded: Vec<(u64, StallEvent)> = Vec::new();
    let mut acct = QueryAccounting::default();
    // Replay's valid-prefix state machine, mirrored record for record:
    // recovery (`Journal::open`) discards everything after the first
    // anomaly — a duplicate base, a bad or mismatched header,
    // overlapping index coverage, or a torn tail — so a bit-identical
    // query must stop folding at exactly the same segment.
    let mut next_index = 0u64;
    for (i, p) in plan.into_iter().enumerate() {
        let (base, (file_len, modified)) = (p.base, p.stat?);
        if let Some(seg) = p.hit {
            acct.cache_hits += 1;
            if base < next_index {
                // Overlapping coverage: outside the valid prefix.
                break;
            }
            meta = seg.meta.clone().or(meta);
            // The first retained segment always folds: checkpoint
            // discipline puts the session's Meta at its head, and
            // pruning decisions only ever skip event payloads.
            if i > 0 && !seg.footer.overlaps(spec.t0, spec.t1) {
                acct.segments_pruned += 1;
            } else {
                folded.extend_from_slice(&seg.events);
                acct.segments_scanned += 1;
            }
            // The scan recovery would run counts the footer record
            // itself; the footer's own record_count does not.
            next_index = base + seg.footer.record_count + 1;
            continue;
        }
        if cache.is_some() {
            acct.cache_misses += 1;
        }
        // Every segment is walked and checked as recovery walks it, a
        // pruned one too: a tail footer survives damage further in, and
        // recovery ends the prefix there.
        let Some(w) = walks.next().expect("one walk per cache miss")? else {
            // Invalid header: recovery drops this file and everything
            // after it.
            break;
        };
        if w.base_index != base || w.base_index < next_index {
            // A header disagreeing with the file name, or claiming an
            // index range an earlier segment already covers: named
            // corruption, end of the valid prefix.
            break;
        }
        next_index = w.base_index + w.records;
        // A pruned segment's checkpoint still counts, as on a hit and in
        // replay: pruning only ever skips event payloads.
        meta = w.meta.clone().or(meta);
        if i > 0 && w.footer.is_some_and(|f| !f.overlaps(spec.t0, spec.t1)) {
            acct.segments_pruned += 1;
        } else {
            folded.extend_from_slice(&w.events);
            acct.segments_scanned += 1;
        }
        // Only a sealed segment is immutable and safe to cache; a
        // pruned one too, so warm queries need not walk it again.
        if let (Some(c), Some(footer)) = (cache, w.footer) {
            c.insert(
                dir,
                base,
                Arc::new(DecodedSegment {
                    base_index: base,
                    meta: w.meta,
                    events: w.events,
                    footer,
                    file_len,
                    modified,
                }),
            );
        }
        if w.torn {
            // Recovery truncates a torn segment to its valid prefix
            // (which we just folded) and drops every later segment.
            break;
        }
    }
    let Some(meta) = meta else {
        // No identity checkpoint survived: replay discards such a
        // journal, so queries do too.
        return Ok(None);
    };
    Ok(Some((meta, fold_by_seq(folded), acct)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalConfig;
    use crate::session::SessionJournal;
    use emprof_core::{Confidence, EmprofConfig, StallKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emprof-store-query-{}-{}-{tag}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(id: u64) -> SessionMeta {
        SessionMeta {
            session_id: id,
            resume_token: 9,
            sample_rate_hz: 40e6,
            clock_hz: 1.0e9,
            config: EmprofConfig::for_rates(40e6, 1.0e9),
            device: format!("dev-{id}"),
        }
    }

    fn ev(start: usize, dur: f64, kind: StallKind, conf: Confidence) -> StallEvent {
        StallEvent {
            start_sample: start,
            end_sample: start + 10,
            duration_cycles: dur,
            kind,
            confidence: conf,
        }
    }

    fn small_cfg() -> JournalConfig {
        JournalConfig {
            segment_bytes: 256,
            sync_on_append: false,
            ..Default::default()
        }
    }

    /// Writes one session with events at start = seq * 1000.
    fn write_session(dir: &Path, id: u64, n: u64) {
        let mut sj = SessionJournal::create(dir, meta(id), small_cfg()).unwrap();
        for seq in 1..=n {
            let kind = if seq % 5 == 0 {
                StallKind::RefreshCollision
            } else {
                StallKind::Normal
            };
            let conf = if seq % 3 == 0 {
                Confidence::Degraded
            } else {
                Confidence::High
            };
            sj.append_events(
                seq,
                &[ev((seq * 1000) as usize, 100.0 + seq as f64, kind, conf)],
            )
            .unwrap();
        }
        sj.sync().unwrap();
    }

    #[test]
    fn query_matches_replay_fold() {
        let root = tmp_dir("replayeq");
        write_session(&root.join("session-1"), 1, 40);
        let spec = QuerySpec {
            t0: 5_000,
            t1: 20_000,
            sessions: Vec::new(),
            bucket_samples: 1000,
        };
        let got = query_journals(&root, &spec, None).unwrap();

        // Replay side: full recovery fold, same accumulator.
        let rec = crate::session::read_session(&root.join("session-1"), small_cfg())
            .unwrap()
            .unwrap();
        let mut acc = QueryAccumulator::new(&spec).unwrap();
        acc.add_session(1, &rec.meta.device, rec.events.iter());
        let want = acc.finish();
        assert_eq!(got.events, want.events);
        assert_eq!(got.latency, want.latency);
        assert_eq!(got.timeline, want.timeline);
        assert_eq!(got.sessions, want.sessions);
        assert_eq!(got.events, 16, "starts 5000..=20000 inclusive");
        fs::remove_dir_all(&root).unwrap();
    }

    /// The fold's latency histogram against the concurrent
    /// [`LogHistogram`] fed the same `duration_cycles as u64` values:
    /// every bucket edge, the saturating casts, a sum that wraps, and
    /// extrema that span sessions.
    #[test]
    fn latency_fold_equals_a_log_histogram() {
        fn oracle(h: &LogHistogram) -> HistogramSnapshot {
            HistogramSnapshot {
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                buckets: h.nonzero_buckets(),
            }
        }
        let empty = QueryAccumulator::new(&QuerySpec::all()).unwrap().finish();
        assert_eq!(empty.latency, oracle(&LogHistogram::new()));
        assert_eq!((empty.latency.min, empty.latency.max), (None, None));

        let mut durations = vec![
            0.0,
            -0.0,
            0.25,
            0.999,
            1.5,
            2.5,
            f64::NAN,
            -3.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            1e30,
            u64::MAX as f64,
            f64::MAX,
        ];
        for k in 0..64 {
            let p = 1u64 << k;
            durations.extend([(p - 1) as f64, p as f64, (p + 1) as f64]);
            durations.extend([p as f64 - 0.5, p as f64 + 0.5]);
        }
        let wide: u128 = durations.iter().map(|&d| (d as u64) as u128).sum();
        assert!(wide > u64::MAX as u128, "the sum must wrap");

        let h = LogHistogram::new();
        let mut acc = QueryAccumulator::new(&QuerySpec::all()).unwrap();
        let (first, second) = durations.split_at(durations.len() / 2);
        for (session, part) in [(1, first), (2, second)] {
            let events: Vec<(u64, StallEvent)> = part
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    h.record(d as u64);
                    (i as u64, ev(i * 10, d, StallKind::Normal, Confidence::High))
                })
                .collect();
            acc.add_session(session, "dev", events.iter());
        }
        let got = acc.finish();
        assert_eq!(got.latency, oracle(&h));
        assert_eq!(got.latency.count, durations.len() as u64);
        assert_eq!(
            (got.latency.min, got.latency.max),
            (Some(0), Some(u64::MAX))
        );
    }

    #[test]
    fn range_query_prunes_segments() {
        let root = tmp_dir("prune");
        let dir = root.join("session-1");
        write_session(&dir, 1, 60);
        let all = query_journals(&root, &QuerySpec::all(), None).unwrap();
        assert!(
            all.accounting.segments_scanned > 4,
            "need a multi-segment journal, got {:?}",
            all.accounting
        );
        assert_eq!(all.accounting.segments_pruned, 0);
        // A narrow window must read strictly fewer segments.
        let narrow = query_journals(
            &root,
            &QuerySpec {
                t0: 55_000,
                t1: 60_000,
                sessions: Vec::new(),
                bucket_samples: 0,
            },
            None,
        )
        .unwrap();
        assert!(narrow.accounting.segments_pruned > 0);
        assert!(narrow.accounting.segments_scanned < all.accounting.segments_scanned);
        assert_eq!(narrow.events, 6, "seqs 55..=60");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cached_and_cold_results_are_identical() {
        let root = tmp_dir("cachecoherent");
        write_session(&root.join("session-3"), 3, 50);
        let spec = QuerySpec {
            t0: 0,
            t1: 30_000,
            sessions: Vec::new(),
            bucket_samples: 0,
        };
        let cold = query_journals(&root, &spec, None).unwrap();
        let cache = SegmentCache::default();
        let first = query_journals(&root, &spec, Some(&cache)).unwrap();
        let second = query_journals(&root, &spec, Some(&cache)).unwrap();
        assert!(second.accounting.cache_hits > 0, "{:?}", second.accounting);
        for r in [&first, &second] {
            assert_eq!(r.events, cold.events);
            assert_eq!(r.latency, cold.latency);
            assert_eq!(r.sessions, cold.sessions);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn session_filter_and_flat_layout() {
        let root = tmp_dir("filterflat");
        write_session(&root.join("session-1"), 1, 5);
        write_session(&root.join("session-2"), 2, 5);
        let only2 = query_journals(
            &root,
            &QuerySpec {
                sessions: vec![2],
                ..QuerySpec::all()
            },
            None,
        )
        .unwrap();
        assert_eq!(only2.sessions.len(), 1);
        assert_eq!(only2.sessions[0].session_id, 2);
        assert_eq!(only2.sessions[0].device, "dev-2");

        // Flat layout: segments directly in the root.
        let flat = tmp_dir("flat");
        write_session(&flat, 9, 4);
        let r = query_journals(&flat, &QuerySpec::all(), None).unwrap();
        assert_eq!(r.sessions.len(), 1);
        assert_eq!(r.sessions[0].session_id, 9, "id from Meta checkpoint");
        assert_eq!(r.events, 4);
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&flat).unwrap();
    }

    #[test]
    fn empty_window_and_empty_root() {
        let root = tmp_dir("empty");
        write_session(&root.join("session-1"), 1, 5);
        let spec = QuerySpec {
            t0: 10,
            t1: 5,
            sessions: Vec::new(),
            bucket_samples: 100,
        };
        let r = query_journals(&root, &spec, None).unwrap();
        assert_eq!(r.events, 0);
        assert_eq!(r.timeline, Vec::<u64>::new());
        assert_eq!(r.latency.count, 0);
        // An empty directory is an empty result, not an error.
        let none = tmp_dir("none");
        fs::create_dir_all(&none).unwrap();
        let r = query_journals(&none, &QuerySpec::all(), None).unwrap();
        assert_eq!(r.sessions.len(), 0);
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&none).unwrap();
    }

    #[test]
    fn oversized_timeline_is_rejected() {
        let spec = QuerySpec {
            t0: 0,
            t1: u64::MAX,
            sessions: Vec::new(),
            bucket_samples: 1,
        };
        assert!(spec.timeline_len().is_err());
    }

    #[test]
    fn warm_window_query_misses_only_unsealed_tails() {
        let root = tmp_dir("prunecache");
        write_session(&root.join("session-1"), 1, 60);
        write_session(&root.join("session-2"), 2, 60);
        let spec = QuerySpec {
            t0: 55_000,
            t1: 60_000,
            sessions: Vec::new(),
            bucket_samples: 0,
        };
        let cache = SegmentCache::default();
        let first = query_journals(&root, &spec, Some(&cache)).unwrap();
        assert!(
            first.accounting.segments_pruned > 0,
            "{:?}",
            first.accounting
        );
        let second = query_journals(&root, &spec, Some(&cache)).unwrap();
        // Pruned sealed segments were cached by the first query and stay
        // pruned on a hit; only each session's open tail is walked again.
        assert_eq!(second.accounting.cache_misses, 2, "{:?}", second.accounting);
        assert_eq!(
            second.accounting.segments_pruned,
            first.accounting.segments_pruned
        );
        assert_eq!(
            second.accounting.segments_scanned,
            first.accounting.segments_scanned
        );
        assert_eq!(second.events, first.events);
        assert_eq!(second.latency, first.latency);
        assert_eq!(second.sessions, first.sessions);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pruned_segment_checkpoint_counts_cold_and_warm() {
        // A later checkpoint sits in a segment the window prunes, and the
        // open tail holds none: replay's last Meta is the pruned one's.
        let root = tmp_dir("prunedmeta");
        let dir = root.join("session-4");
        let mut j = crate::journal::Journal::open_with(&dir, small_cfg())
            .unwrap()
            .journal;
        let events = |seq: u64, start: usize| Record::Events {
            first_seq: seq,
            events: vec![ev(start, 100.0, StallKind::Normal, Confidence::High)],
        };
        let mut renamed = meta(4);
        renamed.device = "dev-4-renamed".into();
        j.append(&Record::Meta(meta(4))).unwrap();
        j.append(&events(1, 1_000)).unwrap();
        j.roll().unwrap();
        j.append(&Record::Meta(renamed)).unwrap();
        j.append(&events(2, 50_000)).unwrap();
        j.roll().unwrap();
        j.append(&events(3, 90_000)).unwrap();
        j.sync().unwrap();
        drop(j);
        let spec = QuerySpec {
            t0: 0,
            t1: 2_000,
            sessions: Vec::new(),
            bucket_samples: 0,
        };
        let cache = SegmentCache::default();
        for _ in 0..2 {
            let r = query_journals(&root, &spec, Some(&cache)).unwrap();
            assert_eq!(r.accounting.segments_pruned, 1, "{:?}", r.accounting);
            assert_eq!(r.sessions[0].device, "dev-4-renamed");
            assert_eq!(r.events, 1);
        }
        let rec = crate::session::read_session(&dir, small_cfg())
            .unwrap()
            .unwrap();
        assert_eq!(rec.meta.device, "dev-4-renamed");
        fs::remove_dir_all(&root).unwrap();
    }

    /// The segment files of one session directory, in base order.
    fn segment_paths(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "emj"))
            .collect();
        paths.sort();
        paths
    }

    /// Queries `root` on one worker and on four, each side with a fresh
    /// cache: uncached, cold and warm, then warm again after every third
    /// segment of each session is restamped, which mixes hits and misses
    /// within a session. Every result must agree, accounting included.
    fn assert_parallel_equals_sequential(root: &Path) -> Vec<QueryResult> {
        static STAMP: AtomicU64 = AtomicU64::new(1_000_000);
        let specs = [
            QuerySpec::all(),
            QuerySpec {
                t0: 22_000,
                t1: 31_000,
                sessions: Vec::new(),
                bucket_samples: 500,
            },
            QuerySpec {
                sessions: vec![2],
                ..QuerySpec::all()
            },
        ];
        let runs = |threads: usize| -> Vec<QueryResult> {
            let par = Parallelism::new(threads);
            let cache = SegmentCache::default();
            let mut out = Vec::new();
            for spec in &specs {
                out.push(query_journals_with(root, spec, None, par).unwrap());
                out.push(query_journals_with(root, spec, Some(&cache), par).unwrap());
                out.push(query_journals_with(root, spec, Some(&cache), par).unwrap());
            }
            for session in ["session-1", "session-2"] {
                for p in segment_paths(&root.join(session)).iter().step_by(3) {
                    let secs = STAMP.fetch_add(1, Ordering::Relaxed);
                    let f = fs::OpenOptions::new().write(true).open(p).unwrap();
                    f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs))
                        .unwrap();
                }
            }
            for spec in &specs {
                out.push(query_journals_with(root, spec, Some(&cache), par).unwrap());
            }
            out
        };
        let seq = runs(1);
        assert_eq!(runs(4), seq);
        seq
    }

    #[test]
    fn parallel_scan_equals_sequential_on_damaged_journals() {
        type Damage = fn(&[PathBuf]);
        let cases: [(&str, Damage); 5] = [
            ("crc", |segs| {
                // A payload byte of a middle segment's second record.
                let mut bytes = fs::read(&segs[3]).unwrap();
                let at = bytes.len() / 2;
                bytes[at] ^= 0xff;
                fs::write(&segs[3], bytes).unwrap();
            }),
            ("dupbase", |segs| {
                // An identical twin whose name parses to the same base.
                let name = segs[4].file_name().unwrap().to_str().unwrap();
                let base = parse_segment_file_name(name).unwrap();
                fs::copy(&segs[4], segs[4].with_file_name(format!("seg-{base}.emj"))).unwrap();
            }),
            ("mismatch", |segs| {
                // A valid header naming another base than the file name.
                let mut bytes = fs::read(&segs[3]).unwrap();
                let name = segs[3].file_name().unwrap().to_str().unwrap();
                let base = parse_segment_file_name(name).unwrap();
                bytes[..crate::segment::SEGMENT_HEADER_LEN]
                    .copy_from_slice(&crate::segment::encode_segment_header(base + 1));
                fs::write(&segs[3], bytes).unwrap();
            }),
            ("torn", |segs| {
                // A middle segment and the open tail both lose their ends.
                for p in [&segs[5], segs.last().unwrap()] {
                    let len = fs::metadata(p).unwrap().len();
                    let f = fs::OpenOptions::new().write(true).open(p).unwrap();
                    f.set_len(len - 3).unwrap();
                }
            }),
            ("clean", |_| {}),
        ];
        for (tag, damage) in cases {
            let root = tmp_dir(tag);
            write_session(&root.join("session-1"), 1, 60);
            write_session(&root.join("session-2"), 2, 60);
            let segs = segment_paths(&root.join("session-2"));
            assert!(segs.len() > 8, "{tag}: {} segments", segs.len());
            damage(&segs);
            let results = assert_parallel_equals_sequential(&root);
            let damaged = results[0]
                .sessions
                .iter()
                .find(|r| r.session_id == 2)
                .unwrap();
            assert_eq!(damaged.events < 60, tag != "clean", "{tag}: {damaged:?}");
            let mixed = results[9].accounting;
            assert!(
                mixed.cache_hits > 0 && mixed.cache_misses > 2,
                "{tag}: {mixed:?}"
            );
            fs::remove_dir_all(&root).unwrap();
        }
    }
}
