//! `journal_query`: the journal's read side.
//!
//! Set-up streams seeded sessions through a journaled server without
//! finishing them, so each session keeps several footered, sealed
//! segments, then stops the server without finalizing (the directory is
//! left exactly as written). One thread then runs a closed loop of
//! `query_journals` calls over four shapes: the full range, a narrow
//! window footers can prune, one session, and a timeline. One operation
//! runs two shapes cold (each with a fresh `SegmentCache`) and then cached
//! (one warm cache); operations alternate between the two pairs. "Cold"
//! means the decode cache is empty; the OS page cache still holds the
//! segment files.
//!
//! Every result must equal a `QueryAccumulator` fold over
//! `read_session` replay of the same directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use emprof_core::accuracy::count_accuracy;
use emprof_core::EmprofConfig;
use emprof_serve::ProfileClient;
use emprof_store::{
    query_journals, read_segment_footer, read_session, JournalConfig, QueryAccounting,
    QueryAccumulator, QueryResult, QuerySpec, SegmentCache,
};

use crate::pool::Pool;
use crate::serve::{client_config, journaled_server, FLUSH_EVERY, FRAME};
use crate::speed::HostSpeed;
use crate::trace::Recorder;
use crate::util::{median, quantile, Rng, CLK, FS};
use crate::{alternate, closed_loop, Measured, Metric, Traced, Workload};

const SESSIONS: usize = 2;
/// Two sealed segments of the server's 4 MiB target (64 frames each)
/// and a short open tail per session.
const SESSION_SAMPLES: usize = 130 * FRAME;

pub struct JournalQuery {
    dir: PathBuf,
    shapes: Vec<QuerySpec>,
    references: Vec<QueryResult>,
    warm: SegmentCache,
    segment_files: Vec<PathBuf>,
    segment_bytes: u64,
    stall_accuracy: f64,
}

/// A result with its work accounting cleared, for comparing answers.
fn answer(mut r: QueryResult) -> QueryResult {
    r.accounting = QueryAccounting::default();
    r
}

impl JournalQuery {
    pub fn setup(seed: u64, work: &Path) -> JournalQuery {
        let mut rng = Rng::new(seed);
        let dir = work.join("journal_query");
        let cfg = EmprofConfig::for_rates(FS, CLK);
        let pool = Pool::simulate(&mut rng);
        let server = journaled_server(&dir);
        let mut ids = Vec::new();
        let mut truth_cycles = 0.0;
        for _ in 0..SESSIONS {
            let signal = pool.signal(&mut rng, SESSION_SAMPLES);
            truth_cycles += signal.stall_cycles;
            let mut client = ProfileClient::connect_with(
                server.local_addr(),
                "perfbench",
                cfg,
                FS,
                CLK,
                client_config(),
            )
            .expect("open session");
            for (j, frame) in signal.samples.chunks(FRAME).enumerate() {
                client.send(frame).expect("stream frame");
                if (j + 1) % FLUSH_EVERY == 0 {
                    client.flush().expect("flush");
                }
            }
            // The last flush acks everything outstanding; the session is
            // left unfinished so its journal stays on disk.
            client.flush().expect("final flush");
            ids.push(client.session_id());
        }
        server.kill();

        let span = SESSION_SAMPLES as u64;
        let shapes = vec![
            QuerySpec::all(),
            // Inside each session's first segment, which always folds
            // (it holds the identity checkpoint): the sealed second
            // segment's footer proves it out of range.
            QuerySpec {
                t0: span / 8,
                t1: span / 8 + span / 20,
                ..QuerySpec::all()
            },
            QuerySpec {
                sessions: vec![ids[0]],
                ..QuerySpec::all()
            },
            QuerySpec {
                t0: 0,
                t1: span,
                bucket_samples: span / 1024 + 1,
                ..QuerySpec::all()
            },
        ];
        // Replay first: `read_session` repairs torn tails in place, after
        // which the directory is a fixed point for every query.
        let references: Vec<QueryResult> = shapes.iter().map(|s| replay(&dir, s)).collect();
        let mut segment_files = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("journal root") {
            let session = entry.expect("journal entry").path();
            if !session.is_dir() {
                continue;
            }
            for seg in std::fs::read_dir(&session).expect("session dir") {
                let seg = seg.expect("segment entry").path();
                if seg.extension().is_some_and(|e| e == "emj") {
                    segment_files.push(seg);
                }
            }
        }
        segment_files.sort();
        let segment_bytes = segment_files
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
        let warm = SegmentCache::default();
        for s in &shapes {
            query_journals(&dir, s, Some(&warm)).expect("warm the cache");
        }
        JournalQuery {
            stall_accuracy: count_accuracy(references[0].latency.sum as f64, truth_cycles),
            dir,
            shapes,
            references,
            warm,
            segment_files,
            segment_bytes,
        }
    }

    /// One operation: two of the four shapes cold, then the same two
    /// cached. Pair 0 is the full range and the narrow window, pair 1 the
    /// session filter and the timeline; each pair scans about the same
    /// bytes, so every operation costs about the same. Returns whether all
    /// answers equal replay, and each query's result and time.
    fn op(&self, pair: usize, rec: &mut Recorder) -> ((bool, Vec<(QueryResult, f64)>), f64) {
        let shapes = 2 * (pair % 2)..2 * (pair % 2) + 2;
        rec.op("op", |rec| {
            let mut ok = true;
            let mut runs = Vec::with_capacity(4);
            for cold in [true, false] {
                for (spec, reference) in self.shapes[shapes.clone()]
                    .iter()
                    .zip(&self.references[shapes.clone()])
                {
                    let fresh;
                    let cache = if cold {
                        fresh = SegmentCache::default();
                        &fresh
                    } else {
                        &self.warm
                    };
                    let name = if cold {
                        "store.query.cold"
                    } else {
                        "store.query.cached"
                    };
                    let t = Instant::now();
                    match rec.span(name, |_| query_journals(&self.dir, spec, Some(cache))) {
                        Ok(r) => {
                            let s = t.elapsed().as_secs_f64();
                            ok &= answer(r.clone()) == *reference;
                            runs.push((r, s));
                        }
                        Err(e) => {
                            eprintln!("journal_query: query failed: {e}");
                            ok = false;
                        }
                    }
                }
            }
            (ok, runs)
        })
    }
}

impl Workload for JournalQuery {
    fn measure(&mut self, seconds: f64, speed: HostSpeed) -> Measured {
        let mut rec = Recorder::new(false);
        let (mut cold, mut cached) = (Vec::new(), Vec::new());
        let mut m = closed_loop(seconds, speed, |k| {
            let ((ok, runs), s) = self.op(k, &mut rec);
            cold.extend(runs.iter().take(2).map(|(_, s)| s * 1e3));
            cached.extend(runs.iter().skip(2).map(|(_, s)| s * 1e3));
            (ok, s, runs.len() as f64)
        });
        m.stall_accuracy = self.stall_accuracy;
        // Per query, in wall milliseconds.
        m.alias("query_cold_p50_ms", median(&cold), "ms");
        m.alias("query_cold_p90_ms", quantile(&cold, 0.9), "ms");
        m.alias("query_cached_p50_ms", median(&cached), "ms");
        m.alias("query_cached_p99_ms", quantile(&cached, 0.99), "ms");
        m.alias("queries_per_kind", cold.len() as f64, "count");
        m
    }

    fn traced(&mut self, seconds: f64, rec: &mut Recorder) -> Traced {
        let (mut cold_ms, mut cached_ms) = (Vec::new(), Vec::new());
        let mut cold_acc = QueryAccounting::default();
        let mut cached_acc = QueryAccounting::default();
        let mut t = alternate(seconds, 4, rec, |k, rec| {
            let ((mut ok, runs), s) = self.op(k / 2, rec);
            if rec.is_enabled() {
                for (i, (r, s)) in runs.iter().enumerate() {
                    let (acc, ms) = if i < 2 {
                        (&mut cold_acc, &mut cold_ms)
                    } else {
                        (&mut cached_acc, &mut cached_ms)
                    };
                    acc.segments_scanned += r.accounting.segments_scanned;
                    acc.segments_pruned += r.accounting.segments_pruned;
                    acc.cache_hits += r.accounting.cache_hits;
                    acc.cache_misses += r.accounting.cache_misses;
                    ms.push(s * 1e3);
                }
                // Footer reads on their own: the cost pruning pays per
                // segment.
                for path in &self.segment_files {
                    let (r, _) = rec.op("footer", |rec| {
                        rec.span("store.footer", |_| read_segment_footer(path))
                    });
                    ok &= r.is_ok();
                }
            }
            (ok, s)
        });
        let tot = rec.totals();
        // Two traced operations cover the four shapes once.
        let rotations = t.traced_op_s.len() as f64 / 2.0;
        let mean_segment = self.segment_bytes as f64 / self.segment_files.len() as f64;
        let scanned_mb = cold_acc.segments_scanned as f64 * mean_segment / 1e6;
        let cold_s = tot["store.query.cold"].wall_ns as f64 / 1e9;
        let footer = tot["store.footer"];
        let looked_at = (cold_acc.segments_scanned + cold_acc.segments_pruned) as f64;
        t.metrics = vec![
            Metric::new(
                "query.segments_scanned",
                cold_acc.segments_scanned as f64 / rotations,
                "count",
            ),
            Metric::new(
                "query.segments_pruned",
                cold_acc.segments_pruned as f64 / rotations,
                "count",
            ),
            Metric::new(
                "query.prune_frac",
                cold_acc.segments_pruned as f64 / looked_at,
                "ratio",
            ),
            Metric::new("query.cold_scan_mb_per_s", scanned_mb / cold_s, "MB/s"),
            Metric::new(
                "store.footer_read_us",
                footer.wall_ns as f64 / footer.count.max(1) as f64 / 1e3,
                "us",
            ),
            Metric::new(
                "query.cache_hit_frac",
                cached_acc.cache_hits as f64
                    / (cached_acc.cache_hits + cached_acc.cache_misses).max(1) as f64,
                "ratio",
            ),
            Metric::new("query.cold_p50_ms", median(&cold_ms), "ms"),
            Metric::new("query.cached_p50_ms", median(&cached_ms), "ms"),
        ];
        t.summary = format!(
            "cold {:.0} MB/s over {} segments ({:.0}% pruned), cached hit {:.0}% \
             (cold = empty decode cache, OS page cache warm)",
            t.metrics[3].value,
            self.segment_files.len(),
            t.metrics[2].value * 100.0,
            t.metrics[5].value * 100.0
        );
        t
    }

    fn corrupt_reference(&mut self) {
        self.references[0].events += 1;
    }
}

impl Drop for JournalQuery {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The replay oracle: every session directory read back with
/// `read_session` and folded through the same `QueryAccumulator`.
fn replay(root: &Path, spec: &QuerySpec) -> QueryResult {
    let mut dirs: Vec<(u64, PathBuf)> = std::fs::read_dir(root)
        .expect("journal root")
        .filter_map(|e| {
            let e = e.ok()?;
            let id = e
                .file_name()
                .to_str()?
                .strip_prefix("session-")?
                .parse()
                .ok()?;
            Some((id, e.path()))
        })
        .collect();
    dirs.sort();
    let mut acc = QueryAccumulator::new(spec).expect("valid spec");
    for (id, dir) in dirs {
        if !spec.matches_session(id) {
            continue;
        }
        if let Some(rec) = read_session(&dir, JournalConfig::default()).expect("replay") {
            acc.add_session(id, &rec.meta.device, rec.events.iter());
        }
    }
    answer(acc.finish())
}
