//! Sessions: one [`StreamingEmprof`] per connected producer, held in a
//! registry keyed by session id.
//!
//! A session outlives any single socket read: the connection reader
//! enqueues work into the session's bounded queue, a pool worker drains
//! the queue under the session lock, and the registry's reaper removes
//! sessions whose producers went silent (a dead IoT node must not pin a
//! detector forever). Finalizing a session — whether by FIN, by server
//! shutdown, or by the reaper — always runs `finish()`, so trailing
//! events are never lost.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use emprof_core::{Confidence, EmprofConfig, StallEvent, StreamingEmprof};
use emprof_obs as obs;
use emprof_obs::metrics::Meter;
use emprof_obs::FlightRecorder;
use emprof_store::{RecoveredSession, SessionJournal};

use crate::proto::{SessionRow, SessionStatsWire};
use crate::queue::BoundedQueue;

/// Flight-recorder ring bound per session: enough tail to reconstruct
/// what led up to a fault without unbounded memory.
const FLIGHT_CAPACITY: usize = 256;

/// Number of events in `events` carrying a degraded-confidence mark.
fn count_degraded(events: &[StallEvent]) -> u64 {
    events
        .iter()
        .filter(|e| e.confidence == Confidence::Degraded)
        .count() as u64
}

/// Splitmix64 finalizer: the session trace id is derived from the
/// resume token, so it is stable across resumes *and* across server
/// restarts (the token is journaled in the session's identity record).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reply to a FLUSH marker: every event not yet acknowledged by the
/// client, plus a stats snapshot taken after the drain.
///
/// Delivery is cursor-driven, not send-driven: answering a FLUSH does
/// *not* mark anything delivered. The cursor only advances when the
/// client acknowledges sequences (EVENTS_ACK), so a reply lost on the
/// wire is simply re-sent on the next FLUSH and deduplicated by the
/// client against `first_seq`.
#[derive(Debug)]
pub struct FlushReply {
    /// Sequence number of `events[0]` (= acked cursor + 1).
    pub first_seq: u64,
    /// Every finalized event past the acknowledged cursor.
    pub events: Vec<StallEvent>,
    /// Post-drain progress counters.
    pub stats: SessionStatsWire,
}

/// One unit of work in a session's ingest queue.
#[derive(Debug)]
pub enum Work {
    /// A batch of magnitude samples from a SAMPLES frame.
    Samples(Vec<f64>),
    /// Deliver pending events through the channel (FLUSH).
    Flush(mpsc::SyncSender<FlushReply>),
    /// Finalize the detector and deliver everything (FIN).
    Fin(mpsc::SyncSender<FlushReply>),
}

impl Work {
    /// Whether shed mode may drop this item. Only sample batches are
    /// sheddable; control markers carry reply channels a client is
    /// blocked on.
    pub fn sheddable(&self) -> bool {
        matches!(self, Work::Samples(_))
    }
}

/// The mutable half of a session, guarded by one lock so a session's
/// samples are always ingested in arrival order even when several pool
/// workers race to drain the same queue.
#[derive(Debug)]
struct SessionState {
    /// `None` once finalized.
    detector: Option<StreamingEmprof>,
    /// Finalized events held in memory (drained incrementally from the
    /// detector so the watch tail sees them live). `events[i]` carries
    /// event sequence `events_base + 1 + i`.
    events: Vec<StallEvent>,
    /// Event sequence of `events[0]` minus one. Zero except for a
    /// session recovered from a journal whose acked prefix was already
    /// compacted away.
    events_base: u64,
    /// The delivery cursor: every event sequence at or below this was
    /// acknowledged by the client. Never exceeds
    /// `events_base + events.len()`.
    acked: u64,
    /// Highest event sequence already written to the journal; guards
    /// against re-journaling events a recovery replay regenerates.
    journaled_events: u64,
    /// The detector's sample count at finalization. The wire-level
    /// `samples_in` counter is not a substitute: in shed mode it also
    /// counts batches that were dropped before reaching the detector.
    final_samples_pushed: u64,
    /// The detector's non-finite rejection count at finalization.
    final_samples_rejected: u64,
    /// Running count of admitted events carrying a degraded-confidence
    /// mark (recovered sessions start from the journaled events, minus
    /// any acked prefix the journal already compacted away).
    degraded_events: u64,
}

/// Counters a session exposes without taking its state lock.
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Samples accepted into the queue.
    pub samples_in: AtomicU64,
    /// SAMPLES frames accepted into the queue.
    pub frames_in: AtomicU64,
    /// Batches dropped by shed mode.
    pub sheds: AtomicU64,
    /// Total nanoseconds the connection reader spent blocked on a full
    /// queue (the backpressure signal).
    pub backpressure_ns: AtomicU64,
}

/// Verdict on an incoming SAMPLES sequence number; see
/// [`Session::admit_seq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqAdmit {
    /// The next expected sequence: ingest it.
    Accept,
    /// Already ingested (a resume replay overlap): drop silently.
    Duplicate,
    /// A gap — the client skipped sequences; a protocol error.
    Gap,
}

/// One profiling session.
#[derive(Debug)]
pub struct Session {
    /// Registry key, also sent to the client in HELLO_ACK.
    pub id: u64,
    /// Device label from HELLO (logs and the watch tail).
    pub device: String,
    /// Token the client must present to resume this session after a
    /// transport loss.
    pub resume_token: u64,
    /// Trace id stamping this session's flight dumps and METRICS rows:
    /// derived from the resume token, so stable across resumes and
    /// server restarts. Never zero (zero marks watch connections).
    pub trace_id: u64,
    /// The session's black box: a bounded ring of recent lifecycle
    /// notes, spans, and errors, dumped as JSON on faults.
    pub flight: FlightRecorder,
    /// Windowed ingest rate (samples/second, EWMA).
    pub samples_meter: Meter,
    /// Ingest queue between the connection reader and the worker pool.
    pub queue: BoundedQueue<Work>,
    /// Lock-free counters.
    pub counters: SessionCounters,
    state: Mutex<SessionState>,
    /// The session's durable journal, when the server runs with
    /// `--journal`. Locked after `state` (never the other way around);
    /// the sample path takes it alone. Append failures are best-effort:
    /// counted (`store.append_errors`), never fatal to the session.
    journal: Option<Mutex<SessionJournal>>,
    /// Highest SAMPLES sequence accepted so far (sequences are
    /// contiguous from 1, so this is also the count of accepted frames).
    /// Written only by the session's attached connection reader.
    acked_seq: AtomicU64,
    /// Attachment generation: bumped every time a connection (re)claims
    /// this session, so a stale reader — e.g. one whose socket the
    /// client abandoned before resuming elsewhere — can detect it was
    /// superseded and bow out without finalizing anything.
    conn_generation: AtomicU64,
    /// Highest generation that has detached. The session is connected
    /// exactly when the live generation is newer than this.
    detached_gen: AtomicU64,
    /// Nanoseconds since the registry epoch of the last client activity.
    last_active_ns: AtomicU64,
    /// Recycled sample buffers: the connection reader decodes each
    /// SAMPLES frame into one of these ([`Session::take_buffer`]), the
    /// draining worker returns it after the detector consumed it, so
    /// steady-state ingest circulates a small set of allocations instead
    /// of allocating per frame. Buffers shed under overload are simply
    /// dropped (the pool refills on the next miss).
    spare_bufs: Mutex<Vec<Vec<f64>>>,
}

/// Cap on pooled sample buffers per session; enough to cover the frames
/// simultaneously in flight between reader and workers without letting
/// an ingest burst pin memory forever.
const SPARE_BUFS_MAX: usize = 8;

impl Session {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: u64,
        device: String,
        resume_token: u64,
        config: EmprofConfig,
        sample_rate_hz: f64,
        clock_hz: f64,
        queue_capacity: usize,
        epoch: Instant,
        journal: Option<SessionJournal>,
    ) -> Self {
        let flight = FlightRecorder::new(FLIGHT_CAPACITY);
        flight.note("create", &format!("device {device:?}"));
        Session {
            id,
            device,
            resume_token,
            trace_id: splitmix64(resume_token).max(1),
            flight,
            samples_meter: Meter::new(),
            queue: BoundedQueue::new(queue_capacity),
            counters: SessionCounters::default(),
            state: Mutex::new(SessionState {
                detector: Some(StreamingEmprof::new(config, sample_rate_hz, clock_hz)),
                events: Vec::new(),
                events_base: 0,
                acked: 0,
                journaled_events: 0,
                final_samples_pushed: 0,
                final_samples_rejected: 0,
                degraded_events: 0,
            }),
            journal: journal.map(Mutex::new),
            acked_seq: AtomicU64::new(0),
            conn_generation: AtomicU64::new(0),
            detached_gen: AtomicU64::new(0),
            last_active_ns: AtomicU64::new(epoch.elapsed().as_nanos() as u64),
            spare_bufs: Mutex::new(Vec::new()),
        }
    }

    /// Rebuilds a session from its recovered journal. Unfinished
    /// sessions replay every journaled sample batch through a fresh
    /// detector — the detector is deterministic, so this reproduces the
    /// exact pre-crash state (including events already journaled, which
    /// are recognized and not re-journaled). Finished sessions restore
    /// their events straight from the journal with no detector.
    pub(crate) fn from_recovery(
        rec: RecoveredSession,
        journal: SessionJournal,
        queue_capacity: usize,
        epoch: Instant,
    ) -> Session {
        let meta = rec.meta;
        let mut journal = journal;
        let state = if let Some((pushed, rejected)) = rec.finished {
            // Finalized before the crash: the journaled events ARE the
            // session's output; anything before the first retained one
            // was acked and compacted away.
            let events_base = match rec.events.first() {
                Some(&(first, _)) => first - 1,
                None => rec.acked_events,
            };
            let events: Vec<StallEvent> = rec.events.into_iter().map(|(_, e)| e).collect();
            SessionState {
                degraded_events: count_degraded(&events),
                detector: None,
                events,
                events_base,
                acked: rec.acked_events,
                journaled_events: rec.journaled_events,
                final_samples_pushed: pushed,
                final_samples_rejected: rejected,
            }
        } else {
            let mut detector =
                StreamingEmprof::new(meta.config, meta.sample_rate_hz, meta.clock_hz);
            let mut events = Vec::new();
            for (_, samples) in &rec.samples {
                detector.extend_from_slice(samples);
                events.extend(detector.drain_events());
            }
            // Events finalized after the last journaled one (a crash
            // between sample ingest and event journaling) get journaled
            // now, before any client can be offered them.
            let replayed = events.len() as u64;
            if replayed > rec.journaled_events {
                let first = rec.journaled_events + 1;
                if let Err(e) =
                    journal.append_events(first, &events[(first - 1) as usize..])
                {
                    note_journal_error("recovery", &e);
                }
            }
            SessionState {
                degraded_events: count_degraded(&events),
                detector: Some(detector),
                events,
                events_base: 0,
                acked: rec.acked_events,
                journaled_events: rec.journaled_events.max(replayed),
                final_samples_pushed: 0,
                final_samples_rejected: 0,
            }
        };
        let flight = FlightRecorder::new(FLIGHT_CAPACITY);
        flight.note("recover", &format!("device {:?}", meta.device));
        Session {
            id: meta.session_id,
            device: meta.device,
            resume_token: meta.resume_token,
            trace_id: splitmix64(meta.resume_token).max(1),
            flight,
            samples_meter: Meter::new(),
            queue: BoundedQueue::new(queue_capacity),
            counters: SessionCounters::default(),
            state: Mutex::new(state),
            journal: Some(Mutex::new(journal)),
            acked_seq: AtomicU64::new(rec.acked_samples_seq),
            conn_generation: AtomicU64::new(0),
            detached_gen: AtomicU64::new(0),
            last_active_ns: AtomicU64::new(epoch.elapsed().as_nanos() as u64),
            spare_bufs: Mutex::new(Vec::new()),
        }
    }

    /// Pops a recycled sample buffer (empty, capacity retained) for the
    /// connection reader to decode the next SAMPLES frame into; falls
    /// back to a fresh allocation when the pool is dry.
    pub fn take_buffer(&self) -> Vec<f64> {
        self.spare_bufs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns a drained sample buffer to the pool for reuse. Buffers
    /// beyond [`SPARE_BUFS_MAX`] (or with no capacity worth keeping) are
    /// dropped.
    fn recycle_buffer(&self, mut buf: Vec<f64>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = self.spare_bufs.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < SPARE_BUFS_MAX {
            pool.push(buf);
        }
    }

    /// Highest SAMPLES sequence accepted so far.
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq.load(Ordering::Acquire)
    }

    /// The event delivery cursor: highest event sequence the client has
    /// acknowledged.
    pub fn events_acked(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).acked
    }

    /// The journal directory, when this session is journaled.
    pub fn journal_dir(&self) -> Option<std::path::PathBuf> {
        self.journal.as_ref().map(|j| {
            j.lock()
                .unwrap_or_else(|e| e.into_inner())
                .dir()
                .to_path_buf()
        })
    }

    /// Journals an accepted SAMPLES batch. The connection reader calls
    /// this *after* [`Session::admit_seq`] accepts the sequence and
    /// *before* enqueueing the batch: the acked watermark is only
    /// reported to the client on later (stats/heartbeat) frames handled
    /// by the same reader thread, so durability always precedes the
    /// client pruning its replay buffer. Best-effort on a journaled
    /// session; a no-op otherwise.
    pub fn journal_samples(&self, seq: u64, samples: &[f64]) {
        if let Some(j) = &self.journal {
            let mut j = j.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = j.append_samples(seq, samples) {
                self.journal_error("samples", &e);
            }
        }
    }

    /// Advances the event delivery cursor to `seq` (clamped to the
    /// events finalized so far; regressions are no-ops), journaling the
    /// new cursor and compacting acked segments. Returns `true` when the
    /// session is finished *and* fully acknowledged — the signal that it
    /// can be removed and its journal deleted.
    pub fn ack_events(&self, seq: u64) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let total = st.events_base + st.events.len() as u64;
        let clamped = seq.min(total);
        if clamped > st.acked {
            st.acked = clamped;
            if let Some(j) = &self.journal {
                let mut j = j.lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = j.ack(clamped) {
                    self.journal_error("ack", &e);
                }
            }
        }
        st.detector.is_none() && st.acked == total
    }

    /// Classifies an incoming SAMPLES sequence number and, on
    /// [`SeqAdmit::Accept`], advances the ack watermark. Sequences start
    /// at 1 and must be contiguous; anything at or below the watermark
    /// is a resume-replay duplicate.
    pub fn admit_seq(&self, seq: u64) -> SeqAdmit {
        let acked = self.acked_seq.load(Ordering::Acquire);
        if seq <= acked {
            SeqAdmit::Duplicate
        } else if seq == acked + 1 {
            self.acked_seq.store(seq, Ordering::Release);
            SeqAdmit::Accept
        } else {
            SeqAdmit::Gap
        }
    }

    /// Claims this session for a (re)connecting reader, superseding any
    /// previous attachment. Returns the new generation; the reader must
    /// check [`Session::is_current`] before acting on frames so a stale
    /// connection cannot race a resumed one.
    pub fn attach(&self) -> u64 {
        let generation = self.conn_generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.flight.note("attach", &format!("generation {generation}"));
        generation
    }

    /// Marks `generation`'s connection as gone. A stale generation
    /// (already superseded by a resume) detaching is a no-op.
    pub fn detach(&self, generation: u64) {
        self.detached_gen.fetch_max(generation, Ordering::AcqRel);
        self.flight.note("detach", &format!("generation {generation}"));
    }

    /// Whether a connection is currently attached.
    pub fn connected(&self) -> bool {
        self.conn_generation.load(Ordering::Acquire) > self.detached_gen.load(Ordering::Acquire)
    }

    /// Whether `generation` is still the live attachment.
    pub fn is_current(&self, generation: u64) -> bool {
        self.conn_generation.load(Ordering::Acquire) == generation
    }

    /// Marks the session as just-touched by its client.
    pub fn touch(&self, epoch: Instant) {
        self.last_active_ns
            .store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// How long since the client last sent a frame.
    pub fn idle_for(&self, epoch: Instant) -> Duration {
        let now = epoch.elapsed().as_nanos() as u64;
        Duration::from_nanos(now.saturating_sub(self.last_active_ns.load(Ordering::Relaxed)))
    }

    fn stats_locked(&self, st: &SessionState) -> SessionStatsWire {
        let (pushed, buffered, rejected) = match &st.detector {
            Some(d) => (
                d.samples_pushed() as u64,
                d.buffered_samples() as u64,
                d.samples_rejected() as u64,
            ),
            None => (st.final_samples_pushed, 0, st.final_samples_rejected),
        };
        SessionStatsWire {
            samples_pushed: pushed,
            events_emitted: st.events_base + st.events.len() as u64,
            buffered_samples: buffered,
            queue_depth: self.queue.depth() as u64,
            sheds: self.counters.sheds.load(Ordering::Relaxed),
            acked_seq: self.acked_seq(),
            samples_rejected: rejected,
            events_degraded: st.degraded_events,
            final_report: st.detector.is_none(),
        }
    }

    /// A stats snapshot (takes the state lock briefly).
    pub fn stats(&self) -> SessionStatsWire {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.stats_locked(&st)
    }

    /// Highest event sequence written to the journal so far (0 when the
    /// session is unjournaled).
    pub fn journaled_events(&self) -> u64 {
        if self.journal.is_none() {
            return 0;
        }
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .journaled_events
    }

    /// The session's METRICS row: its live operational state, built for
    /// a METRICS poll. Deliberately bumps no telemetry — serving
    /// metrics must not perturb the metrics being served.
    pub fn row(&self, epoch: Instant) -> SessionRow {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let stats = self.stats_locked(&st);
        SessionRow {
            session_id: self.id,
            trace_id: self.trace_id,
            device: self.device.clone(),
            connected: self.connected(),
            queue_depth: self.queue.depth() as u64,
            queue_capacity: self.queue.capacity() as u64,
            samples_pushed: stats.samples_pushed,
            samples_per_sec: self.samples_meter.rate_per_sec(),
            events_emitted: stats.events_emitted,
            events_acked: st.acked,
            journaled_events: if self.journal.is_some() {
                st.journaled_events
            } else {
                0
            },
            sheds: stats.sheds,
            samples_rejected: stats.samples_rejected,
            events_degraded: stats.events_degraded,
            idle_ms: self.idle_for(epoch).as_millis().min(u64::MAX as u128) as u64,
        }
    }

    /// Drains the session's queue, feeding the detector and answering
    /// control markers. Called by pool workers under no other lock; the
    /// internal state lock serializes racing workers so samples are
    /// consumed in queue order. Newly finalized events are passed to
    /// `on_events` (the server hangs the watch tail and the `serve.*`
    /// event counters there). Returns how many batches were processed.
    pub fn drain<F: FnMut(&[StallEvent])>(&self, on_events: F) -> usize {
        self.drain_paced(None, on_events)
    }

    /// [`Session::drain`] with an artificial per-batch delay — the
    /// deliberately-slow-worker knob backpressure tests and the soak
    /// bench turn ([`ServeConfig::ingest_delay`](crate::ServeConfig)).
    pub fn drain_paced<F: FnMut(&[StallEvent])>(
        &self,
        per_batch_delay: Option<Duration>,
        mut on_events: F,
    ) -> usize {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let started = Instant::now();
        let mut batches = 0;
        // Scratch for freshly drained events, reused across every batch
        // this call processes (cleared, capacity kept).
        let mut fresh: Vec<StallEvent> = Vec::new();
        while let Some(work) = self.queue.try_pop() {
            match work {
                Work::Samples(samples) => {
                    batches += 1;
                    if let Some(delay) = per_batch_delay {
                        std::thread::sleep(delay);
                    }
                    if let Some(detector) = st.detector.as_mut() {
                        detector.extend_from_slice(&samples);
                        fresh.clear();
                        if detector.drain_events_into(&mut fresh) > 0 {
                            on_events(&fresh);
                            self.admit_events(&mut st, &fresh);
                        }
                    }
                    // A finalized session silently discards late batches;
                    // the client learns its fate on the next control frame.
                    // Either way the buffer goes back to the ingest pool.
                    self.recycle_buffer(samples);
                }
                Work::Flush(reply) => {
                    let (first_seq, events) = self.undelivered_locked(&st);
                    let stats = self.stats_locked(&st);
                    self.flight
                        .note("flush", &format!("{} events offered", events.len()));
                    let _ = reply.send(FlushReply {
                        first_seq,
                        events,
                        stats,
                    });
                }
                Work::Fin(reply) => {
                    self.finish_detector_locked(&mut st, &mut on_events);
                    let (first_seq, events) = self.undelivered_locked(&st);
                    let stats = self.stats_locked(&st);
                    self.flight
                        .note("fin", &format!("{} events offered", events.len()));
                    let _ = reply.send(FlushReply {
                        first_seq,
                        events,
                        stats,
                    });
                }
            }
        }
        if batches > 0 {
            let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.flight.record_span("drain", ns);
        }
        batches
    }

    /// Appends freshly finalized events to the in-memory list,
    /// journaling any not already on disk *before* they become visible
    /// to FLUSH replies. A recovery replay regenerates events the
    /// journal already holds; the `journaled_events` watermark keeps
    /// those from being written twice.
    fn admit_events(&self, st: &mut SessionState, fresh: &[StallEvent]) {
        if fresh.is_empty() {
            return;
        }
        let first_seq = st.events_base + st.events.len() as u64 + 1;
        let last_seq = first_seq + fresh.len() as u64 - 1;
        if let Some(j) = &self.journal {
            let skip = st.journaled_events.saturating_sub(first_seq - 1) as usize;
            if skip < fresh.len() {
                let mut j = j.lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = j.append_events(first_seq + skip as u64, &fresh[skip..]) {
                    self.journal_error("events", &e);
                }
            }
        }
        st.journaled_events = st.journaled_events.max(last_seq);
        st.degraded_events += count_degraded(fresh);
        st.events.extend_from_slice(fresh);
    }

    /// The reply to any FLUSH/FIN: everything past the acked cursor.
    fn undelivered_locked(&self, st: &SessionState) -> (u64, Vec<StallEvent>) {
        let start = (st.acked - st.events_base) as usize;
        (st.acked + 1, st.events[start..].to_vec())
    }

    /// Takes and finishes the detector, admitting its trailing events
    /// and journaling the finalization (which releases sample records
    /// for compaction). Idempotent.
    fn finish_detector_locked<F: FnMut(&[StallEvent])>(
        &self,
        st: &mut SessionState,
        on_events: &mut F,
    ) {
        let Some(detector) = st.detector.take() else {
            return;
        };
        st.final_samples_rejected = detector.samples_rejected() as u64;
        let profile = detector.finish();
        st.final_samples_pushed = profile.total_samples() as u64;
        let tail = &profile.events()[st.events.len()..];
        if !tail.is_empty() {
            on_events(tail);
            self.admit_events(st, tail);
        }
        if let Some(j) = &self.journal {
            let mut j = j.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = j.finish(
                st.final_samples_pushed,
                st.final_samples_rejected,
                self.acked_seq(),
            ) {
                self.journal_error("finish", &e);
            }
        }
    }

    /// Finalizes the detector outside the FIN path (server shutdown or
    /// idle reaping): drains whatever is queued, then runs `finish()` so
    /// trailing events still reach the tail. Idempotent.
    pub fn finalize<F: FnMut(&[StallEvent])>(&self, mut on_events: F) {
        self.drain(&mut on_events);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.finish_detector_locked(&mut st, &mut on_events);
    }

    /// Counts a journal failure and records it in the flight ring.
    fn journal_error(&self, what: &str, e: &std::io::Error) {
        note_journal_error(what, e);
        self.flight.error("journal", &format!("{what}: {e}"));
    }

    /// Whether the detector has been finalized.
    pub fn finished(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .detector
            .is_none()
    }
}

/// Best-effort journal failure accounting: a sick disk must not take
/// down live profiling, but it must not be silent either.
fn note_journal_error(what: &str, e: &std::io::Error) {
    obs::counter_add!("store.append_errors", 1);
    let _ = (what, e);
}

/// The registry of live sessions.
#[derive(Debug)]
pub struct SessionRegistry {
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_id: AtomicU64,
    /// Timebase for idle accounting (monotonic, shared by all sessions).
    epoch: Instant,
    /// Per-registry entropy mixed into resume tokens so tokens from one
    /// server run are not valid against another.
    token_seed: u64,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        let token_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            token_seed,
        }
    }

    /// Derives a session's resume token from the registry seed and its
    /// id (splitmix64 finalizer — not cryptographic, but unguessable
    /// enough to stop one misconfigured client from stealing another's
    /// session, and never zero because zero means "no resume" on the
    /// wire).
    fn resume_token_for(&self, id: u64) -> u64 {
        let mut z = self
            .token_seed
            .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z.max(1)
    }

    /// The idle timebase.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Creates and registers a session; fails when `max_sessions` live
    /// sessions already exist. `make_journal` is called with the new
    /// session's id and resume token once they are known, so a journaled
    /// server can create `session-<id>/` with the right identity record
    /// (pass `|_, _| None` for an unjournaled session).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &self,
        device: String,
        config: EmprofConfig,
        sample_rate_hz: f64,
        clock_hz: f64,
        queue_capacity: usize,
        max_sessions: usize,
        make_journal: impl FnOnce(u64, u64) -> Option<SessionJournal>,
    ) -> Option<Arc<Session>> {
        let mut map = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= max_sessions {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let resume_token = self.resume_token_for(id);
        let journal = make_journal(id, resume_token);
        let session = Arc::new(Session::new(
            id,
            device,
            resume_token,
            config,
            sample_rate_hz,
            clock_hz,
            queue_capacity,
            self.epoch,
            journal,
        ));
        map.insert(id, Arc::clone(&session));
        Some(session)
    }

    /// Registers a session recovered from a journal, bumping the id
    /// allocator past it so fresh sessions never collide with recovered
    /// ones.
    pub fn adopt(&self, session: Arc<Session>) {
        let mut map = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        self.next_id.fetch_max(session.id + 1, Ordering::Relaxed);
        map.insert(session.id, session);
    }

    /// Looks a session up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Session>> {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    /// Unregisters a session (its `Arc` stays valid for holders).
    pub fn remove(&self, id: u64) -> Option<Arc<Session>> {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id)
    }

    /// Number of live sessions.
    pub fn active(&self) -> usize {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// All live sessions (snapshot).
    pub fn all(&self) -> Vec<Arc<Session>> {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Removes (and returns) every session idle longer than `timeout`.
    /// The caller finalizes them so queued samples still produce events.
    pub fn reap_idle(&self, timeout: Duration) -> Vec<Arc<Session>> {
        let mut map = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        let dead: Vec<u64> = map
            .iter()
            .filter(|(_, s)| s.idle_for(self.epoch) > timeout)
            .map(|(&id, _)| id)
            .collect();
        dead.into_iter().filter_map(|id| map.remove(&id)).collect()
    }
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_core::{Emprof, EmprofConfig};

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;

    fn config() -> EmprofConfig {
        EmprofConfig::for_rates(FS, CLK)
    }

    fn dipped_signal(len: usize) -> Vec<f64> {
        let mut v = vec![5.0; len];
        for x in v.iter_mut().skip(5_000).take(12) {
            *x = 0.8;
        }
        v
    }

    fn registry_session(reg: &SessionRegistry) -> Arc<Session> {
        reg.create("dev".into(), config(), FS, CLK, 8, 16, |_, _| None)
            .expect("session created")
    }

    fn ack_reply(s: &Session, reply: &FlushReply) {
        if !reply.events.is_empty() {
            s.ack_events(reply.first_seq + reply.events.len() as u64 - 1);
        }
    }

    #[test]
    fn drain_feeds_detector_and_fin_matches_batch() {
        let reg = SessionRegistry::new();
        let s = registry_session(&reg);
        let signal = dipped_signal(30_000);
        for chunk in signal.chunks(1000) {
            s.queue.push_blocking(Work::Samples(chunk.to_vec()));
            s.drain(|_| {});
        }
        let (tx, rx) = mpsc::sync_channel(1);
        s.queue.push_blocking(Work::Fin(tx));
        s.drain(|_| {});
        let reply = rx.recv().unwrap();
        assert!(reply.stats.final_report);
        let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
        assert_eq!(reply.events, batch.events());
        assert!(s.finished());
    }

    #[test]
    fn flush_delivers_incrementally_without_duplicates() {
        let reg = SessionRegistry::new();
        let s = registry_session(&reg);
        let signal = dipped_signal(30_000);
        let mut delivered = Vec::new();
        for chunk in signal.chunks(3_000) {
            s.queue.push_blocking(Work::Samples(chunk.to_vec()));
            let (tx, rx) = mpsc::sync_channel(1);
            s.queue.push_blocking(Work::Flush(tx));
            s.drain(|_| {});
            let reply = rx.recv().unwrap();
            ack_reply(&s, &reply);
            delivered.extend(reply.events);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        s.queue.push_blocking(Work::Fin(tx));
        s.drain(|_| {});
        let reply = rx.recv().unwrap();
        ack_reply(&s, &reply);
        delivered.extend(reply.events);
        let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
        assert_eq!(delivered, batch.events());
    }

    #[test]
    fn unacked_events_are_redelivered_until_acked() {
        let reg = SessionRegistry::new();
        let s = registry_session(&reg);
        s.queue
            .push_blocking(Work::Samples(dipped_signal(30_000)));
        let flush = |s: &Session| {
            let (tx, rx) = mpsc::sync_channel(1);
            s.queue.push_blocking(Work::Flush(tx));
            s.drain(|_| {});
            rx.recv().unwrap()
        };
        let first = flush(&s);
        assert!(!first.events.is_empty());
        assert_eq!(first.first_seq, 1);
        // No ack: the same events come back, same sequence.
        let again = flush(&s);
        assert_eq!(again.first_seq, 1);
        assert_eq!(again.events, first.events);
        // Ack a prefix: only the suffix comes back.
        s.ack_events(1);
        let suffix = flush(&s);
        assert_eq!(suffix.first_seq, 2);
        assert_eq!(suffix.events, first.events[1..]);
        // Ack everything: the next flush is empty.
        ack_reply(&s, &first);
        let empty = flush(&s);
        assert!(empty.events.is_empty());
        assert_eq!(empty.first_seq, first.events.len() as u64 + 1);
    }

    #[test]
    fn ack_events_signals_completion_only_when_finished_and_fully_acked() {
        let reg = SessionRegistry::new();
        let s = registry_session(&reg);
        s.queue
            .push_blocking(Work::Samples(dipped_signal(30_000)));
        let (tx, rx) = mpsc::sync_channel(1);
        s.queue.push_blocking(Work::Fin(tx));
        s.drain(|_| {});
        let reply = rx.recv().unwrap();
        let total = reply.events.len() as u64;
        assert!(total > 0);
        assert!(!s.ack_events(total - 1), "partial ack is not completion");
        // Over-acking clamps to what exists.
        assert!(s.ack_events(total + 50));
        assert_eq!(s.events_acked(), total);
    }

    #[test]
    fn finalize_salvages_queued_samples() {
        let reg = SessionRegistry::new();
        let s = registry_session(&reg);
        let signal = dipped_signal(30_000);
        let mut seen = Vec::new();
        // Queue everything without draining: finalize must both drain
        // the queue and run finish().
        for chunk in signal.chunks(8_000) {
            s.queue.push_blocking(Work::Samples(chunk.to_vec()));
        }
        s.finalize(|evs| seen.extend_from_slice(evs));
        let batch = Emprof::new(config()).profile_magnitude(&signal, FS, CLK);
        assert_eq!(seen, batch.events());
        // Idempotent.
        s.finalize(|_| panic!("no events on second finalize"));
    }

    #[test]
    fn registry_enforces_session_limit() {
        let reg = SessionRegistry::new();
        for _ in 0..3 {
            assert!(reg
                .create("d".into(), config(), FS, CLK, 4, 3, |_, _| None)
                .is_some());
        }
        assert!(reg
            .create("d".into(), config(), FS, CLK, 4, 3, |_, _| None)
            .is_none());
        assert_eq!(reg.active(), 3);
    }

    #[test]
    fn row_reflects_state_and_flight_records_lifecycle() {
        let reg = SessionRegistry::new();
        let s = registry_session(&reg);
        assert_eq!(s.trace_id, splitmix64(s.resume_token).max(1));
        assert_ne!(s.trace_id, 0);
        assert!(!s.connected(), "fresh session has no attachment");
        let generation = s.attach();
        assert!(s.connected());

        s.queue.push_blocking(Work::Samples(dipped_signal(30_000)));
        s.samples_meter.mark(30_000);
        s.drain(|_| {});

        let row = s.row(reg.epoch());
        assert_eq!(row.session_id, s.id);
        assert_eq!(row.trace_id, s.trace_id);
        assert!(row.connected);
        assert_eq!(row.samples_pushed, 30_000);
        assert!(row.events_emitted > 0);
        assert_eq!(row.events_acked, 0);
        assert_eq!(row.delivery_lag(), row.events_emitted);
        assert_eq!(row.queue_capacity, 8);
        assert_eq!(row.journaled_events, 0, "unjournaled session reports 0");
        assert!(row.samples_per_sec >= 0.0);

        // A stale generation detaching after a resume is a no-op.
        let resumed = s.attach();
        s.detach(generation);
        assert!(s.connected(), "stale detach must not mark the resume gone");
        s.detach(resumed);
        assert!(!s.connected());

        let labels: Vec<String> = s.flight.events().into_iter().map(|e| e.label).collect();
        for expected in ["create", "attach", "detach", "drain"] {
            assert!(labels.iter().any(|l| l == expected), "missing {expected:?}");
        }
    }

    #[test]
    fn reaper_removes_only_idle_sessions() {
        let reg = SessionRegistry::new();
        let stale = registry_session(&reg);
        std::thread::sleep(Duration::from_millis(30));
        let fresh = registry_session(&reg);
        fresh.touch(reg.epoch());
        let reaped = reg.reap_idle(Duration::from_millis(15));
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].id, stale.id);
        assert_eq!(reg.active(), 1);
        assert!(reg.get(fresh.id).is_some());
        assert!(reg.get(stale.id).is_none());
    }
}
