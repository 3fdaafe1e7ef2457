//! The ingest server: a `TcpListener`, one reader per connection, a
//! bounded queue per session, and a shared worker pool sized by
//! [`Parallelism`].
//!
//! ## Threading model
//!
//! * **accept thread** — blocks on `accept`, spawns a reader per
//!   connection. Woken for shutdown by a loopback self-connect (the
//!   signal-free "shutdown pipe"). It, the framed reader and the
//!   `/metrics` responder are the [`crate::net`] edge the router
//!   shares.
//! * **reader threads** — parse frames with short read timeouts (so
//!   shutdown is observed within ~100 ms even on idle connections),
//!   enqueue sample batches into the session's bounded queue, and write
//!   replies. A full queue makes the reader *block*, which stops socket
//!   reads — explicit backpressure instead of unbounded buffering.
//!   With [`ServeConfig::shed`], a full queue instead drops its oldest
//!   batch and counts it.
//! * **worker pool** — `threads` workers take ready sessions from one
//!   ready queue and drain their queues under the session lock,
//!   feeding the per-session
//!   [`StreamingEmprof`](emprof_core::StreamingEmprof). A session is
//!   queued once per idle → ready transition, not once per frame.
//! * **reaper thread** — periodically finalizes and removes sessions
//!   whose producers went idle past [`ServeConfig::idle_timeout`].
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] raises a flag, wakes the acceptor, joins the
//! readers (each first reads and ingests every complete frame its peer
//! had already sent, up to end of stream or a quiet read timeout), lets
//! the workers drain every queue, finalizes every remaining session
//! (`finish()` runs for each — trailing events are never lost; they land
//! in the tail and the event counters), and only then returns the final
//! stats. [`Server::kill`] skips the socket drain and the finalization.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use emprof_fault::{FaultInjector, FaultPlan};
use emprof_obs as obs;
use emprof_par::Parallelism;
use emprof_store::{
    query_journals, JournalConfig, QueryResult, QuerySpec, SegmentCache, SessionJournal,
    SessionMeta,
};

use emprof_core::StallEvent;

use crate::net::{self, Conn, Edge, Incoming, Stop, POLL_INTERVAL};
use crate::proto::{
    samples_frame_len, ClusterAction, ErrorCode, FlightDumpWire, Frame, HealthWire, Hello,
    MetricsReply, NodeHealthWire, QueryResultWire, QueryRowWire, QuerySpecWire, SamplesView,
    ServerStatsWire, SessionRow, Tail, TailEvent, MAX_FLIGHT_DUMPS, MAX_SESSION_ROWS,
    SAMPLES_FITTING_PAYLOAD, VERSION,
};
use crate::queue::PushReceipt;
use crate::session::{ReadyQueue, SeqAdmit, Session, SessionRegistry, Work};

/// How long a reader waits for the worker pool to answer a FLUSH/FIN
/// marker before giving up on the connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Events per EVENTS frame in a reply (below the protocol bound).
const EVENTS_PER_FRAME: usize = 50_000;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool size (resolved the same way as the analysis
    /// pipeline: flag > `EMPROF_THREADS` > hardware).
    pub threads: Parallelism,
    /// Per-session ingest-queue bound, in frames. This is the server's
    /// memory guarantee per session.
    pub queue_frames: usize,
    /// Shed mode: drop the oldest queued batch instead of blocking the
    /// reader when a session queue is full. Off by default — the
    /// equivalence guarantee requires every sample to be ingested.
    pub shed: bool,
    /// Sessions idle longer than this are finalized and removed.
    pub idle_timeout: Duration,
    /// Maximum concurrently registered sessions.
    pub max_sessions: usize,
    /// How many finalized events the watch tail retains.
    pub tail_capacity: usize,
    /// Artificial per-batch processing delay in the workers. A test and
    /// bench aid for exercising backpressure; `None` in production.
    pub ingest_delay: Option<Duration>,
    /// When set, connections that go quiet get a HEARTBEAT frame at this
    /// interval, carrying the session's acked sequence — so a client
    /// with a short read timeout can tell a live-but-idle server from a
    /// dead one. `None` (the default) sends no heartbeats.
    pub heartbeat_interval: Option<Duration>,
    /// When set, a per-session [`FaultInjector`] corrupts every incoming
    /// batch before it reaches the detector — the chaos-testing knob
    /// behind `emprof serve --fault-plan`. Faults are deterministic per
    /// session: each injector is seeded `fault_seed ^ session_id`.
    pub fault_plan: Option<FaultPlan>,
    /// Base seed for [`ServeConfig::fault_plan`] injectors.
    pub fault_seed: u64,
    /// When set, every session is journaled under
    /// `<journal_dir>/session-<id>/` and event delivery becomes
    /// exactly-once across reply loss *and* server restarts: accepted
    /// sample batches and finalized events are journaled before they
    /// are acknowledged or offered, and [`Server::bind`] recovers every
    /// journaled session it finds in the directory. `None` (the
    /// default) keeps the in-memory at-least-once-until-acked behavior.
    pub journal_dir: Option<PathBuf>,
    /// When set, a second listener is bound here serving the process
    /// telemetry snapshot in Prometheus text exposition format over
    /// plain HTTP/1.1 (`GET /metrics`), including one labeled series
    /// set per live session. `None` (the default) serves no HTTP.
    pub metrics_addr: Option<String>,
    /// Where flight-recorder dumps land on session faults. `None` (the
    /// default) falls back to [`ServeConfig::journal_dir`]; with
    /// neither set, dumps are skipped (the ring stays pollable over
    /// FLIGHT frames). The `--flight-dir` flag sets this, so an
    /// unjournaled server can still keep durable black boxes.
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: Parallelism::default(),
            queue_frames: 64,
            shed: false,
            idle_timeout: Duration::from_secs(60),
            max_sessions: 256,
            tail_capacity: 4096,
            ingest_delay: None,
            heartbeat_interval: None,
            fault_plan: None,
            fault_seed: 0,
            journal_dir: None,
            metrics_addr: None,
            flight_dir: None,
        }
    }
}

/// Monotonic server-wide counters.
#[derive(Debug, Default)]
struct ServerCounters {
    connections: AtomicU64,
    sessions_opened: AtomicU64,
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    samples_in: AtomicU64,
    events_total: AtomicU64,
    sheds: AtomicU64,
    backpressure_ns: AtomicU64,
    peak_queue_depth: AtomicU64,
    reconnects: AtomicU64,
}

/// A point-in-time copy of the server-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Sessions opened since startup.
    pub sessions_opened: u64,
    /// Sessions currently registered.
    pub sessions_active: u64,
    /// SAMPLES frames ingested.
    pub frames_in: u64,
    /// SAMPLES frame bytes ingested, headers included.
    pub bytes_in: u64,
    /// Magnitude samples ingested.
    pub samples_in: u64,
    /// Stall events finalized across all sessions.
    pub events_total: u64,
    /// Batches dropped by shed mode.
    pub sheds: u64,
    /// Total reader-blocked nanoseconds (the backpressure signal).
    pub backpressure_ns: u64,
    /// Highest per-session queue depth ever observed, in frames.
    pub peak_queue_depth: u64,
    /// Successful session resumes after a transport loss.
    pub reconnects: u64,
}

/// Ring of recently finalized events for `WATCH` polls.
#[derive(Debug)]
struct TailRing {
    events: VecDeque<(u64, TailEvent)>,
    next_seq: u64,
    capacity: usize,
}

impl TailRing {
    fn new(capacity: usize) -> Self {
        TailRing {
            events: VecDeque::new(),
            next_seq: 0,
            capacity: capacity.max(1),
        }
    }

    fn push(&mut self, session_id: u64, events: &[StallEvent]) {
        for &event in events {
            if self.events.len() >= self.capacity {
                self.events.pop_front();
            }
            self.events
                .push_back((self.next_seq, TailEvent { session_id, event }));
            self.next_seq += 1;
        }
    }

    fn query(&self, cursor: u64) -> (u64, u64, Vec<TailEvent>) {
        let oldest = self.events.front().map_or(self.next_seq, |&(seq, _)| seq);
        let missed = oldest.saturating_sub(cursor);
        let events = self
            .events
            .iter()
            .filter(|&&(seq, _)| seq >= cursor)
            .map(|&(_, te)| te)
            .collect();
        (self.next_seq, missed, events)
    }
}

/// State shared by every server thread.
struct Shared {
    config: ServeConfig,
    registry: SessionRegistry,
    counters: ServerCounters,
    tail: Mutex<TailRing>,
    /// Sessions with queued work; closed at shutdown so the workers
    /// drain it and exit.
    ready: ReadyQueue,
    /// [`Server::kill`] raises the kill flag with the stop flag: readers
    /// then stop at once, as a crash would, instead of first reading
    /// what their peers already sent.
    stop: Stop,
    /// Drain mode (set by a CLUSTER_JOIN drain verb or [`Server::drain`]):
    /// health reports unhealthy and fresh HELLOs are rejected, but
    /// resumes and in-flight sessions keep working — the node empties
    /// instead of dying.
    draining: AtomicBool,
    /// The session listener's bound address, reported in NODE_HEALTH so
    /// a router can confirm which node answered a probe.
    local_addr: String,
    /// Per-session chaos injectors when [`ServeConfig::fault_plan`] is
    /// set; entries live exactly as long as the session is registered so
    /// fault state (open dropout bursts, accumulated gain) survives a
    /// reconnect.
    faults: Mutex<HashMap<u64, FaultInjector>>,
    /// Decoded-segment cache shared by every QUERY connection; sealed
    /// segments are immutable, so one cache serves all pollers.
    query_cache: SegmentCache,
}

impl Shared {
    /// Records newly finalized events: tail ring, counters, telemetry.
    fn record_events(&self, session_id: u64, events: &[StallEvent]) {
        self.counters
            .events_total
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        obs::counter_add!("serve.events", events.len() as u64);
        let degraded = events
            .iter()
            .filter(|e| e.confidence == emprof_core::Confidence::Degraded)
            .count();
        if degraded > 0 {
            obs::counter_add!("serve.events_degraded", degraded as u64);
        }
        obs::meter_mark!("meter.events_out", events.len() as u64);
        let mut tail = self.tail.lock().unwrap_or_else(|e| e.into_inner());
        tail.push(session_id, events);
    }

    fn stats(&self) -> ServerStatsSnapshot {
        let c = &self.counters;
        ServerStatsSnapshot {
            connections: c.connections.load(Ordering::Relaxed),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_active: self.registry.active() as u64,
            frames_in: c.frames_in.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            samples_in: c.samples_in.load(Ordering::Relaxed),
            events_total: c.events_total.load(Ordering::Relaxed),
            sheds: c.sheds.load(Ordering::Relaxed),
            backpressure_ns: c.backpressure_ns.load(Ordering::Relaxed),
            peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
        }
    }

    fn stats_wire(&self) -> ServerStatsWire {
        let s = self.stats();
        ServerStatsWire {
            sessions_active: s.sessions_active,
            frames_in: s.frames_in,
            bytes_in: s.bytes_in,
            samples_in: s.samples_in,
            events_total: s.events_total,
            sheds: s.sheds,
        }
    }

    /// Builds a METRICS reply: the full process telemetry snapshot plus
    /// one row per registered session, sorted by id. Deliberately bumps
    /// no telemetry — serving metrics must not perturb the metrics
    /// being served, or the remote-equals-local guarantee breaks.
    fn metrics_reply(&self) -> MetricsReply {
        let epoch = self.registry.epoch();
        let mut sessions: Vec<SessionRow> =
            self.registry.all().iter().map(|s| s.row(epoch)).collect();
        sessions.sort_by_key(|r| r.session_id);
        sessions.truncate(MAX_SESSION_ROWS as usize);
        MetricsReply {
            snapshot: obs::snapshot(),
            server: self.stats_wire(),
            sessions,
        }
    }

    /// Builds a HEALTH reply. Healthy means accepting work: not
    /// shutting down, not draining, and below the session limit.
    fn health(&self) -> HealthWire {
        let active = self.registry.active();
        HealthWire {
            healthy: !self.stop.is_raised()
                && !self.draining.load(Ordering::SeqCst)
                && active < self.config.max_sessions,
            uptime_ms: self
                .registry
                .epoch()
                .elapsed()
                .as_millis()
                .min(u64::MAX as u128) as u64,
            sessions_active: active as u64,
            max_sessions: self.config.max_sessions as u64,
            journal_enabled: self.config.journal_dir.is_some(),
        }
    }

    /// Builds a NODE_HEALTH reply: this node's own row in a cluster
    /// state table. A standalone serve node has no cluster-assigned
    /// name (the router labels rows; an empty name means "myself") and
    /// no migration history of its own.
    fn node_health(&self) -> NodeHealthWire {
        let health = self.health();
        NodeHealthWire {
            name: String::new(),
            addr: self.local_addr.clone(),
            up: health.healthy,
            draining: self.draining.load(Ordering::SeqCst),
            sessions_active: health.sessions_active,
            max_sessions: health.max_sessions,
            migrations_in: 0,
            migrations_out: 0,
            consecutive_failures: 0,
            uptime_ms: health.uptime_ms,
        }
    }

    /// Serializes flight-recorder rings on demand (`session_id` 0 means
    /// every registered session), sorted by id.
    fn flight_dumps(&self, session_id: u64) -> Vec<FlightDumpWire> {
        let sessions = if session_id == 0 {
            self.registry.all()
        } else {
            self.registry.get(session_id).into_iter().collect()
        };
        let mut dumps: Vec<FlightDumpWire> = sessions
            .iter()
            .map(|s| FlightDumpWire {
                session_id: s.id,
                trace_id: s.trace_id,
                json: s.flight.dump_json(s.id, s.trace_id, "request"),
            })
            .collect();
        dumps.sort_by_key(|d| d.session_id);
        dumps.truncate(MAX_FLIGHT_DUMPS as usize);
        dumps
    }

    fn note_sessions_active(&self) {
        obs::gauge_set!("serve.sessions_active", self.registry.active() as f64);
    }

    /// Finalizes and unregisters a session, salvaging queued samples.
    fn close_session(&self, session: &Arc<Session>) {
        self.registry.remove(session.id);
        self.faults
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&session.id);
        session.finalize(|evs| self.record_events(session.id, evs));
        self.note_sessions_active();
    }

    /// Applies the configured chaos plan to a batch (no-op without one).
    fn maybe_inject_faults(&self, session_id: u64, samples: &mut [f64]) {
        let Some(plan) = self.config.fault_plan.as_ref() else {
            return;
        };
        let mut faults = self.faults.lock().unwrap_or_else(|e| e.into_inner());
        faults
            .entry(session_id)
            .or_insert_with(|| {
                FaultInjector::new(plan.clone(), self.config.fault_seed ^ session_id)
            })
            .inject(samples);
    }
}

/// A running profiling server. Dropping it (or calling
/// [`Server::shutdown`]) stops it gracefully.
pub struct Server {
    shared: Arc<Shared>,
    edge: Edge,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    reaper_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds a listener and starts the accept, worker, and reaper
    /// threads. Bind to port 0 for an ephemeral port; the bound address
    /// is [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates listener binding failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> io::Result<Server> {
        let workers = config.threads.get();
        let metrics_addr = config.metrics_addr.clone();
        let (edge, shared) = Edge::bind(addr, metrics_addr.as_deref(), |local_addr| {
            let shared = Shared {
                registry: SessionRegistry::new(),
                counters: ServerCounters::default(),
                tail: Mutex::new(TailRing::new(config.tail_capacity)),
                ready: ReadyQueue::default(),
                stop: Stop::default(),
                draining: AtomicBool::new(false),
                local_addr: local_addr.to_string(),
                faults: Mutex::new(HashMap::new()),
                query_cache: SegmentCache::default(),
                config,
            };
            if let Some(dir) = shared.config.journal_dir.clone() {
                fs::create_dir_all(&dir)?;
                recover_sessions(&shared, &dir);
            }
            if let Some(dir) = shared.config.flight_dir.as_ref() {
                fs::create_dir_all(dir)?;
            }
            Ok(shared)
        })?;

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("emprof-serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }

        let reaper_shared = Arc::clone(&shared);
        let reaper_handle = std::thread::Builder::new()
            .name("emprof-serve-reaper".into())
            .spawn(move || reaper_loop(&reaper_shared))?;

        Ok(Server {
            shared,
            edge,
            worker_handles,
            reaper_handle: Some(reaper_handle),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.edge.local_addr()
    }

    /// The address the `/metrics` HTTP listener is bound to, when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.edge.metrics_addr()
    }

    /// A snapshot of the server-wide counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats()
    }

    /// Number of currently registered sessions.
    pub fn sessions_active(&self) -> usize {
        self.shared.registry.active()
    }

    /// Puts the node in drain mode: HEALTH and NODE_HEALTH report
    /// unhealthy, fresh HELLOs are rejected with [`ErrorCode::Shutdown`],
    /// but resumes and already-registered sessions keep working — the
    /// router stops routing new sessions here and migrates the rest.
    /// Idempotent; also reachable over the wire via a CLUSTER_JOIN
    /// frame with the drain action.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        obs::counter_add!("serve.drains", 1);
    }

    /// Graceful shutdown: stop accepting, drain every session queue,
    /// finalize every session, join every thread, return final stats.
    /// Journal directories of sessions whose events were not fully
    /// acknowledged are retained, so a later server on the same
    /// directory can still deliver them.
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.shutdown_inner(true);
        self.shared.stats()
    }

    /// Abrupt stop for crash testing: stops the threads *without*
    /// finalizing sessions, so the journal directory is left exactly as
    /// a process crash would leave it. Undelivered state is recovered by
    /// the next [`Server::bind`] on the same `journal_dir`.
    pub fn kill(mut self) -> ServerStatsSnapshot {
        self.shutdown_inner(false);
        self.shared.stats()
    }

    fn shutdown_inner(&mut self, finalize: bool) {
        if self.shared.stop.raise(!finalize) {
            return;
        }
        self.edge.shutdown();
        // The readers are joined, so nothing more is scheduled: closing
        // the ready queue lets the workers drain it and exit.
        self.shared.ready.close();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.reaper_handle.take() {
            let _ = h.join();
        }
        // Anything still registered gets finish() — no trailing event is
        // ever dropped by a shutdown. (Skipped by kill(): a crash does
        // not get to finalize anything.)
        if finalize {
            for session in self.shared.registry.all() {
                self.shared.close_session(&session);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner(true);
    }
}

/// Scans `<dir>/session-*/` and rebuilds every recoverable session into
/// the registry. Unusable journals (no identity record survived) and
/// sessions that were already finished *and* fully acknowledged are
/// deleted instead.
fn recover_sessions(shared: &Shared, dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_session = entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with("session-"));
        if !is_session || !path.is_dir() {
            continue;
        }
        match SessionJournal::open(&path, JournalConfig::default()) {
            Ok(Some((journal, rec))) => {
                obs::counter_add!("store.recovered_truncations", rec.report.truncations as u64);
                let session = Arc::new(Session::from_recovery(
                    rec,
                    journal,
                    shared.config.queue_frames,
                    shared.registry.epoch(),
                ));
                // ack_events(0) is a no-op probe: true means finished
                // and fully acknowledged — nothing left to deliver.
                if session.ack_events(0) {
                    if let Some(root) = path.parent() {
                        emprof_store::remove_flight_dump(root, session.id);
                    }
                    drop(session);
                    let _ = fs::remove_dir_all(&path);
                } else {
                    shared.registry.adopt(session);
                    obs::counter_add!("serve.sessions_recovered", 1);
                }
            }
            Ok(None) | Err(_) => {
                // Torn before the first checkpoint, or unreadable: no
                // session identity to recover.
                let _ = fs::remove_dir_all(&path);
            }
        }
    }
    shared.note_sessions_active();
}

/// Deletes a session's journal directory (after full acknowledgment, or
/// when the reaper gives up on its client ever resuming). Any flight
/// dump next to it is left alone: the reaper path retires sessions
/// whose fate was *not* clean, and their black box is the post-mortem.
fn delete_journal(session: &Session) {
    if let Some(dir) = session.journal_dir() {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Clean retirement: the exactly-once contract is discharged, so the
/// journal goes away — and so does any flight dump a recovered-from
/// transport loss left behind. The dump records a fault the session
/// has since survived; keeping it would read as an unresolved failure
/// and leave unbounded residue on a fleet that always finishes cleanly.
fn delete_journal_and_flight(shared: &Arc<Shared>, session: &Session) {
    if let Some(root) = shared.config.flight_dir.as_ref() {
        emprof_store::remove_flight_dump(root, session.id);
    }
    if let Some(dir) = session.journal_dir() {
        if let Some(root) = dir.parent() {
            emprof_store::remove_flight_dump(root, session.id);
        }
    }
    delete_journal(session);
}

fn worker_loop(shared: &Arc<Shared>) {
    shared.ready.work(|session| {
        let _sp = obs::span!("serve.drain");
        session.drain_paced(shared.config.ingest_delay, |evs| {
            shared.record_events(session.id, evs);
        });
    });
}

fn reaper_loop(shared: &Arc<Shared>) {
    while !shared.stop.is_raised() {
        std::thread::sleep(POLL_INTERVAL);
        for session in shared.registry.reap_idle(shared.config.idle_timeout) {
            session.finalize(|evs| shared.record_events(session.id, evs));
            // A reaped session is gone for good — resume attempts get
            // NO_SESSION — so a later server must not resurrect it.
            delete_journal(&session);
        }
        shared.note_sessions_active();
    }
}

impl net::Service for Shared {
    const NAME: &'static str = "emprof-serve";

    fn stop(&self) -> &Stop {
        &self.stop
    }

    fn serve(self: Arc<Self>, stream: TcpStream) {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        handle_connection(stream, &self);
    }

    /// The global snapshot first, then one labeled series set per live
    /// session (same numbers as a METRICS frame row), then the health
    /// gauges.
    fn scrape_body(&self) -> String {
        use emprof_obs::prom;
        let reply = self.metrics_reply();
        let mut out = prom::encode_snapshot(&reply.snapshot);
        let labels: Vec<String> = reply
            .sessions
            .iter()
            .map(|row| {
                format!(
                    "{{session=\"{}\",trace=\"{:#018x}\",device=\"{}\"}}",
                    row.session_id,
                    row.trace_id,
                    prom::escape_label_value(&row.device)
                )
            })
            .collect();
        let mut family = |name: &str, kind: &str, value: fn(&SessionRow) -> String| {
            let samples = labels
                .iter()
                .zip(&reply.sessions)
                .map(|(l, r)| (l, value(r)));
            prom::write_family(&mut out, name, kind, samples);
        };
        family("emprof_session_connected", "gauge", |r| {
            u64::from(r.connected).to_string()
        });
        family("emprof_session_queue_depth", "gauge", |r| {
            r.queue_depth.to_string()
        });
        family("emprof_session_samples_pushed", "counter", |r| {
            r.samples_pushed.to_string()
        });
        family("emprof_session_samples_per_sec", "gauge", |r| {
            prom::format_value(r.samples_per_sec)
        });
        family("emprof_session_events_emitted", "counter", |r| {
            r.events_emitted.to_string()
        });
        family("emprof_session_events_acked", "counter", |r| {
            r.events_acked.to_string()
        });
        family("emprof_session_delivery_lag", "gauge", |r| {
            r.delivery_lag().to_string()
        });
        family("emprof_session_journaled_events", "counter", |r| {
            r.journaled_events.to_string()
        });
        family("emprof_session_sheds", "counter", |r| r.sheds.to_string());
        family("emprof_session_idle_ms", "gauge", |r| r.idle_ms.to_string());
        let health = self.health();
        let draining = self.draining.load(Ordering::SeqCst);
        for (name, kind, value) in [
            ("emprof_server_healthy", "gauge", u64::from(health.healthy)),
            ("emprof_server_uptime_ms", "counter", health.uptime_ms),
            ("emprof_server_draining", "gauge", u64::from(draining)),
        ] {
            prom::write_family(&mut out, name, kind, [("", value)]);
        }
        out
    }
}

/// Converts a wire query spec into the store engine's spec.
pub fn query_spec_from_wire(w: &QuerySpecWire) -> QuerySpec {
    QuerySpec {
        t0: w.t0,
        t1: w.t1,
        sessions: w.sessions.clone(),
        bucket_samples: w.bucket_samples,
    }
}

/// Converts a store query result into its wire form (one node's worth;
/// `nodes` is 1 and routers sum it while merging).
pub fn query_result_to_wire(r: &QueryResult) -> QueryResultWire {
    QueryResultWire {
        events: r.events,
        degraded: r.degraded,
        refresh_collisions: r.refresh_collisions,
        latency: r.latency.clone(),
        timeline: r.timeline.clone(),
        sessions: r
            .sessions
            .iter()
            .map(|s| QueryRowWire {
                session_id: s.session_id,
                device: s.device.clone(),
                events: s.events,
                degraded: s.degraded,
                refresh_collisions: s.refresh_collisions,
            })
            .collect(),
        segments_scanned: r.accounting.segments_scanned,
        segments_pruned: r.accounting.segments_pruned,
        cache_hits: r.accounting.cache_hits,
        cache_misses: r.accounting.cache_misses,
        nodes: 1,
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(mut conn) = Conn::new(stream) else {
        return;
    };
    let hello = match conn.read_frame(&shared.stop, None) {
        Ok(Some(Frame::Hello(h))) => h,
        // Observability pollers skip the HELLO handshake entirely: a
        // metrics request is its own introduction. This path records no
        // telemetry (not even the serve.session span), so polling never
        // perturbs what it reports.
        Ok(Some(first)) if net::is_poll(&first) => {
            net::serve_polls(&mut conn, &shared.stop, first, |frame| {
                answer_poll(shared, frame)
            });
            return;
        }
        Ok(Some(_)) => {
            conn.bail(ErrorCode::Protocol, "expected HELLO first");
            return;
        }
        Ok(None) => return,
        Err(e) => {
            conn.bail(e.error_code(), &e.to_string());
            return;
        }
    };
    let _sp = obs::span!("serve.session");
    if hello.watch {
        watch_connection(&mut conn, shared);
    } else {
        session_connection(&mut conn, shared, hello);
    }
}

/// Answers one observability poll or cluster verb; `None` for any
/// other frame.
fn answer_poll(shared: &Shared, frame: Frame) -> Option<net::Answer> {
    let reply = match frame {
        Frame::MetricsRequest => Frame::Metrics(shared.metrics_reply()),
        Frame::HealthRequest => Frame::Health(shared.health()),
        Frame::FlightRequest { session_id } => Frame::FlightReply {
            dumps: shared.flight_dumps(session_id),
        },
        Frame::NodeHealthRequest => Frame::NodeHealthReply(shared.node_health()),
        // Journal range queries run against this node's own journal
        // root, through the shared decoded-segment cache.
        Frame::Query(spec) => {
            let Some(root) = shared.config.journal_dir.as_ref() else {
                return Some(Err((
                    ErrorCode::Protocol,
                    "this server keeps no journal to query".into(),
                )));
            };
            match query_journals(
                root,
                &query_spec_from_wire(&spec),
                Some(&shared.query_cache),
            ) {
                Ok(result) => Frame::QueryResult(query_result_to_wire(&result)),
                Err(e) => return Some(Err((ErrorCode::Internal, format!("query failed: {e}")))),
            }
        }
        // A standalone node's cluster state is just itself; a router
        // answers the same request with its full backend table.
        Frame::ClusterStateRequest => Frame::ClusterStateReply {
            nodes: vec![shared.node_health()],
        },
        // The cluster admin verb: drain (or leave) empties the node,
        // join marks it back up. The reply is the node's post-action
        // health row so the caller sees the transition took.
        Frame::ClusterJoin { action, .. } => {
            match action {
                ClusterAction::Drain | ClusterAction::Leave => {
                    shared.draining.store(true, Ordering::SeqCst);
                    obs::counter_add!("serve.drains", 1);
                }
                ClusterAction::Join => shared.draining.store(false, Ordering::SeqCst),
            }
            Frame::NodeHealthReply(shared.node_health())
        }
        _ => return None,
    };
    Some(Ok(reply))
}

fn watch_connection(conn: &mut Conn, shared: &Arc<Shared>) {
    if conn
        .write(&Frame::HelloAck {
            version: VERSION,
            session_id: 0,
            max_samples_per_frame: SAMPLES_FITTING_PAYLOAD,
            resume_token: 0,
            acked_seq: 0,
            trace_id: 0,
        })
        .is_err()
    {
        return;
    }
    loop {
        let hb = shared
            .config
            .heartbeat_interval
            .map(|iv| (iv, || Frame::Heartbeat { acked_seq: 0 }));
        match conn.read_frame_with(&shared.stop, None, hb, |_| ()) {
            Ok(Some(Incoming::Frame(Frame::Watch { cursor }))) => {
                let (next, missed, events) = shared
                    .tail
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .query(cursor);
                let tail = Frame::Tail(Tail {
                    cursor: next,
                    missed,
                    server: shared.stats_wire(),
                    events,
                });
                if conn.write(&tail).is_err() {
                    return;
                }
            }
            Ok(Some(Incoming::Frame(Frame::Fin))) | Ok(None) => {
                if shared.stop.is_raised() {
                    conn.bail(ErrorCode::Shutdown, "server shutting down");
                }
                return;
            }
            Ok(Some(_)) => {
                conn.bail(ErrorCode::Protocol, "watch connections may only WATCH");
                return;
            }
            Err(e) => {
                conn.bail(e.error_code(), &e.to_string());
                return;
            }
        }
    }
}

/// Validates a HELLO's rates and config without panicking.
fn validate_hello(h: &Hello) -> Result<(), String> {
    if !(h.sample_rate_hz > 0.0 && h.sample_rate_hz.is_finite()) {
        return Err(format!("bad sample rate {}", h.sample_rate_hz));
    }
    if !(h.clock_hz > 0.0 && h.clock_hz.is_finite()) {
        return Err(format!("bad clock {}", h.clock_hz));
    }
    h.config.validate()
}

fn session_connection(conn: &mut Conn, shared: &Arc<Shared>, hello: Hello) {
    if let Err(why) = validate_hello(&hello) {
        conn.bail(ErrorCode::Malformed, &why);
        return;
    }
    // Resume (non-zero resume id) reclaims a detached session; a fresh
    // HELLO creates one. Either way the session is *attached* to this
    // connection, superseding any stale reader still holding it.
    let session = if hello.resume_session_id != 0 {
        let found = shared.registry.get(hello.resume_session_id);
        match found {
            Some(s) if s.resume_token == hello.resume_token => {
                shared.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                obs::counter_add!("serve.reconnects", 1);
                s.touch(shared.registry.epoch());
                s
            }
            _ => {
                conn.bail(
                    ErrorCode::NoSession,
                    "cannot resume: unknown session or bad token",
                );
                return;
            }
        }
    } else {
        // A draining node takes no *new* work. Resumes (above) stay
        // allowed: in-flight sessions finish or get migrated, they are
        // never stranded by the drain itself.
        if shared.draining.load(Ordering::SeqCst) {
            conn.bail(ErrorCode::Shutdown, "node draining");
            return;
        }
        if hello.proxied {
            obs::counter_add!("serve.proxied_sessions", 1);
        }
        let journal_root = shared.config.journal_dir.clone();
        let device = hello.device.clone();
        let (sample_rate_hz, clock_hz, config) =
            (hello.sample_rate_hz, hello.clock_hz, hello.config);
        let Some(session) = shared.registry.create(
            hello.device,
            hello.config,
            hello.sample_rate_hz,
            hello.clock_hz,
            shared.config.queue_frames,
            shared.config.max_sessions,
            move |id, resume_token| {
                let root = journal_root?;
                let meta = SessionMeta {
                    session_id: id,
                    resume_token,
                    sample_rate_hz,
                    clock_hz,
                    config,
                    device,
                };
                match SessionJournal::create(
                    &root.join(format!("session-{id}")),
                    meta,
                    JournalConfig::default(),
                ) {
                    Ok(j) => Some(j),
                    Err(_) => {
                        // A sick disk degrades the session to unjournaled
                        // rather than refusing it.
                        obs::counter_add!("store.append_errors", 1);
                        None
                    }
                }
            },
        ) else {
            conn.bail(ErrorCode::SessionLimit, "session limit reached");
            return;
        };
        shared
            .counters
            .sessions_opened
            .fetch_add(1, Ordering::Relaxed);
        session
    };
    shared.note_sessions_active();
    let generation = session.attach();
    if conn
        .write(&Frame::HelloAck {
            version: VERSION,
            session_id: session.id,
            max_samples_per_frame: SAMPLES_FITTING_PAYLOAD,
            resume_token: session.resume_token,
            acked_seq: session.acked_seq(),
            trace_id: session.trace_id,
        })
        .is_err()
    {
        // Transport already gone: detach and leave the session for a
        // future resume (the reaper bounds how long it waits).
        session.detach(generation);
        return;
    }

    let exit = session_loop(conn, shared, &session, generation);
    session.detach(generation);
    match exit {
        SessionExit::Clean | SessionExit::Superseded => {}
        SessionExit::Lost(reason) => {
            // Transport loss with the session still live: keep it
            // resumable, but dump the black box for post-mortem.
            session.flight.error("transport", &reason);
            dump_flight(shared, &session, &reason);
        }
        SessionExit::Fault(reason) => {
            // A session-level error: dump first (close_session drains
            // and finalizes, which still appends to the ring, but the
            // dump must capture the state at the moment of the fault).
            session.flight.error("session", &reason);
            dump_flight(shared, &session, &reason);
            shared.close_session(&session);
        }
    }
}

/// How a session connection ended; decides detachment bookkeeping and
/// whether the flight recorder dumps.
enum SessionExit {
    /// Orderly end: peer done (or shutdown) with nothing owed.
    Clean,
    /// A resumed connection took this session over.
    Superseded,
    /// Transport lost/corrupt while the session was still live; the
    /// session stays registered for resume.
    Lost(String),
    /// A session-level error; the caller closes the session.
    Fault(String),
}

/// What the session's SAMPLES hook made of one frame, decided while the
/// frame's bytes are still in the receive buffer.
enum Admitted {
    /// A resumed connection took the session over; nothing was done.
    Superseded,
    /// Admitted and journaled; the samples, in a pooled buffer.
    Fresh(Vec<f64>),
    /// A replayed frame the detector already saw.
    Duplicate,
    /// The frame skipped a sequence number.
    Gap,
}

/// Persists a session's flight ring: to [`ServeConfig::flight_dir`]
/// when set, else next to the journals. With neither configured there
/// is no durable directory to land it in, so this is a no-op (the ring
/// stays pollable over FLIGHT frames either way).
fn dump_flight(shared: &Arc<Shared>, session: &Session, reason: &str) {
    let Some(root) = shared
        .config
        .flight_dir
        .as_ref()
        .or(shared.config.journal_dir.as_ref())
    else {
        return;
    };
    let json = session
        .flight
        .dump_json(session.id, session.trace_id, reason);
    match emprof_store::write_flight_dump(root, session.id, &json) {
        Ok(_) => obs::counter_add!("flight.dumps", 1),
        Err(_) => obs::counter_add!("flight.dump_errors", 1),
    }
}

fn session_loop(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    session: &Arc<Session>,
    generation: u64,
) -> SessionExit {
    loop {
        let hb = shared.config.heartbeat_interval.map(|iv| {
            (iv, || Frame::Heartbeat {
                acked_seq: session.acked_seq(),
            })
        });
        // The hook runs while the frame is still in the receive buffer:
        // the journal appends the payload bytes as they arrived, and the
        // samples are copied into a buffer recycled from this session's
        // pool, so a steady sample stream allocates nothing per frame.
        let admit = |v: SamplesView<'_>| {
            if !session.is_current(generation) {
                return Admitted::Superseded;
            }
            match session.admit_seq(v.seq) {
                SeqAdmit::Accept => {
                    // Journal BEFORE ingest: the acked watermark is only
                    // reported to the client on later frames from this
                    // same thread, so durability always precedes the
                    // client pruning its replay buffer.
                    session.journal_samples(&v);
                    let mut samples = session.take_buffer();
                    v.copy_into(&mut samples);
                    Admitted::Fresh(samples)
                }
                SeqAdmit::Duplicate => Admitted::Duplicate,
                SeqAdmit::Gap => Admitted::Gap,
            }
        };
        match conn.read_frame_with(&shared.stop, None, hb, admit) {
            Ok(Some(Incoming::Samples(admitted))) => match admitted {
                // A resumed connection took over; bow out silently.
                Admitted::Superseded => return SessionExit::Superseded,
                Admitted::Fresh(samples) => ingest_batch(shared, session, samples),
                Admitted::Duplicate => session.touch(shared.registry.epoch()),
                Admitted::Gap => {
                    conn.bail(ErrorCode::Protocol, "SAMPLES sequence gap");
                    return SessionExit::Lost("SAMPLES sequence gap".into());
                }
            },
            Ok(Some(Incoming::Frame(frame @ (Frame::Flush | Frame::Fin)))) => {
                if !session.is_current(generation) {
                    return SessionExit::Superseded;
                }
                let fin = matches!(frame, Frame::Fin);
                session.touch(shared.registry.epoch());
                let (tx, rx) = mpsc::sync_channel(1);
                let marker = if fin { Work::Fin(tx) } else { Work::Flush(tx) };
                // Control markers never shed; they block until there is
                // room (the workers are guaranteed to make some), and
                // that wait is backpressure like a batch's.
                let receipt = session.queue.push_blocking(marker);
                account_push(shared, session, &receipt);
                shared.ready.schedule(session);
                match rx.recv_timeout(REPLY_TIMEOUT) {
                    Ok(reply) => {
                        // Delivery is *offered*, never marked: the reply
                        // carries every event past the session's ack
                        // cursor, stamped with sequence numbers so the
                        // client can dedup redeliveries. Only an
                        // EVENTS_ACK frame advances the cursor, so a
                        // reply lost in flight is simply re-offered by
                        // the next FLUSH/FIN (or by resume).
                        let mut ok = true;
                        let mut offset = 0u64;
                        for chunk in reply.events.chunks(EVENTS_PER_FRAME) {
                            ok = ok
                                && conn
                                    .write(&Frame::Events {
                                        first_seq: reply.first_seq + offset,
                                        events: chunk.to_vec(),
                                    })
                                    .is_ok();
                            offset += chunk.len() as u64;
                        }
                        if reply.events.is_empty() {
                            ok = ok
                                && conn
                                    .write(&Frame::Events {
                                        first_seq: reply.first_seq,
                                        events: Vec::new(),
                                    })
                                    .is_ok();
                        }
                        ok = ok && conn.write(&Frame::Stats(reply.stats)).is_ok();
                        if !ok {
                            // A failed reply write is a transport loss:
                            // detach, keep the session resumable. The
                            // unacked suffix is redelivered on resume.
                            return SessionExit::Lost("reply write failed".into());
                        }
                        // A FIN reply does NOT retire the session: the
                        // client still owes an ack for the final events.
                        // The EVENTS_ACK arm below (or the reaper)
                        // removes it once everything is acknowledged.
                    }
                    Err(_) => {
                        conn.bail(ErrorCode::Internal, "worker pool did not answer");
                        return SessionExit::Fault("worker pool did not answer".into());
                    }
                }
            }
            Ok(Some(Incoming::Frame(Frame::EventsAck { seq }))) => {
                if !session.is_current(generation) {
                    return SessionExit::Superseded;
                }
                session.touch(shared.registry.epoch());
                if session.ack_events(seq) {
                    // Finished and fully acknowledged: the exactly-once
                    // contract is discharged, so the session (and its
                    // journal) can finally go away.
                    shared.registry.remove(session.id);
                    shared
                        .faults
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&session.id);
                    shared.note_sessions_active();
                    delete_journal_and_flight(shared, session);
                }
            }
            Ok(Some(_)) => {
                conn.bail(ErrorCode::Protocol, "unexpected frame in session");
                return SessionExit::Fault("unexpected frame in session".into());
            }
            Ok(None) => {
                if shared.stop.is_raised() {
                    conn.bail(
                        ErrorCode::Shutdown,
                        "server shutting down; session finalized",
                    );
                    return SessionExit::Clean;
                }
                // Peer closed without FIN (or shutdown): *detach*. The
                // session stays registered so the client can resume;
                // shutdown and the idle reaper still finalize it, so no
                // trailing event is ever lost. A session already retired
                // (acked out above) closing its socket is a clean end; a
                // live one is a transport loss worth a black-box dump.
                return if shared.registry.get(session.id).is_some() {
                    SessionExit::Lost("transport loss".into())
                } else {
                    SessionExit::Clean
                };
            }
            Err(_) if !session.is_current(generation) => return SessionExit::Superseded,
            Err(e) => {
                conn.bail(e.error_code(), &e.to_string());
                // Transport corruption or loss: detach, keep resumable.
                return SessionExit::Lost(format!("transport error: {e}"));
            }
        }
    }
}

fn ingest_batch(shared: &Arc<Shared>, session: &Arc<Session>, mut samples: Vec<f64>) {
    session.touch(shared.registry.epoch());
    shared.maybe_inject_faults(session.id, &mut samples);
    let n = samples.len();
    let bytes = samples_frame_len(n) as u64;
    let receipt = if shared.config.shed {
        session
            .queue
            .push_shedding(Work::Samples(samples), Work::sheddable)
    } else {
        session.queue.push_blocking(Work::Samples(samples))
    };
    let c = &session.counters;
    c.frames_in.fetch_add(1, Ordering::Relaxed);
    c.samples_in.fetch_add(n as u64, Ordering::Relaxed);
    session.samples_meter.mark(n as u64);
    let sc = &shared.counters;
    sc.frames_in.fetch_add(1, Ordering::Relaxed);
    sc.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    sc.samples_in.fetch_add(n as u64, Ordering::Relaxed);
    obs::counter_add!("serve.frames_in", 1);
    obs::counter_add!("serve.bytes_in", bytes);
    obs::counter_add!("serve.samples_in", n as u64);
    obs::meter_mark!("meter.samples_in", n as u64);
    account_push(shared, session, &receipt);
    shared.ready.schedule(session);
}

/// Books the queue side of one push into a session queue: the batches
/// it shed, the time the reader blocked on a full queue, and the depth
/// it left. SAMPLES batches and FLUSH/FIN markers both come through
/// here, so a reader held up while it carries a marker counts as
/// backpressure too.
fn account_push(shared: &Shared, session: &Session, receipt: &PushReceipt) {
    let (c, sc) = (&session.counters, &shared.counters);
    c.sheds.fetch_add(receipt.shed as u64, Ordering::Relaxed);
    c.backpressure_ns
        .fetch_add(receipt.blocked_ns, Ordering::Relaxed);
    sc.sheds.fetch_add(receipt.shed as u64, Ordering::Relaxed);
    sc.backpressure_ns
        .fetch_add(receipt.blocked_ns, Ordering::Relaxed);
    sc.peak_queue_depth
        .fetch_max(receipt.depth as u64, Ordering::Relaxed);
    if receipt.shed > 0 {
        obs::counter_add!("serve.sheds", receipt.shed as u64);
    }
    if receipt.blocked_ns > 0 {
        obs::counter_add!("serve.backpressure_ns", receipt.blocked_ns);
    }
    obs::gauge_set!("serve.queue_depth", receipt.depth as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_ring_evicts_and_reports_missed() {
        let ev = StallEvent {
            start_sample: 0,
            end_sample: 1,
            duration_cycles: 50.0,
            kind: emprof_core::StallKind::Normal,
            confidence: emprof_core::Confidence::High,
        };
        let mut ring = TailRing::new(4);
        ring.push(1, &[ev; 6]);
        let (cursor, missed, events) = ring.query(0);
        assert_eq!(cursor, 6);
        assert_eq!(missed, 2, "two events evicted before the cursor");
        assert_eq!(events.len(), 4);
        // Polling from the returned cursor sees nothing new and misses
        // nothing.
        let (c2, missed2, events2) = ring.query(cursor);
        assert_eq!(c2, 6);
        assert_eq!(missed2, 0);
        assert!(events2.is_empty());
    }

    #[test]
    fn tail_ring_incremental_polls_partition_events() {
        let ev = |s: usize| StallEvent {
            start_sample: s,
            end_sample: s + 1,
            duration_cycles: 50.0,
            kind: emprof_core::StallKind::Normal,
            confidence: emprof_core::Confidence::High,
        };
        let mut ring = TailRing::new(100);
        ring.push(1, &[ev(0), ev(2)]);
        let (c1, m1, e1) = ring.query(0);
        assert_eq!((c1, m1, e1.len()), (2, 0, 2));
        ring.push(2, &[ev(4)]);
        let (c2, m2, e2) = ring.query(c1);
        assert_eq!((c2, m2, e2.len()), (3, 0, 1));
        assert_eq!(e2[0].session_id, 2);
    }

    /// A FLUSH that waits for room in a full session queue is
    /// backpressure: its wait lands in the server's and the session's
    /// `backpressure_ns`, as a blocked SAMPLES push's does.
    #[test]
    fn marker_wait_on_a_full_queue_counts_as_backpressure() {
        let delay = Duration::from_millis(400);
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                threads: Parallelism::new(1),
                queue_frames: 1,
                ingest_delay: Some(delay),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let config = emprof_core::EmprofConfig::for_rates(40e6, 1e9);
        let mut client =
            crate::ProfileClient::connect(server.local_addr(), "t", config, 40e6, 1e9).unwrap();
        // The worker pops the first batch and sleeps on it; the second
        // fills the one-frame queue, so the FLUSH behind it waits for
        // the rest of the delay. Neither batch push waits that long.
        client.send(&[1.0; 64]).unwrap();
        client.send(&[1.0; 64]).unwrap();
        client.flush().unwrap();
        let blocked = server.stats().backpressure_ns;
        assert!(
            blocked >= delay.as_nanos() as u64 / 4,
            "a FLUSH held up by a full queue recorded only {blocked} ns of backpressure"
        );
        let session = &server.shared.registry.all()[0];
        assert_eq!(
            session.counters.backpressure_ns.load(Ordering::Relaxed),
            blocked
        );
        drop(client);
        server.shutdown();
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_frames > 0);
        assert!(!c.shed);
        assert!(c.max_sessions > 0);
        assert!(c.ingest_delay.is_none());
    }
}
