//! The router front tier: terminates the wire protocol toward clients,
//! owns the session→backend mapping via the [`HashRing`], probes
//! backend health, and migrates sessions off dead backends by
//! replaying their `emprof-store` journals into the new owner.
//!
//! ## Identity model
//!
//! The router issues its *own* session ids and resume tokens to
//! clients; the backend session behind a router session is an
//! implementation detail that can change across migrations without the
//! client noticing. Per session the router keeps the translation:
//!
//! * `seq_offset` — client SAMPLES seq = backend seq + offset,
//! * `event_offset` — client event seq = backend event seq + offset.
//!
//! Both are 0 for a session that has never been lossily migrated, so
//! the common path forwards each SAMPLES frame as the sealed bytes that
//! arrived, and the backend's `admit_seq` dedup works on the client's
//! own numbering. Only after a lossy migration is a frame copied with
//! its sequence shifted and resealed.
//!
//! ## Migration
//!
//! When a backend dies (probe mark-down or an I/O failure on the
//! proxied connection), the session's journal is read from the dead
//! node's journal directory ([`BackendSpec::journal_dir`], shared-disk
//! deployment) and replayed into the ring's next owner: samples with
//! their original sequence numbers, then a FLUSH to quiesce, then an
//! EVENTS_ACK seeding the v3 delivery cursor at the recovered value.
//! The deterministic detector regenerates byte-identical events with
//! identical numbering, so the unacked suffix is re-offered exactly
//! where the old backend left off — zero loss, zero duplication
//! (`tests/router_equivalence.rs`, `soak router`). Without a journal
//! the fallback is a fresh backend session bridged by the offsets
//! above: best-effort, honestly counted as `router.migrations_lossy`
//! (detector state inside the lost window cannot be reconstructed).
//!
//! Journal handoff is only attempted against *dead* backends: journal
//! recovery repairs torn tails in place, which must never race a live
//! writer. A *draining* backend keeps its sessions (drain only stops
//! new placements) until it actually goes down.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use emprof_obs as obs;
use emprof_serve::client::{backoff_with_jitter, ClientConfig, ClientError};
use emprof_serve::net::{self, Ack, Conn, Edge, Incoming, ReplayBuffer, Stop, POLL_INTERVAL};
use emprof_serve::proto::{
    self, ClusterAction, ErrorCode, Frame, HealthWire, Hello, MetricsReply, NodeHealthWire,
    QueryResultWire, QuerySpecWire, SamplesView, ServerStatsWire, SessionRow,
    SAMPLES_FITTING_PAYLOAD, VERSION,
};
use emprof_serve::session::splitmix64;
use emprof_store::JournalConfig;

use crate::ring::{fnv1a_64, HashRing};

/// How long a backend gets to answer a proxied control frame.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// TCP connect timeout when dialing a backend.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Hard cap on the router-side per-session replay buffer, in frames.
/// Beyond it the oldest frames are dropped and a mid-stream journal
/// replay that would need them instead falls back to dropping the
/// client connection — the client's own resume replay then covers the
/// gap with zero loss.
const UNACKED_CAP: usize = 256;

/// One backend serve node as the router knows it.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Ring name (stable across address changes).
    pub name: String,
    /// `host:port` of the backend's session listener.
    pub addr: String,
    /// The backend's `--journal` directory *as visible to the router*
    /// (shared disk / same host). `None` disables journal handoff for
    /// sessions on this backend — migrations off it are lossy.
    pub journal_dir: Option<PathBuf>,
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The initial backend set. CLUSTER_JOIN frames can grow/shrink it
    /// at runtime.
    pub backends: Vec<BackendSpec>,
    /// Virtual nodes per backend on the ring.
    pub replicas: usize,
    /// Baseline interval between health probes per backend.
    pub probe_interval: Duration,
    /// Consecutive probe failures before a backend is marked down.
    pub down_after: u32,
    /// Backoff machinery for failed probes (the same schedule a
    /// resuming client runs, via [`backoff_with_jitter`]).
    pub client: ClientConfig,
    /// Router sessions idle longer than this are forgotten (mirrors the
    /// backend reaper: a resume after both fired gets NO_SESSION).
    pub idle_timeout: Duration,
    /// When set, serve `GET /metrics` (Prometheus text format) here.
    pub metrics_addr: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            replicas: 64,
            probe_interval: Duration::from_millis(500),
            down_after: 2,
            client: ClientConfig::default(),
            idle_timeout: Duration::from_secs(60),
            metrics_addr: None,
        }
    }
}

/// Live health/ownership state for one backend.
#[derive(Debug, Clone)]
struct BackendState {
    spec: BackendSpec,
    up: bool,
    draining: bool,
    consecutive_failures: u64,
    /// Last NODE_HEALTH reply's numbers (0 until the first probe).
    sessions_active: u64,
    max_sessions: u64,
    uptime_ms: u64,
    migrations_in: u64,
    migrations_out: u64,
}

impl BackendState {
    fn new(spec: BackendSpec) -> BackendState {
        BackendState {
            spec,
            // Optimistic start: a backend is assumed up until probes say
            // otherwise, so the router is usable immediately after bind.
            up: true,
            draining: false,
            consecutive_failures: 0,
            sessions_active: 0,
            max_sessions: 0,
            uptime_ms: 0,
            migrations_in: 0,
            migrations_out: 0,
        }
    }

    fn wire(&self) -> NodeHealthWire {
        NodeHealthWire {
            name: self.spec.name.clone(),
            addr: self.spec.addr.clone(),
            up: self.up,
            draining: self.draining,
            sessions_active: self.sessions_active,
            max_sessions: self.max_sessions,
            migrations_in: self.migrations_in,
            migrations_out: self.migrations_out,
            consecutive_failures: self.consecutive_failures,
            uptime_ms: self.uptime_ms,
        }
    }
}

/// The router-side state of one client session.
#[derive(Debug)]
struct RouterSession {
    rsid: u64,
    rtoken: u64,
    trace_id: u64,
    device: String,
    sample_rate_hz: f64,
    clock_hz: f64,
    config: emprof_core::EmprofConfig,
    /// Current owner backend (ring name).
    backend: String,
    /// Backend-side session id / resume token.
    bsid: u64,
    btoken: u64,
    /// client seq = backend seq + seq_offset.
    seq_offset: u64,
    /// client event seq = backend event seq + event_offset.
    event_offset: u64,
    /// Highest backend-space SAMPLES seq the backend acknowledged.
    backend_acked: u64,
    /// Highest client-space event seq the client acknowledged.
    events_acked_c: u64,
    /// One past the highest client-space event seq ever offered.
    last_offered_end_c: u64,
    /// Whether the final (FIN) stats were forwarded to the client.
    fin_reported: bool,
    /// Replay buffer: the client's sealed frames, under their
    /// client-space sequences, not yet backend-acked.
    unacked: ReplayBuffer,
    /// Oldest frames were dropped from `unacked` (cap); a replay that
    /// needs them must fall back to a client-driven resume.
    unacked_torn: bool,
    /// Connection generation: a resume bumps it, superseding any stale
    /// proxy loop still attached.
    conn_gen: u64,
    attached: bool,
    /// Set by the prober when the owner died while this session was
    /// detached or quiet; the proxy loop migrates at the next frame.
    migrate_requested: bool,
    last_active: Instant,
    samples_pushed: u64,
    /// Degraded-confidence events relayed to the client (deduplicated
    /// against re-offers by the offered watermark).
    events_degraded: u64,
}

impl RouterSession {
    fn key(&self) -> String {
        format!("{}#{}", self.device, self.rsid)
    }

    fn hello(&self, resume: bool) -> Hello {
        Hello {
            sample_rate_hz: self.sample_rate_hz,
            clock_hz: self.clock_hz,
            config: self.config,
            device: self.device.clone(),
            watch: false,
            proxied: true,
            resume_session_id: if resume { self.bsid } else { 0 },
            resume_token: if resume { self.btoken } else { 0 },
        }
    }

    /// The HELLO_ACK that attaches the client, reporting the backend's
    /// acked sequence in client space.
    fn hello_ack(&self) -> Frame {
        Frame::HelloAck {
            version: VERSION,
            session_id: self.rsid,
            max_samples_per_frame: SAMPLES_FITTING_PAYLOAD,
            resume_token: self.rtoken,
            acked_seq: self.backend_acked + self.seq_offset,
            trace_id: self.trace_id,
        }
    }

    /// Finished, and every offered event acknowledged by the client.
    fn retired(&self) -> bool {
        self.fin_reported && self.events_acked_c >= self.last_offered_end_c
    }
}

#[derive(Debug, Default)]
struct RouterCounters {
    sessions_opened: AtomicU64,
    frames_in: AtomicU64,
    samples_in: AtomicU64,
    bytes_in: AtomicU64,
    events_out: AtomicU64,
    migrations: AtomicU64,
    migrations_lossy: AtomicU64,
    probe_failures: AtomicU64,
    mark_downs: AtomicU64,
    reconnects: AtomicU64,
}

/// A point-in-time copy of the router counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStatsSnapshot {
    /// Router sessions opened since startup.
    pub sessions_opened: u64,
    /// Router sessions currently known.
    pub sessions_active: u64,
    /// SAMPLES frames forwarded.
    pub frames_in: u64,
    /// Magnitude samples forwarded.
    pub samples_in: u64,
    /// Events relayed to clients.
    pub events_out: u64,
    /// Sessions migrated between backends (all kinds).
    pub migrations: u64,
    /// Migrations that fell back to the lossy no-journal path.
    pub migrations_lossy: u64,
    /// Failed health probes.
    pub probe_failures: u64,
    /// Up→down transitions.
    pub mark_downs: u64,
    /// Client resumes accepted.
    pub reconnects: u64,
    /// Backends currently marked up.
    pub backends_up: u64,
}

struct RouterShared {
    config: RouterConfig,
    ring: Mutex<HashRing>,
    backends: Mutex<HashMap<String, BackendState>>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<RouterSession>>>>,
    counters: RouterCounters,
    next_rsid: AtomicU64,
    token_seed: u64,
    /// [`Router::shutdown`] raises the kill flag with the stop flag, so
    /// every read, client- or backend-side, ends at once.
    stop: Stop,
    epoch: Instant,
    local_addr: String,
}

impl RouterShared {
    fn backends_up(&self) -> u64 {
        self.backends
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|b| b.up)
            .count() as u64
    }

    fn stats(&self) -> RouterStatsSnapshot {
        let c = &self.counters;
        RouterStatsSnapshot {
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_active: self
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len() as u64,
            frames_in: c.frames_in.load(Ordering::Relaxed),
            samples_in: c.samples_in.load(Ordering::Relaxed),
            events_out: c.events_out.load(Ordering::Relaxed),
            migrations: c.migrations.load(Ordering::Relaxed),
            migrations_lossy: c.migrations_lossy.load(Ordering::Relaxed),
            probe_failures: c.probe_failures.load(Ordering::Relaxed),
            mark_downs: c.mark_downs.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            backends_up: self.backends_up(),
        }
    }

    fn uptime_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// The backend that should own `key` right now: ring lookup
    /// excluding down and draining nodes. Returns `(name, addr)`.
    fn choose_owner(&self, key: &str, also_exclude: &[&str]) -> Option<(String, String)> {
        let backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        let mut excluded: Vec<&str> = backends
            .values()
            .filter(|b| !b.up || b.draining)
            .map(|b| b.spec.name.as_str())
            .collect();
        excluded.extend_from_slice(also_exclude);
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let name = ring.owner_excluding(key, &excluded)?.to_string();
        let addr = backends.get(&name)?.spec.addr.clone();
        Some((name, addr))
    }

    /// Marks a backend down after an I/O failure on a proxied
    /// connection (the prober will mark it back up if it recovers).
    fn mark_down(&self, name: &str) {
        let mut backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(b) = backends.get_mut(name) {
            if b.up {
                b.up = false;
                self.counters.mark_downs.fetch_add(1, Ordering::Relaxed);
                obs::counter_add!("router.mark_downs", 1);
            }
        }
    }

    fn backend_spec(&self, name: &str) -> Option<BackendSpec> {
        let backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        Some(backends.get(name)?.spec.clone())
    }

    fn note_migration(&self, from: &str, to: &str, lossy: bool) {
        self.counters.migrations.fetch_add(1, Ordering::Relaxed);
        obs::counter_add!("router.migrations", 1);
        if lossy {
            self.counters
                .migrations_lossy
                .fetch_add(1, Ordering::Relaxed);
            obs::counter_add!("router.migrations_lossy", 1);
        }
        let mut backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(b) = backends.get_mut(from) {
            b.migrations_out += 1;
        }
        if let Some(b) = backends.get_mut(to) {
            b.migrations_in += 1;
        }
    }

    fn cluster_state(&self) -> Vec<NodeHealthWire> {
        let backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        let mut nodes: Vec<NodeHealthWire> = backends.values().map(BackendState::wire).collect();
        nodes.sort_by(|a, b| a.name.cmp(&b.name));
        nodes
    }

    /// The router's own aggregate row (name `router`).
    fn self_health(&self) -> NodeHealthWire {
        // The session map is read before the backends lock is taken: a
        // session holder may wait on the backends lock while the map's
        // holder waits on that session.
        let sessions_active = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len() as u64;
        let backends = self.backends.lock().unwrap_or_else(|e| e.into_inner());
        NodeHealthWire {
            name: "router".into(),
            addr: self.local_addr.clone(),
            up: backends.values().any(|b| b.up),
            draining: false,
            sessions_active,
            max_sessions: backends.values().map(|b| b.max_sessions).sum(),
            migrations_in: 0,
            migrations_out: self.counters.migrations.load(Ordering::Relaxed),
            consecutive_failures: 0,
            uptime_ms: self.uptime_ms(),
        }
    }

    fn health(&self) -> HealthWire {
        let s = self.self_health();
        HealthWire {
            healthy: s.up && !self.stop.is_raised(),
            uptime_ms: s.uptime_ms,
            sessions_active: s.sessions_active,
            max_sessions: s.max_sessions,
            journal_enabled: false,
        }
    }

    fn metrics_reply(&self) -> MetricsReply {
        let sessions_map = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        let mut sessions: Vec<SessionRow> = sessions_map
            .values()
            .map(|entry| {
                let s = entry.lock().unwrap_or_else(|e| e.into_inner());
                SessionRow {
                    session_id: s.rsid,
                    trace_id: s.trace_id,
                    device: s.device.clone(),
                    connected: s.attached,
                    queue_depth: s.unacked.len() as u64,
                    queue_capacity: UNACKED_CAP as u64,
                    samples_pushed: s.samples_pushed,
                    samples_per_sec: 0.0,
                    events_emitted: s.last_offered_end_c,
                    events_acked: s.events_acked_c,
                    journaled_events: 0,
                    sheds: 0,
                    samples_rejected: 0,
                    events_degraded: s.events_degraded,
                    idle_ms: s.last_active.elapsed().as_millis().min(u64::MAX as u128) as u64,
                }
            })
            .collect();
        drop(sessions_map);
        sessions.sort_by_key(|r| r.session_id);
        sessions.truncate(proto::MAX_SESSION_ROWS as usize);
        let c = &self.counters;
        MetricsReply {
            snapshot: obs::snapshot(),
            server: ServerStatsWire {
                sessions_active: sessions.len() as u64,
                frames_in: c.frames_in.load(Ordering::Relaxed),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                samples_in: c.samples_in.load(Ordering::Relaxed),
                events_total: c.events_out.load(Ordering::Relaxed),
                sheds: 0,
            },
            sessions,
        }
    }

    fn note_sessions_active(&self) {
        let n = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        obs::gauge_set!("router.sessions_active", n as f64);
    }
}

/// Why a backend operation failed.
#[derive(Debug)]
enum BErr {
    /// The backend leg failed as a client's connection would; an ERROR
    /// frame from the backend is [`ClientError::Server`].
    Backend(ClientError),
    /// No live backend can take the session.
    NoBackends,
    /// The router-side replay buffer cannot cover the unjournaled gap;
    /// the client's own resume replay must.
    ReplayGap,
}

impl<E: Into<ClientError>> From<E> for BErr {
    fn from(e: E) -> BErr {
        BErr::Backend(e.into())
    }
}

impl BErr {
    /// Whether the backend answered with an ERROR frame: a verdict that
    /// a migration and retry would not change.
    fn is_remote(&self) -> bool {
        matches!(self, BErr::Backend(ClientError::Server { .. }))
    }
}

impl std::fmt::Display for BErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BErr::Backend(e) => write!(f, "backend {e}"),
            BErr::NoBackends => write!(f, "no live backend available"),
            BErr::ReplayGap => write!(f, "replay buffer torn; client resume required"),
        }
    }
}

/// Dials `addr` and performs the HELLO handshake.
fn dial_backend(addr: &str, hello: Hello, stop: &Stop) -> Result<(Conn, Ack), BErr> {
    let mut conn = Conn::dial(addr, DIAL_TIMEOUT)?;
    let ack = conn.handshake(hello, stop, REPLY_TIMEOUT)?;
    Ok((conn, ack))
}

/// One request on a fresh backend connection: dial, ask, read the
/// reply, drop the connection.
fn ask_backend(addr: &str, request: &Frame, stop: &Stop, timeout: Duration) -> Result<Frame, BErr> {
    Ok(Conn::dial(addr, DIAL_TIMEOUT)?.ask(request, stop, timeout)?)
}

/// Migrates `sess` off its (dead) owner onto the ring's next choice.
/// On success the session points at the new backend and the returned
/// connection is attached to it. See the module docs for the
/// exactly-once argument.
fn migrate_session(shared: &Arc<RouterShared>, sess: &mut RouterSession) -> Result<Conn, BErr> {
    let old = sess.backend.clone();
    shared.mark_down(&old);
    let key = sess.key();
    let (new_name, new_addr) = shared
        .choose_owner(&key, &[old.as_str()])
        .ok_or(BErr::NoBackends)?;

    // Journal handoff: read the dead node's journal for this session.
    let recovered = shared
        .backend_spec(&old)
        .and_then(|b| b.journal_dir)
        .map(|root| root.join(format!("session-{}", sess.bsid)))
        .and_then(|dir| {
            emprof_store::read_session(&dir, JournalConfig::default())
                .ok()
                .flatten()
                .map(|rec| (dir, rec))
        });

    if let Some((_, rec)) = &recovered {
        // The replay buffer must cover everything past the journal's
        // watermark, or the continuation would have a sequence gap the
        // backend rejects. (Client-space seq of the journal watermark.)
        let journal_acked_c = rec.acked_samples_seq + sess.seq_offset;
        if sess.unacked_torn
            && sess
                .unacked
                .oldest_seq()
                .is_some_and(|cseq| cseq > journal_acked_c + 1)
        {
            return Err(BErr::ReplayGap);
        }
    }

    let (mut bconn, ack) = dial_backend(&new_addr, sess.hello(false), &shared.stop)?;
    // The backend-space sequence the new owner has ingested through,
    // and the watermark to record for it.
    let (ingested, acked) = if let Some((old_dir, rec)) = &recovered {
        // Replay the accepted sample stream with its original backend-
        // space sequence numbers: the deterministic detector rebuilds
        // the exact pre-crash state and event numbering.
        for (seq, samples) in &rec.samples {
            bconn.write_encoded(&proto::encode_samples(*seq, samples))?;
        }
        // Quiesce so the regenerated events finalize, then seed the v3
        // delivery cursor at the recovered value. The events of this
        // administrative flush are NOT forwarded — the unacked suffix
        // is re-offered to the client on its own next FLUSH/FIN and
        // deduped by its seen-watermark either way.
        bconn.write(if rec.finished.is_some() {
            &Frame::Fin
        } else {
            &Frame::Flush
        })?;
        let stats = bconn.read_events_and_stats(&shared.stop, REPLY_TIMEOUT, |_| {}, |_, _| {})?;
        if rec.acked_events > 0 {
            bconn.write(&Frame::EventsAck {
                seq: rec.acked_events,
            })?;
        }
        // The old node is dead; were it to restart on the same journal
        // directory it would resurrect a session the fleet has already
        // moved — delete the handed-off journal to make the migration
        // exactly-once across restarts too.
        let _ = fs::remove_dir_all(old_dir);
        (stats.acked_seq, stats.acked_seq.max(rec.acked_samples_seq))
    } else {
        // No journal to hand off: bridge a fresh backend session with
        // sequence offsets. The detector state inside the lost window
        // is gone — honestly lossy, counted as such.
        sess.seq_offset += sess.backend_acked;
        sess.event_offset = sess.last_offered_end_c.max(sess.events_acked_c);
        (0, 0)
    };
    sess.backend = new_name.clone();
    sess.bsid = ack.session_id;
    sess.btoken = ack.resume_token;
    sess.backend_acked = acked;
    // Top up with the router-buffered frames the new owner lacks.
    replay_unacked(&mut bconn, sess, ingested + sess.seq_offset)?;
    shared.note_migration(&old, &new_name, recovered.is_none());
    Ok(bconn)
}

/// Writes every buffered frame past client-space sequence `after_c` to
/// the backend: as it arrived while the session's sequence offset is 0,
/// and after a lossy migration as a copy resealed under its
/// backend-space sequence.
fn replay_unacked(b: &mut Conn, sess: &RouterSession, after_c: u64) -> io::Result<()> {
    for (cseq, frame) in sess.unacked.after(after_c.max(sess.seq_offset)) {
        if sess.seq_offset == 0 {
            b.write_encoded(frame)?;
        } else {
            b.write_encoded(&proto::resequence_samples(frame, cseq - sess.seq_offset))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The public handle.

/// A running router tier. Dropping it (or calling [`Router::shutdown`])
/// stops it.
pub struct Router {
    shared: Arc<RouterShared>,
    edge: Edge,
    prober_handle: Option<std::thread::JoinHandle<()>>,
    reaper_handle: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Binds the client-facing listener and starts the accept, prober,
    /// and reaper threads (plus the `/metrics` responder when
    /// configured).
    ///
    /// # Errors
    ///
    /// Propagates listener binding failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: RouterConfig) -> io::Result<Router> {
        let metrics_addr = config.metrics_addr.clone();
        let (edge, shared) = Edge::bind(addr, metrics_addr.as_deref(), |local_addr| {
            let mut ring = HashRing::new(config.replicas);
            let mut backends = HashMap::new();
            for spec in &config.backends {
                ring.add(&spec.name);
                backends.insert(spec.name.clone(), BackendState::new(spec.clone()));
            }
            let local_addr = local_addr.to_string();
            let token_seed =
                splitmix64(fnv1a_64(local_addr.as_bytes()) ^ u64::from(std::process::id()));
            Ok(RouterShared {
                config,
                ring: Mutex::new(ring),
                backends: Mutex::new(backends),
                sessions: Mutex::new(HashMap::new()),
                counters: RouterCounters::default(),
                next_rsid: AtomicU64::new(1),
                token_seed,
                stop: Stop::default(),
                epoch: Instant::now(),
                local_addr,
            })
        })?;

        let prober_shared = Arc::clone(&shared);
        let prober_handle = std::thread::Builder::new()
            .name("emprof-router-prober".into())
            .spawn(move || prober_loop(&prober_shared))?;

        let reaper_shared = Arc::clone(&shared);
        let reaper_handle = std::thread::Builder::new()
            .name("emprof-router-reaper".into())
            .spawn(move || reaper_loop(&reaper_shared))?;

        Ok(Router {
            shared,
            edge,
            prober_handle: Some(prober_handle),
            reaper_handle: Some(reaper_handle),
        })
    }

    /// The client-facing listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.edge.local_addr()
    }

    /// The `/metrics` HTTP listener address, when configured.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.edge.metrics_addr()
    }

    /// A snapshot of the router counters.
    pub fn stats(&self) -> RouterStatsSnapshot {
        self.shared.stats()
    }

    /// The per-backend health table, as CLUSTER_STATE reports it.
    pub fn cluster_state(&self) -> Vec<NodeHealthWire> {
        self.shared.cluster_state()
    }

    /// Marks a backend draining router-side and forwards the drain verb
    /// to the backend itself (best-effort): no new sessions land there,
    /// existing ones keep working until the node goes away.
    pub fn drain_backend(&self, name: &str) -> bool {
        drain_backend_inner(&self.shared, name)
    }

    /// Graceful shutdown: stop accepting, join every thread.
    pub fn shutdown(mut self) -> RouterStatsSnapshot {
        self.shutdown_inner();
        self.shared.stats()
    }

    fn shutdown_inner(&mut self) {
        if self.shared.stop.raise(true) {
            return;
        }
        self.edge.shutdown();
        if let Some(h) = self.prober_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn drain_backend_inner(shared: &Arc<RouterShared>, name: &str) -> bool {
    let addr = {
        let mut backends = shared.backends.lock().unwrap_or_else(|e| e.into_inner());
        let Some(b) = backends.get_mut(name) else {
            return false;
        };
        b.draining = true;
        b.spec.addr.clone()
    };
    obs::counter_add!("router.drains", 1);
    // Forward the drain so the backend also rejects fresh sessions that
    // bypass the router. Best-effort: a dead backend is already drained.
    let drain = Frame::ClusterJoin {
        name: name.to_string(),
        addr: addr.clone(),
        action: ClusterAction::Drain,
    };
    let _ = ask_backend(&addr, &drain, &shared.stop, DIAL_TIMEOUT);
    true
}

// ---------------------------------------------------------------------
// Threads.

/// Health probing: one NODE_HEALTH poll per backend per interval, with
/// [`backoff_with_jitter`] pacing retries against failing nodes —
/// exactly the schedule a reconnecting client runs, so a flapping
/// backend sees the same pressure either way.
fn prober_loop(shared: &Arc<RouterShared>) {
    let mut rng: u64 = splitmix64(shared.token_seed ^ 0x0070_726f_6265);
    let mut next_probe: HashMap<String, Instant> = HashMap::new();
    while !shared.stop.is_raised() {
        let names: Vec<String> = shared
            .backends
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        let now = Instant::now();
        for name in names {
            if next_probe.get(&name).is_some_and(|&t| now < t) {
                continue;
            }
            let Some(BackendSpec { addr, .. }) = shared.backend_spec(&name) else {
                continue;
            };
            match ask_backend(
                &addr,
                &Frame::NodeHealthRequest,
                &shared.stop,
                REPLY_TIMEOUT,
            ) {
                Ok(Frame::NodeHealthReply(reply)) => {
                    let mut backends = shared.backends.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(b) = backends.get_mut(&name) {
                        if !b.up {
                            obs::counter_add!("router.mark_ups", 1);
                        }
                        b.up = true;
                        b.consecutive_failures = 0;
                        // A backend that reports draining (drained out of
                        // band) is honored router-side too.
                        b.draining = b.draining || reply.draining;
                        b.sessions_active = reply.sessions_active;
                        b.max_sessions = reply.max_sessions;
                        b.uptime_ms = reply.uptime_ms;
                    }
                    next_probe.insert(name, now + shared.config.probe_interval);
                }
                _ => {
                    shared
                        .counters
                        .probe_failures
                        .fetch_add(1, Ordering::Relaxed);
                    obs::counter_add!("router.probe_failures", 1);
                    let (failures, marked_down) = {
                        let mut backends =
                            shared.backends.lock().unwrap_or_else(|e| e.into_inner());
                        let Some(b) = backends.get_mut(&name) else {
                            continue;
                        };
                        b.consecutive_failures += 1;
                        let down =
                            b.up && b.consecutive_failures >= u64::from(shared.config.down_after);
                        if down {
                            b.up = false;
                            shared.counters.mark_downs.fetch_add(1, Ordering::Relaxed);
                            obs::counter_add!("router.mark_downs", 1);
                        }
                        (b.consecutive_failures, down)
                    };
                    // Outside the backends lock: migrating takes session
                    // locks and then the backends lock again.
                    if marked_down {
                        request_migrations(shared, &name);
                    }
                    let attempt = u32::try_from(failures.saturating_sub(1)).unwrap_or(u32::MAX);
                    let delay = backoff_with_jitter(&shared.config.client, attempt, &mut rng);
                    next_probe.insert(name, now + shared.config.probe_interval.max(delay));
                }
            }
        }
        obs::gauge_set!("router.backends_up", shared.backends_up() as f64);
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Flags every session owned by a just-downed backend for migration.
/// Detached sessions are migrated here and now (their journals are
/// safe to read — the node is down); attached ones are flagged so the
/// proxy loop migrates in-stream at its next frame.
fn request_migrations(shared: &Arc<RouterShared>, dead: &str) {
    let entries: Vec<Arc<Mutex<RouterSession>>> = shared
        .sessions
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
        .cloned()
        .collect();
    for entry in entries {
        let mut s = entry.lock().unwrap_or_else(|e| e.into_inner());
        if s.backend != dead {
            continue;
        }
        if s.attached {
            s.migrate_requested = true;
        } else {
            // Migrate now; the connection is dropped right after — the
            // session sits detached on the new owner awaiting resume.
            let _ = migrate_session(shared, &mut s);
        }
    }
}

fn reaper_loop(shared: &Arc<RouterShared>) {
    while !shared.stop.is_raised() {
        std::thread::sleep(POLL_INTERVAL);
        let idle = shared.config.idle_timeout;
        let mut sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.retain(|_, entry| {
            let s = entry.lock().unwrap_or_else(|e| e.into_inner());
            s.attached || s.last_active.elapsed() < idle
        });
        drop(sessions);
        shared.note_sessions_active();
    }
}

// ---------------------------------------------------------------------
// Connection handling.

fn handle_connection(stream: TcpStream, shared: &Arc<RouterShared>) {
    let Ok(mut conn) = Conn::new(stream) else {
        return;
    };
    let first = match conn.read_frame(&shared.stop, None) {
        Ok(Some(f)) => f,
        Ok(None) => return,
        Err(e) => {
            conn.bail(e.error_code(), &e.to_string());
            return;
        }
    };
    match first {
        Frame::Hello(h) if h.watch => {
            conn.bail(
                ErrorCode::Protocol,
                "the router has no watch tail; WATCH a backend directly",
            );
        }
        Frame::Hello(h) => proxy_connection(&mut conn, shared, h),
        poll if net::is_poll(&poll) => {
            net::serve_polls(&mut conn, &shared.stop, poll, |frame| {
                answer_poll(shared, frame)
            });
        }
        _ => conn.bail(ErrorCode::Protocol, "expected HELLO first"),
    }
}

/// Answers one observability poll or cluster admin verb on the router's
/// own listener: the polls a backend answers, plus the cluster table
/// and topology verbs. `None` for any other frame.
fn answer_poll(shared: &Arc<RouterShared>, frame: Frame) -> Option<net::Answer> {
    let reply = match frame {
        Frame::MetricsRequest => Frame::Metrics(shared.metrics_reply()),
        Frame::HealthRequest => Frame::Health(shared.health()),
        // The router has no per-session flight recorders; the backends
        // do. Answer with an empty dump set rather than an error so
        // fleet-blind pollers keep working.
        Frame::FlightRequest { .. } => Frame::FlightReply { dumps: Vec::new() },
        Frame::NodeHealthRequest => Frame::NodeHealthReply(shared.self_health()),
        Frame::ClusterStateRequest => Frame::ClusterStateReply {
            nodes: shared.cluster_state(),
        },
        Frame::ClusterJoin { name, addr, action } => {
            Frame::NodeHealthReply(apply_cluster_join(shared, &name, &addr, action))
        }
        // A fleet query: fan the spec out to every up backend and merge
        // the per-node results. Identical power-of-two histogram bounds
        // make the merged statistics bit-identical to one query over the
        // union of journals, so routed-equals-direct holds for queries
        // too.
        Frame::Query(spec) => match fan_out_query(shared, &spec) {
            Some(merged) => Frame::QueryResult(merged),
            None => {
                return Some(Err((
                    ErrorCode::Internal,
                    "no backend answered the query".into(),
                )))
            }
        },
        _ => return None,
    };
    Some(Ok(reply))
}

/// Fans a journal query out to every up backend and merges the
/// results. Backends that fail mid-query are skipped (and counted in
/// `router.query_backend_down`); `None` means not a single backend
/// produced a result.
fn fan_out_query(shared: &Arc<RouterShared>, spec: &QuerySpecWire) -> Option<QueryResultWire> {
    let targets: Vec<String> = {
        let backends = shared.backends.lock().unwrap_or_else(|e| e.into_inner());
        backends
            .values()
            .filter(|b| b.up)
            .map(|b| b.spec.addr.clone())
            .collect()
    };
    let query = Frame::Query(spec.clone());
    let mut merged: Option<QueryResultWire> = None;
    for addr in &targets {
        match ask_backend(addr, &query, &shared.stop, REPLY_TIMEOUT) {
            Ok(Frame::QueryResult(result)) => match merged.as_mut() {
                Some(m) => m.merge(&result),
                None => merged = Some(result),
            },
            _ => {
                obs::counter_add!("router.query_backend_down", 1);
            }
        }
    }
    merged
}

/// Applies a topology verb and returns the affected node's row.
fn apply_cluster_join(
    shared: &Arc<RouterShared>,
    name: &str,
    addr: &str,
    action: ClusterAction,
) -> NodeHealthWire {
    match action {
        ClusterAction::Join => {
            let mut backends = shared.backends.lock().unwrap_or_else(|e| e.into_inner());
            let state = backends.entry(name.to_string()).or_insert_with(|| {
                BackendState::new(BackendSpec {
                    name: name.to_string(),
                    addr: addr.to_string(),
                    journal_dir: None,
                })
            });
            if !addr.is_empty() {
                state.spec.addr = addr.to_string();
            }
            state.up = true;
            state.draining = false;
            state.consecutive_failures = 0;
            let row = state.wire();
            drop(backends);
            shared
                .ring
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .add(name);
            obs::counter_add!("router.joins", 1);
            row
        }
        ClusterAction::Drain | ClusterAction::Leave => {
            drain_backend_inner(shared, name);
            if action == ClusterAction::Leave {
                // Leaving also takes the node's arc off the ring so new
                // keys never hash there again; its state row is kept
                // (down+draining) for the journal-handoff path.
                shared
                    .ring
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(name);
            }
            shared
                .backends
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(name)
                .map(BackendState::wire)
                .unwrap_or_default()
        }
    }
}

/// How the proxied session connection ended.
enum ProxyExit {
    /// A resumed connection took the session over.
    Superseded,
    /// Transport lost while live; session stays resumable.
    Lost,
    /// Session finished and fully acknowledged: retire it.
    Retired,
}

fn proxy_connection(conn: &mut Conn, shared: &Arc<RouterShared>, hello: Hello) {
    let _sp = obs::span!("router.session");
    let (entry, mut bconn, my_gen) = if hello.resume_session_id != 0 {
        match attach_resume(conn, shared, &hello) {
            Some(x) => x,
            None => return,
        }
    } else {
        match attach_fresh(conn, shared, hello) {
            Some(x) => x,
            None => return,
        }
    };
    let ack = entry.lock().unwrap_or_else(|e| e.into_inner()).hello_ack();
    let exit = match conn.write(&ack) {
        Ok(()) => proxy_loop(conn, shared, &entry, &mut bconn, my_gen),
        Err(_) => ProxyExit::Lost,
    };
    let rsid = {
        let mut s = entry.lock().unwrap_or_else(|e| e.into_inner());
        if s.conn_gen == my_gen {
            s.attached = false;
        }
        s.rsid
    };
    if matches!(exit, ProxyExit::Retired) {
        shared
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&rsid);
        shared.note_sessions_active();
    }
    if matches!(exit, ProxyExit::Lost) && shared.stop.is_raised() {
        conn.bail(ErrorCode::Shutdown, "router shutting down");
    }
}

/// Places a fresh session on the ring and opens its backend leg.
/// Failing backends are marked down and the walk continues, so a cold
/// dead node costs one dial timeout, not the session.
fn attach_fresh(
    conn: &mut Conn,
    shared: &Arc<RouterShared>,
    hello: Hello,
) -> Option<(Arc<Mutex<RouterSession>>, Conn, u64)> {
    let rsid = shared.next_rsid.fetch_add(1, Ordering::Relaxed);
    let rtoken = splitmix64(shared.token_seed ^ rsid);
    let trace_id = splitmix64(shared.token_seed ^ rsid ^ 0x0074_7261_6365);
    let key = format!("{}#{}", hello.device, rsid);
    let backend_count = shared
        .backends
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .len();
    let mut tried: Vec<String> = Vec::new();
    let (bconn, bname, bsid, btoken) = loop {
        if tried.len() > backend_count {
            conn.bail(ErrorCode::Internal, "no live backend available");
            return None;
        }
        let tried_refs: Vec<&str> = tried.iter().map(String::as_str).collect();
        let Some((name, addr)) = shared.choose_owner(&key, &tried_refs) else {
            conn.bail(ErrorCode::Shutdown, "no live backend available");
            return None;
        };
        let bh = Hello {
            proxied: true,
            watch: false,
            resume_session_id: 0,
            resume_token: 0,
            ..hello.clone()
        };
        match dial_backend(&addr, bh, &shared.stop) {
            Ok((bconn, ack)) => break (bconn, name, ack.session_id, ack.resume_token),
            Err(BErr::Backend(ClientError::Server { code, message })) => {
                // The backend answered and refused (bad config, session
                // limit, draining): relay its verdict verbatim.
                conn.bail(code, &message);
                return None;
            }
            Err(_) => {
                shared.mark_down(&name);
                tried.push(name);
            }
        }
    };
    let sess = RouterSession {
        rsid,
        rtoken,
        trace_id,
        device: hello.device,
        sample_rate_hz: hello.sample_rate_hz,
        clock_hz: hello.clock_hz,
        config: hello.config,
        backend: bname,
        bsid,
        btoken,
        seq_offset: 0,
        event_offset: 0,
        backend_acked: 0,
        events_acked_c: 0,
        last_offered_end_c: 0,
        fin_reported: false,
        unacked: ReplayBuffer::default(),
        unacked_torn: false,
        events_degraded: 0,
        conn_gen: 1,
        attached: true,
        migrate_requested: false,
        last_active: Instant::now(),
        samples_pushed: 0,
    };
    let entry = Arc::new(Mutex::new(sess));
    shared
        .sessions
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(rsid, Arc::clone(&entry));
    shared
        .counters
        .sessions_opened
        .fetch_add(1, Ordering::Relaxed);
    obs::counter_add!("router.sessions_opened", 1);
    shared.note_sessions_active();
    Some((entry, bconn, 1))
}

/// Reattaches a resuming client: reclaims the backend leg (resume) or
/// migrates if the owner died while the client was away.
fn attach_resume(
    conn: &mut Conn,
    shared: &Arc<RouterShared>,
    hello: &Hello,
) -> Option<(Arc<Mutex<RouterSession>>, Conn, u64)> {
    let entry = {
        let sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.get(&hello.resume_session_id).cloned()
    };
    let Some(entry) = entry else {
        conn.bail(
            ErrorCode::NoSession,
            "cannot resume: unknown session or bad token",
        );
        return None;
    };
    let mut s = entry.lock().unwrap_or_else(|e| e.into_inner());
    if s.rtoken != hello.resume_token {
        drop(s);
        conn.bail(
            ErrorCode::NoSession,
            "cannot resume: unknown session or bad token",
        );
        return None;
    }
    s.conn_gen += 1;
    s.attached = true;
    s.migrate_requested = false;
    s.last_active = Instant::now();
    let my_gen = s.conn_gen;

    // First try to reclaim the current owner; a dead owner triggers
    // migration (journaled when possible).
    let bconn = match dial_backend(
        &shared
            .backend_spec(&s.backend)
            .map(|b| b.addr)
            .unwrap_or_default(),
        s.hello(true),
        &shared.stop,
    ) {
        Ok((bconn, ack)) => {
            s.backend_acked = ack.acked_seq;
            Ok(bconn)
        }
        Err(BErr::Backend(ClientError::Server {
            code: ErrorCode::NoSession,
            ..
        })) => {
            // The backend reaped or retired it; nothing to resume.
            drop(s);
            conn.bail(ErrorCode::NoSession, "session expired on its backend");
            return None;
        }
        Err(_) => migrate_session(shared, &mut s),
    };
    let bconn = match bconn {
        Ok(b) => b,
        Err(e) => {
            drop(s);
            conn.bail(ErrorCode::Internal, &format!("resume failed: {e}"));
            return None;
        }
    };
    // Prune the replay buffer to the surviving watermark before the
    // client replays on top of it.
    let acked_c = s.backend_acked + s.seq_offset;
    s.unacked.prune_through(acked_c);
    shared.counters.reconnects.fetch_add(1, Ordering::Relaxed);
    obs::counter_add!("router.reconnects", 1);
    drop(s);
    Some((entry, bconn, my_gen))
}

/// Forwards one frame to the backend, migrating (at most twice) on
/// transport failure. `op` re-runs against the post-migration
/// connection; migration itself replays the unacked buffer, so a
/// failed SAMPLES write is already covered when `op` runs again.
fn with_backend_retry(
    shared: &Arc<RouterShared>,
    sess: &mut RouterSession,
    bconn: &mut Conn,
    mut op: impl FnMut(&mut Conn, &RouterSession) -> Result<(), BErr>,
) -> Result<(), BErr> {
    let mut last = match op(bconn, sess) {
        Err(e) if !e.is_remote() => e,
        done => return done,
    };
    for _ in 0..2 {
        *bconn = migrate_session(shared, sess)?;
        match op(bconn, sess) {
            Err(e) if !e.is_remote() => last = e,
            done => return done,
        }
    }
    Err(last)
}

fn proxy_loop(
    conn: &mut Conn,
    shared: &Arc<RouterShared>,
    entry: &Arc<Mutex<RouterSession>>,
    bconn: &mut Conn,
    my_gen: u64,
) -> ProxyExit {
    loop {
        // A SAMPLES frame is kept as the sealed bytes that arrived, copied
        // into a buffer the replay buffer recycled.
        let keep = |v: SamplesView<'_>| {
            let mut sealed = entry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .unacked
                .spare();
            sealed.extend_from_slice(v.frame());
            (v.seq, v.len(), sealed)
        };
        let no_heartbeat = None::<(Duration, fn() -> Frame)>;
        let frame = match conn.read_frame_with(&shared.stop, None, no_heartbeat, keep) {
            Ok(Some(f)) => f,
            Ok(None) => {
                let s = entry.lock().unwrap_or_else(|e| e.into_inner());
                return if s.retired() {
                    ProxyExit::Retired
                } else {
                    ProxyExit::Lost
                };
            }
            Err(e) => {
                conn.bail(e.error_code(), &e.to_string());
                return ProxyExit::Lost;
            }
        };
        let mut s = entry.lock().unwrap_or_else(|e| e.into_inner());
        if s.conn_gen != my_gen {
            return ProxyExit::Superseded;
        }
        s.last_active = Instant::now();
        // The prober saw this session's owner die while the connection
        // was quiet: migrate before touching the dead leg.
        if s.migrate_requested {
            s.migrate_requested = false;
            match migrate_session(shared, &mut s) {
                Ok(new_conn) => *bconn = new_conn,
                Err(_) => {
                    drop(s);
                    conn.bail(ErrorCode::Internal, "owner died and migration failed");
                    return ProxyExit::Lost;
                }
            }
        }
        match frame {
            Incoming::Samples((seq, n, sealed)) => {
                let c = &shared.counters;
                c.frames_in.fetch_add(1, Ordering::Relaxed);
                c.samples_in.fetch_add(n as u64, Ordering::Relaxed);
                c.bytes_in.fetch_add(sealed.len() as u64, Ordering::Relaxed);
                obs::counter_add!("router.frames_forwarded", 1);
                s.samples_pushed += n as u64;
                // Buffer before forwarding: a mid-write backend death is
                // then covered by the migration replay.
                s.unacked.push(seq, sealed);
                while s.unacked.len() > UNACKED_CAP {
                    s.unacked.pop_oldest();
                    s.unacked_torn = true;
                }
                let forward = with_backend_retry(shared, &mut s, bconn, |b, s| {
                    Ok(replay_unacked(b, s, seq.saturating_sub(1))?)
                });
                if let Err(e) = forward {
                    drop(s);
                    conn.bail(ErrorCode::Internal, &format!("forward failed: {e}"));
                    return ProxyExit::Lost;
                }
            }
            Incoming::Frame(ctl @ (Frame::Flush | Frame::Fin)) => {
                let fin = matches!(ctl, Frame::Fin);
                // Forward the control frame and stream the reply back,
                // translating the event and sample numbering. On a
                // backend death mid-reply the whole exchange re-runs
                // against the new owner: the delivery cursor only moves
                // on client EVENTS_ACK, so the re-offered events are
                // deduped by the client's seen-watermark — the reply is
                // idempotent by construction.
                let mut relayed: Vec<Frame> = Vec::new();
                let exchange = with_backend_retry(shared, &mut s, bconn, |b, s| {
                    relayed.clear();
                    b.write(if fin { &Frame::Fin } else { &Frame::Flush })?;
                    let event_offset = s.event_offset;
                    let seq_offset = s.seq_offset;
                    let mut frames: Vec<Frame> = Vec::new();
                    let stats = b.read_events_and_stats(
                        &shared.stop,
                        REPLY_TIMEOUT,
                        |_| {},
                        |first_seq, events| {
                            frames.push(Frame::Events {
                                first_seq: first_seq + event_offset,
                                events,
                            });
                        },
                    )?;
                    let mut stats_c = stats;
                    stats_c.acked_seq = stats.acked_seq + seq_offset;
                    frames.push(Frame::Stats(stats_c));
                    relayed = frames;
                    Ok(())
                });
                if let Err(e) = exchange {
                    drop(s);
                    conn.bail(ErrorCode::Internal, &format!("flush failed: {e}"));
                    return ProxyExit::Lost;
                }
                // Bookkeeping from the translated reply, then forward.
                for f in &relayed {
                    match f {
                        Frame::Events { first_seq, events } if !events.is_empty() => {
                            // Re-offered (unacked) events reappear below
                            // the watermark; only count the fresh suffix.
                            let prev = s.last_offered_end_c;
                            s.last_offered_end_c = s
                                .last_offered_end_c
                                .max(first_seq + events.len() as u64 - 1);
                            s.events_degraded += events
                                .iter()
                                .enumerate()
                                .filter(|(i, e)| {
                                    first_seq + *i as u64 > prev
                                        && e.confidence == emprof_core::Confidence::Degraded
                                })
                                .count() as u64;
                            shared
                                .counters
                                .events_out
                                .fetch_add(events.len() as u64, Ordering::Relaxed);
                        }
                        Frame::Stats(stats) => {
                            s.backend_acked = stats.acked_seq.saturating_sub(s.seq_offset);
                            s.unacked.prune_through(stats.acked_seq);
                            if s.unacked.is_empty() {
                                s.unacked_torn = false;
                            }
                            if stats.final_report {
                                s.fin_reported = true;
                            }
                        }
                        _ => {}
                    }
                }
                drop(s);
                for f in &relayed {
                    if conn.write(f).is_err() {
                        return ProxyExit::Lost;
                    }
                }
            }
            Incoming::Frame(Frame::EventsAck { seq }) => {
                s.events_acked_c = s.events_acked_c.max(seq);
                let bseq = seq.saturating_sub(s.event_offset);
                let retired = s.retired();
                if bseq > 0 {
                    let forward = with_backend_retry(shared, &mut s, bconn, |b, _| {
                        Ok(b.write(&Frame::EventsAck { seq: bseq })?)
                    });
                    if forward.is_err() && !retired {
                        drop(s);
                        return ProxyExit::Lost;
                    }
                }
                if retired {
                    return ProxyExit::Retired;
                }
            }
            _ => {
                drop(s);
                conn.bail(ErrorCode::Protocol, "unexpected frame in session");
                return ProxyExit::Lost;
            }
        }
    }
}

impl net::Service for RouterShared {
    const NAME: &'static str = "emprof-router";

    fn stop(&self) -> &Stop {
        &self.stop
    }

    fn serve(self: Arc<Self>, stream: TcpStream) {
        handle_connection(stream, &self);
    }

    /// The obs snapshot, per-backend health rows, and the fleet
    /// aggregates.
    fn scrape_body(&self) -> String {
        use emprof_obs::prom;
        let mut out = prom::encode_snapshot(&obs::snapshot());
        let nodes = self.cluster_state();
        let labels: Vec<String> = nodes
            .iter()
            .map(|node| {
                format!(
                    "{{backend=\"{}\",addr=\"{}\"}}",
                    prom::escape_label_value(&node.name),
                    prom::escape_label_value(&node.addr)
                )
            })
            .collect();
        let mut family = |name: &str, kind: &str, value: fn(&NodeHealthWire) -> u64| {
            let samples = labels.iter().zip(&nodes).map(|(l, n)| (l, value(n)));
            prom::write_family(&mut out, name, kind, samples);
        };
        family("emprof_router_backend_up", "gauge", |n| u64::from(n.up));
        family("emprof_router_backend_draining", "gauge", |n| {
            u64::from(n.draining)
        });
        family("emprof_router_backend_sessions", "gauge", |n| {
            n.sessions_active
        });
        family("emprof_router_backend_consecutive_failures", "gauge", |n| {
            n.consecutive_failures
        });
        family("emprof_router_backend_migrations_in", "counter", |n| {
            n.migrations_in
        });
        family("emprof_router_backend_migrations_out", "counter", |n| {
            n.migrations_out
        });
        let stats = self.stats();
        let healthy = u64::from(self.health().healthy);
        for (name, kind, value) in [
            (
                "emprof_router_sessions_active",
                "gauge",
                stats.sessions_active,
            ),
            ("emprof_router_migrations", "counter", stats.migrations),
            (
                "emprof_router_migrations_lossy",
                "counter",
                stats.migrations_lossy,
            ),
            (
                "emprof_router_probe_failures",
                "counter",
                stats.probe_failures,
            ),
            ("emprof_router_backends_up", "gauge", stats.backends_up),
            ("emprof_router_healthy", "gauge", healthy),
        ] {
            prom::write_family(&mut out, name, kind, [("", value)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = RouterConfig::default();
        assert!(c.replicas > 0);
        assert!(c.down_after > 0);
        assert!(c.probe_interval > Duration::ZERO);
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
