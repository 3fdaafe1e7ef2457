//! Blocking client library: [`ProfileClient`] streams a capture to an
//! `emprof-serve` instance and collects the events it detects;
//! [`WatchClient`] tails the server-wide event stream; [`MetricsClient`]
//! polls telemetry, health, flight dumps and journal queries. Used by
//! the `emprof push` / `emprof watch` / `emprof top` CLI commands, the
//! examples, and the equivalence tests.
//!
//! ## One client edge
//!
//! The three clients hold their connection the same way: a [`Conn`]
//! from [`crate::net`], the resolved addresses, the knobs, the backoff
//! jitter state and the reconnect count. One retry loop serves all
//! three. A transport failure is cured by redialing with backoff and
//! running the client's re-attach step on the fresh connection before
//! the failed operation is retried: a profile client resumes its
//! session and replays, a watch client repeats its watch HELLO, a
//! metrics client needs nothing. Every reply is read by
//! [`Conn::read_reply`], which absorbs heartbeats and turns ERROR frames
//! into [`ClientError::Server`].
//!
//! ## Resilience
//!
//! All three clients survive transport loss. A [`ProfileClient`] keeps
//! every SAMPLES frame the server has not yet acknowledged; when the
//! connection dies it reconnects with exponential backoff (plus
//! deterministic jitter), presents the session's resume token, and
//! replays exactly the frames past the server's acked sequence — the
//! server drops replayed duplicates by sequence number, so the detector
//! ingests each sample once no matter how many times the link flaps.
//! The resulting event stream is bit-for-bit the uninterrupted one
//! (enforced by `tests/serve_resilience.rs`).
//!
//! Event delivery is **exactly-once**: every EVENTS frame carries the
//! sequence number of its first event, the client keeps an
//! `events_seen` watermark and drops redelivered prefixes, and it
//! acknowledges consumption with an EVENTS_ACK frame. The server only
//! advances its delivery cursor on that ack, so a reply lost in flight
//! (or a server restart with a `--journal`) re-offers the unacked
//! suffix and the client deduplicates it — no event is ever lost *or*
//! duplicated.
//!
//! A [`WatchClient`] reconnects with the same cursor, so a tail
//! survives flaps of the link without losing its place; if a restarted
//! server answers with an older cursor the client adopts it and counts
//! a [`WatchClient::tail_resets`] instead of silently rewinding to
//! zero. Server HEARTBEAT frames are absorbed (and their acked
//! sequence recorded) wherever a reply is awaited, so an
//! idle-but-alive connection never trips the read timeout. All knobs
//! live in [`ClientConfig`].

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use emprof_core::{EmprofConfig, StallEvent};
use emprof_obs as obs;

use crate::net::{Ack, Conn, ReplayBuffer, NO_STOP};
use crate::proto::{
    self, ClusterAction, ErrorCode, FlightDumpWire, Frame, HealthWire, Hello, MetricsReply,
    NodeHealthWire, ProtoError, QueryResultWire, QuerySpecWire, SessionStatsWire, Tail,
};
use crate::session::splitmix64;

/// Transport-resilience knobs for [`ProfileClient`], [`WatchClient`]
/// and [`MetricsClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long each reply frame is awaited before the connection is
    /// declared dead; also the connect timeout. A heartbeat restarts the
    /// wait, so with server heartbeats enabled this can be a little over
    /// the heartbeat interval.
    pub read_timeout: Duration,
    /// Backoff delay before the second reconnect attempt (the first
    /// redials at once); doubles per further attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Reconnect attempts per failed operation before giving up.
    /// `0` disables resilience entirely: the first transport error is
    /// returned to the caller (the pre-resume behavior).
    pub max_reconnects: u32,
    /// Unacknowledged SAMPLES frames retained for replay before the
    /// client forces a FLUSH to advance the server's ack watermark.
    /// This bounds client memory; the events such an implicit flush
    /// returns are stashed and prepended to the next explicit
    /// [`ProfileClient::flush`] / [`ProfileClient::finish`] result.
    pub max_unacked_frames: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            max_reconnects: 5,
            max_unacked_frames: 64,
        }
    }
}

/// What can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent something unreadable.
    Proto(ProtoError),
    /// The server answered with an ERROR frame.
    Server {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server sent a well-formed frame that makes no sense here.
    Unexpected(&'static str),
    /// The reconnect budget was spent without restoring the session.
    /// Carries the number of attempts and the *last* underlying failure
    /// (seeded with the error that triggered reconnection, so a budget
    /// of zero attempts still reports a precise cause).
    ReconnectFailed {
        /// Reconnect attempts made before giving up.
        attempts: u32,
        /// The most recent failure.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server reply: {what}"),
            ClientError::ReconnectFailed { attempts, last } => {
                write!(
                    f,
                    "reconnect failed after {attempts} attempts; last error: {last}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

impl ClientError {
    /// Whether reconnecting could plausibly cure this failure. Server
    /// rejections (bad config, session limit, no such session) are
    /// deliberate answers, not transport trouble.
    fn is_transport(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Proto(_))
    }
}

/// The capped, jittered reconnect delay for 0-based `attempt`: the
/// exponential [`ClientConfig`] schedule (`backoff_base` doubling up to
/// `backoff_max`) with deterministic xorshift64 jitter in `[0.5, 1.0)`
/// of the capped delay, which spreads reconnect storms without `rand`.
/// `rng` is the caller's jitter state, advanced on every call. Public so
/// other tiers — the router's health prober — run the exact schedule
/// the clients do.
pub fn backoff_with_jitter(cfg: &ClientConfig, attempt: u32, rng: &mut u64) -> Duration {
    let capped = (cfg.backoff_base.as_secs_f64() * 2f64.powi(attempt.min(20) as i32))
        .min(cfg.backoff_max.as_secs_f64());
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let unit = (*rng >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64(capped * (0.5 + 0.5 * unit))
}

/// What a client restores on a freshly dialed connection before the
/// operation that lost the old one is retried.
trait Reattach {
    /// Re-attaches over `conn`, awaiting each reply for `timeout`.
    fn reattach(&mut self, conn: &mut Conn, timeout: Duration) -> Result<(), ClientError>;
}

/// A metrics client restores nothing: polls need no HELLO.
impl Reattach for () {
    fn reattach(&mut self, _: &mut Conn, _: Duration) -> Result<(), ClientError> {
        Ok(())
    }
}

/// A watch client repeats its watch HELLO.
struct WatchHello;

impl WatchHello {
    fn hello() -> Hello {
        Hello {
            sample_rate_hz: 1.0,
            clock_hz: 1.0,
            config: EmprofConfig::for_rates(1.0, 1.0),
            device: "watch".into(),
            watch: true,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        }
    }
}

impl Reattach for WatchHello {
    fn reattach(&mut self, conn: &mut Conn, timeout: Duration) -> Result<(), ClientError> {
        conn.handshake(Self::hello(), &NO_STOP, timeout).map(drop)
    }
}

/// The connection a client holds and what redialing it takes: the live
/// [`Conn`], the resolved addresses, the knobs, the backoff jitter state
/// and the reconnect count.
#[derive(Debug)]
struct Link {
    conn: Conn,
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
    /// Backoff jitter state, seeded from the first connection's local
    /// port so clients sharing a server redial on different schedules.
    rng: u64,
    reconnects: u64,
}

impl Link {
    fn dial(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Link, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let conn = Conn::dial(&addrs[..], cfg.read_timeout)?;
        let port = conn.local_addr().map_or(0, |a| a.port());
        Ok(Link {
            rng: splitmix64(u64::from(port)) | 1,
            conn,
            addrs,
            cfg,
            reconnects: 0,
        })
    }

    /// Runs `op` on the live connection. A transport failure is cured by
    /// [`Link::reconnect`] and `op` retried, up to `max_reconnects`
    /// times; with a budget of 0 the first failure is returned as is.
    fn run<S: Reattach, T>(
        &mut self,
        state: &mut S,
        mut op: impl FnMut(&mut Conn, &mut S) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut retries = 0u32;
        loop {
            match op(&mut self.conn, state) {
                Err(e) if e.is_transport() && retries < self.cfg.max_reconnects => {
                    retries += 1;
                    self.reconnect(state, e)?;
                }
                done => return done,
            }
        }
    }

    /// Redials (at once, then with backoff before each further attempt)
    /// and re-attaches `state` on each fresh connection before it
    /// replaces the lost one. Fatal server
    /// rejections (e.g. `NO_SESSION` after the reaper finalized the
    /// session) propagate at once; spending the whole budget yields
    /// [`ClientError::ReconnectFailed`] with the last underlying cause,
    /// seeded with `cause`, so even a zero-attempt budget reports
    /// something precise.
    fn reconnect<S: Reattach>(
        &mut self,
        state: &mut S,
        cause: ClientError,
    ) -> Result<(), ClientError> {
        let mut last = cause;
        for attempt in 0..self.cfg.max_reconnects {
            // A loss to a live server resumes without a wait; only a
            // failed redial backs off.
            if attempt > 0 {
                std::thread::sleep(backoff_with_jitter(&self.cfg, attempt - 1, &mut self.rng));
            }
            let timeout = self.cfg.read_timeout;
            let fresh = Conn::dial(&self.addrs[..], timeout)
                .map_err(ClientError::from)
                .and_then(|mut conn| state.reattach(&mut conn, timeout).map(|()| conn));
            match fresh {
                Ok(conn) => {
                    self.conn = conn;
                    self.reconnects += 1;
                    obs::counter_add!("client.reconnects", 1);
                    return Ok(());
                }
                Err(e) if e.is_transport() => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::ReconnectFailed {
            attempts: self.cfg.max_reconnects,
            last: Box::new(last),
        })
    }
}

/// A profile client's session: what the server assigned, and what it
/// has not yet acknowledged or delivered.
#[derive(Debug)]
struct Upload {
    hello: Hello,
    session_id: u64,
    resume_token: u64,
    trace_id: u64,
    /// The bound the server announced; [`Conn::handshake`] refuses one
    /// a frame's payload cannot hold.
    max_samples_per_frame: usize,
    /// Sequence for the next SAMPLES frame (sequences start at 1).
    next_seq: u64,
    /// Frames past the highest sequence the server has acknowledged,
    /// retained for replay after a resume: the bytes encoded and sealed
    /// once by [`ProfileClient::send`], written again as they are.
    unacked: ReplayBuffer,
    /// Highest event sequence number consumed (events are numbered from
    /// 1 by the server). Replies re-offer the server's unacked suffix;
    /// everything at or below this watermark is a duplicate and is
    /// dropped, which is the client half of exactly-once delivery.
    events_seen: u64,
    /// Fresh events consumed but not yet handed to the caller (from
    /// implicit watermark-advancing flushes, or from a reply whose
    /// follow-up acknowledgement write failed mid-exchange). Delivered
    /// with the next explicit flush/finish.
    pending_events: Vec<StallEvent>,
}

impl Upload {
    /// Takes on what a HELLO_ACK assigned.
    fn adopt(&mut self, ack: Ack) {
        self.session_id = ack.session_id;
        self.resume_token = ack.resume_token;
        self.trace_id = ack.trace_id;
        self.max_samples_per_frame = ack.max_samples_per_frame as usize;
        self.unacked.prune_through(ack.acked_seq);
    }

    /// Reads an `EVENTS* STATS` reply, deduplicating against the
    /// `events_seen` watermark: an event whose sequence number is not
    /// past it was already delivered and is dropped. The fresh events
    /// are stashed and the watermark moved only once the whole reply
    /// has arrived. Returns the stats and the highest event sequence
    /// the reply offered (what to acknowledge).
    fn read_reply(
        &mut self,
        conn: &mut Conn,
        timeout: Duration,
    ) -> Result<(SessionStatsWire, u64), ClientError> {
        let (mut fresh, mut offered, mut hb_acked) = (Vec::new(), self.events_seen, 0u64);
        let reply = conn.read_events_and_stats(
            &NO_STOP,
            timeout,
            |a| hb_acked = hb_acked.max(a),
            |first_seq, events| {
                for (i, event) in events.into_iter().enumerate() {
                    let seq = first_seq + i as u64;
                    if seq > offered {
                        fresh.push(event);
                        offered = seq;
                    }
                }
            },
        );
        self.unacked.prune_through(hb_acked);
        let stats = reply?;
        self.pending_events.extend(fresh);
        self.events_seen = self.events_seen.max(offered);
        Ok((stats, offered))
    }
}

/// A profile client resumes its session and replays every unacked
/// frame, in order and with its original sequence number; the server
/// drops any frame it already ingested.
impl Reattach for Upload {
    fn reattach(&mut self, conn: &mut Conn, timeout: Duration) -> Result<(), ClientError> {
        let hello = Hello {
            resume_session_id: self.session_id,
            resume_token: self.resume_token,
            ..self.hello.clone()
        };
        self.adopt(conn.handshake(hello, &NO_STOP, timeout)?);
        for (_, frame) in self.unacked.after(0) {
            conn.write_encoded(frame)?;
        }
        Ok(())
    }
}

/// A blocking profiling session against an `emprof-serve` instance.
///
/// # Example
///
/// ```no_run
/// use emprof_core::EmprofConfig;
/// use emprof_serve::ProfileClient;
///
/// let mut client = ProfileClient::connect(
///     "127.0.0.1:7700",
///     "olimex",
///     EmprofConfig::for_rates(40e6, 1.0e9),
///     40e6,
///     1.0e9,
/// ).unwrap();
/// client.send(&[5.0; 30_000]).unwrap();
/// let (events, stats) = client.finish().unwrap();
/// assert!(stats.final_report);
/// assert!(events.is_empty());
/// ```
#[derive(Debug)]
pub struct ProfileClient {
    link: Link,
    upload: Upload,
}

impl ProfileClient {
    /// Connects and opens a session with default resilience knobs.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, protocol violations, or a server-side
    /// rejection (bad config, session limit, shutdown).
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        device: &str,
        config: EmprofConfig,
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Result<ProfileClient, ClientError> {
        Self::connect_with(
            addr,
            device,
            config,
            sample_rate_hz,
            clock_hz,
            ClientConfig::default(),
        )
    }

    /// [`ProfileClient::connect`] with explicit [`ClientConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As [`ProfileClient::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        device: &str,
        config: EmprofConfig,
        sample_rate_hz: f64,
        clock_hz: f64,
        cfg: ClientConfig,
    ) -> Result<ProfileClient, ClientError> {
        let mut link = Link::dial(addr, cfg)?;
        let hello = Hello {
            sample_rate_hz,
            clock_hz,
            config,
            device: device.into(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        };
        // With no session to resume and nothing unacked, re-attaching is
        // the opening handshake.
        let mut upload = Upload {
            hello,
            session_id: 0,
            resume_token: 0,
            trace_id: 0,
            max_samples_per_frame: 1,
            next_seq: 1,
            unacked: ReplayBuffer::default(),
            events_seen: 0,
            pending_events: Vec::new(),
        };
        upload.reattach(&mut link.conn, link.cfg.read_timeout)?;
        Ok(ProfileClient { link, upload })
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.upload.session_id
    }

    /// The server-assigned trace id: stamps this session's flight dumps
    /// and METRICS rows, and is stable across resumes and server
    /// restarts (it is derived from the resume token).
    pub fn trace_id(&self) -> u64 {
        self.upload.trace_id
    }

    /// How many times this client has successfully resumed its session
    /// after a transport loss.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects
    }

    /// Severs the TCP connection without telling the server — a test
    /// hook simulating a transport loss. The next operation reconnects
    /// and resumes (when [`ClientConfig::max_reconnects`] permits).
    pub fn drop_connection(&mut self) {
        self.link.conn.sever();
    }

    /// Streams magnitude samples, splitting into frames the server
    /// accepts. Returns once the batch is written (the server may still
    /// be processing it; backpressure shows up as this call blocking).
    /// On transport loss the client reconnects, resumes, and replays
    /// unacknowledged frames transparently.
    ///
    /// # Errors
    ///
    /// Propagates transport failures once the reconnect budget is spent.
    pub fn send(&mut self, samples: &[f64]) -> Result<(), ClientError> {
        for chunk in samples.chunks(self.upload.max_samples_per_frame) {
            let seq = self.upload.next_seq;
            self.upload.next_seq += 1;
            let mut frame = self.upload.unacked.spare();
            proto::encode_samples_into(&mut frame, seq, chunk);
            self.upload.unacked.push(seq, frame);
            // On transport loss, the resume replays the whole unacked
            // queue (which includes this frame); the retried write is
            // then a duplicate the server drops by sequence number. A
            // resume that reports the frame ingested has dropped it
            // from the queue, and nothing is left to write.
            self.link.run(&mut self.upload, |conn, upload| {
                for (_, frame) in upload.unacked.after(seq - 1) {
                    conn.write_encoded(frame)?;
                }
                Ok(())
            })?;
            if self.upload.unacked.len() > self.link.cfg.max_unacked_frames {
                // The implicit flush stashes its fresh events in
                // `pending_events` for the next explicit flush/finish.
                self.exchange_control(false)?;
            }
        }
        Ok(())
    }

    /// Asks for every event finalized since the last delivery, plus a
    /// stats snapshot. Blocks until the server has ingested everything
    /// sent before this call. Events gathered by implicit
    /// watermark-advancing flushes are prepended.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn flush(&mut self) -> Result<(Vec<StallEvent>, SessionStatsWire), ClientError> {
        let stats = self.exchange_control(false)?;
        Ok((std::mem::take(&mut self.upload.pending_events), stats))
    }

    /// Ends the capture: the server finalizes the detector and returns
    /// every not-yet-delivered event and the final stats. Events
    /// gathered by implicit flushes are prepended.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn finish(mut self) -> Result<(Vec<StallEvent>, SessionStatsWire), ClientError> {
        let stats = self.exchange_control(true)?;
        Ok((std::mem::take(&mut self.upload.pending_events), stats))
    }

    /// One FLUSH or FIN round trip with resilience. Fresh events land in
    /// `pending_events`; only the stats are returned.
    ///
    /// Exactly-once mechanics: the reply's events are deduplicated
    /// against `events_seen` and stashed *before* the acknowledgement is
    /// written, so a transport loss anywhere in the exchange is safe —
    /// the retry re-offers the unacked suffix, the watermark drops what
    /// was already stashed, and the stash survives the retry.
    fn exchange_control(&mut self, fin: bool) -> Result<SessionStatsWire, ClientError> {
        let control = if fin { Frame::Fin } else { Frame::Flush };
        let timeout = self.link.cfg.read_timeout;
        let stats = self.link.run(&mut self.upload, |conn, upload| {
            conn.write(&control)?;
            let (stats, offered) = upload.read_reply(conn, timeout)?;
            // Tell the server delivery landed so it can advance its
            // cursor (and, when journaled, compact). If this write is
            // lost the server merely re-offers on the next exchange.
            conn.write(&Frame::EventsAck { seq: offered })?;
            Ok(stats)
        })?;
        self.upload.unacked.prune_through(stats.acked_seq);
        Ok(stats)
    }

    /// Performs a FLUSH whose reply is **lost**: the server runs the
    /// flush and writes the full reply, but this client discards it
    /// without consuming events or acknowledging, then severs the
    /// connection — a test hook landing the failure in the exact window
    /// between server-side delivery and client-side receipt. The next
    /// operation resumes and the unacked events are redelivered.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the doomed exchange itself
    /// (no resilience: this *is* the fault injector).
    pub fn flush_lost_reply(&mut self) -> Result<(), ClientError> {
        let timeout = self.link.cfg.read_timeout;
        self.link.conn.write(&Frame::Flush)?;
        // Read the whole reply so the server has demonstrably completed
        // the delivery attempt, then throw it away un-acked.
        let mut hb_acked = 0u64;
        self.link.conn.read_events_and_stats(
            &NO_STOP,
            timeout,
            |a| hb_acked = hb_acked.max(a),
            |_, _| {},
        )?;
        self.upload.unacked.prune_through(hb_acked);
        self.drop_connection();
        Ok(())
    }

    /// Re-points the client at a (possibly restarted) server address and
    /// severs the current connection; the next operation reconnects
    /// there and resumes the session. Used when a `--journal` server is
    /// restarted on a fresh port.
    ///
    /// # Errors
    ///
    /// Fails only on address resolution.
    pub fn redirect<A: ToSocketAddrs>(&mut self, addr: A) -> Result<(), ClientError> {
        self.link.addrs = addr.to_socket_addrs()?.collect();
        self.drop_connection();
        Ok(())
    }
}

/// A blocking watch subscription: polls the server's finalized-event
/// tail and aggregate stats.
#[derive(Debug)]
pub struct WatchClient {
    link: Link,
    cursor: u64,
    tail_resets: u64,
}

impl WatchClient {
    /// Connects in watch mode (no session, no detector) with default
    /// resilience knobs.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or protocol violations.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<WatchClient, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`WatchClient::connect`] with explicit [`ClientConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As [`WatchClient::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<WatchClient, ClientError> {
        let mut link = Link::dial(addr, cfg)?;
        WatchHello.reattach(&mut link.conn, link.cfg.read_timeout)?;
        Ok(WatchClient {
            link,
            cursor: 0,
            tail_resets: 0,
        })
    }

    /// How many times this watch reconnected after a transport loss.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects
    }

    /// How many times the server answered with a cursor *behind* this
    /// client's — the signature of a restarted server whose tail buffer
    /// started over. The client adopts the server's cursor (it has no
    /// other choice) but counts the regression here instead of silently
    /// rewinding, so a tailer can tell "quiet stream" from "history
    /// lost".
    pub fn tail_resets(&self) -> u64 {
        self.tail_resets
    }

    /// Severs the TCP connection without telling the server — a test
    /// hook simulating a transport loss. The next poll reconnects with
    /// the same cursor.
    pub fn drop_connection(&mut self) {
        self.link.conn.sever();
    }

    /// One poll: events finalized since the last poll plus server-wide
    /// stats. The cursor advances automatically; a transport loss is
    /// cured by reconnecting and re-polling from the same cursor, so no
    /// tail position is lost.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn poll(&mut self) -> Result<Tail, ClientError> {
        let (cursor, timeout) = (self.cursor, self.link.cfg.read_timeout);
        let tail = self.link.run(&mut WatchHello, |conn, _| {
            match conn.ask(&Frame::Watch { cursor }, &NO_STOP, timeout)? {
                Frame::Tail(tail) => Ok(tail),
                _ => Err(ClientError::Unexpected("wanted TAIL")),
            }
        })?;
        if tail.cursor < self.cursor {
            // A restarted server's tail starts over; adopt its cursor
            // but never *silently* — the caller can see the
            // discontinuity via tail_resets().
            self.tail_resets += 1;
            obs::counter_add!("client.tail_resets", 1);
        }
        self.cursor = tail.cursor;
        Ok(tail)
    }
}

/// A blocking observability poller: fetches METRICS, HEALTH, and
/// FLIGHT snapshots from an `emprof-serve` instance. Backs `emprof
/// top` and `emprof dump-flight`.
///
/// Metrics connections skip the HELLO handshake — the first request
/// frame identifies the connection as a poller — and the server
/// records no telemetry while serving them, so polling never perturbs
/// the numbers it reports.
#[derive(Debug)]
pub struct MetricsClient {
    link: Link,
}

impl MetricsClient {
    /// Connects with default resilience knobs. The TCP connection is
    /// established eagerly (so bad addresses fail here), but nothing is
    /// sent until the first fetch.
    ///
    /// # Errors
    ///
    /// Fails on address resolution or connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<MetricsClient, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`MetricsClient::connect`] with explicit [`ClientConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<MetricsClient, ClientError> {
        Ok(MetricsClient {
            link: Link::dial(addr, cfg)?,
        })
    }

    /// How many times this poller reconnected after a transport loss.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects
    }

    /// Severs the TCP connection without telling the server — a test
    /// hook simulating a transport loss. The next fetch reconnects.
    pub fn drop_connection(&mut self) {
        self.link.conn.sever();
    }
    /// One METRICS poll: the server's full telemetry snapshot, its
    /// wire-stats, and one row per registered session.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn fetch_metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.request(&Frame::MetricsRequest)? {
            Frame::Metrics(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected("wanted METRICS")),
        }
    }

    /// One HEALTH poll.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_health(&mut self) -> Result<HealthWire, ClientError> {
        match self.request(&Frame::HealthRequest)? {
            Frame::Health(health) => Ok(health),
            _ => Err(ClientError::Unexpected("wanted HEALTH")),
        }
    }

    /// Fetches flight-recorder dumps: `session_id` 0 means every
    /// registered session, anything else just that one (an unknown id
    /// yields an empty list, not an error).
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_flight(&mut self, session_id: u64) -> Result<Vec<FlightDumpWire>, ClientError> {
        match self.request(&Frame::FlightRequest { session_id })? {
            Frame::FlightReply { dumps } => Ok(dumps),
            _ => Err(ClientError::Unexpected("wanted FLIGHT_REPLY")),
        }
    }

    /// One NODE_HEALTH poll: the node's own cluster health row. The
    /// probe frame behind the router's mark-down/mark-up machinery.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_node_health(&mut self) -> Result<NodeHealthWire, ClientError> {
        match self.request(&Frame::NodeHealthRequest)? {
            Frame::NodeHealthReply(node) => Ok(node),
            _ => Err(ClientError::Unexpected("wanted NODE_HEALTH reply")),
        }
    }

    /// One CLUSTER_STATE poll: the full membership/health table as the
    /// polled node (typically a router) knows it.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_cluster_state(&mut self) -> Result<Vec<NodeHealthWire>, ClientError> {
        match self.request(&Frame::ClusterStateRequest)? {
            Frame::ClusterStateReply { nodes } => Ok(nodes),
            _ => Err(ClientError::Unexpected("wanted CLUSTER_STATE reply")),
        }
    }

    /// Sends a CLUSTER_JOIN (join/leave/drain) and returns the node's
    /// health row after the change was applied.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`]; a node that refuses the
    /// change answers with an ERROR frame, surfaced as
    /// [`ClientError::Server`].
    pub fn cluster_join(
        &mut self,
        name: &str,
        addr: &str,
        action: ClusterAction,
    ) -> Result<NodeHealthWire, ClientError> {
        let req = Frame::ClusterJoin {
            name: name.into(),
            addr: addr.into(),
            action,
        };
        match self.request(&req)? {
            Frame::NodeHealthReply(node) => Ok(node),
            _ => Err(ClientError::Unexpected("wanted NODE_HEALTH reply")),
        }
    }

    /// One journal range query against the polled node (or, through a
    /// router, the whole fleet — the router merges per-backend results
    /// and `nodes` reports how many contributed).
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`]; a node that keeps no
    /// journal answers with an ERROR frame, surfaced as
    /// [`ClientError::Server`].
    pub fn query(&mut self, spec: &QuerySpecWire) -> Result<QueryResultWire, ClientError> {
        match self.request(&Frame::Query(spec.clone()))? {
            Frame::QueryResult(result) => Ok(result),
            _ => Err(ClientError::Unexpected("wanted QUERY_RESULT")),
        }
    }

    /// One request/reply round trip, curing transport failures by
    /// reconnecting (polling is stateless, so a retry is always safe).
    fn request(&mut self, req: &Frame) -> Result<Frame, ClientError> {
        let timeout = self.link.cfg.read_timeout;
        self.link
            .run(&mut (), |conn, ()| conn.ask(req, &NO_STOP, timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, Server};

    #[test]
    fn clients_of_one_kind_hold_different_jitter_states() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let config = EmprofConfig::for_rates(40e6, 1.0e9);
        let profile = || ProfileClient::connect(addr, "t", config, 40e6, 1.0e9).unwrap();
        let (p1, p2) = (profile(), profile());
        assert_ne!(p1.link.rng, p2.link.rng);
        let watch = || WatchClient::connect(addr).unwrap();
        let (w1, w2) = (watch(), watch());
        assert_ne!(w1.link.rng, w2.link.rng);
        let metrics = || MetricsClient::connect(addr).unwrap();
        let (m1, m2) = (metrics(), metrics());
        assert_ne!(m1.link.rng, m2.link.rng);
        drop((p1, p2, w1, w2, m1, m2));
        server.shutdown();
    }

    /// The first redial after a transport loss goes out at once: with a
    /// 2 s backoff base, resuming against a live server still takes
    /// well under a second.
    #[test]
    fn first_reconnect_redials_at_once() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let config = EmprofConfig::for_rates(40e6, 1.0e9);
        let cfg = ClientConfig {
            backoff_base: Duration::from_secs(2),
            ..ClientConfig::default()
        };
        let mut client =
            ProfileClient::connect_with(server.local_addr(), "t", config, 40e6, 1.0e9, cfg)
                .unwrap();
        client.send(&[1.0; 64]).unwrap();
        client.drop_connection();
        let started = std::time::Instant::now();
        client.flush().unwrap();
        let took = started.elapsed();
        assert_eq!(client.reconnects(), 1);
        assert!(
            took < Duration::from_millis(500),
            "resume against a live server took {took:?}"
        );
        drop(client);
        server.shutdown();
    }
}
