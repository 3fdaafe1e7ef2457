//! The network edge shared by the ingest server, the router and the
//! clients: the framed [`Conn`], the accept loop, the bind/stop
//! lifecycle of the frame and `/metrics` listeners, the minimal
//! `GET /metrics` HTTP responder, and the observability poll loop.
//!
//! A process mounts itself by implementing [`Service`]. [`Edge::bind`]
//! binds its listeners and starts their threads; [`Edge::shutdown`]
//! wakes and joins them once the process has raised its [`Stop`]. One
//! [`Stop`] per process means "finish what the peer already sent, then
//! stop" and "stop at once, as a crash would" read the same on every
//! socket of either process.
//!
//! The dialing side is [`Conn`] too: [`Conn::dial`] connects,
//! [`Conn::handshake`] opens a session, and [`Conn::read_reply`] reads
//! a reply, absorbing HEARTBEATs and turning ERROR frames into
//! [`ClientError::Server`]. The three clients and the router's backend
//! leg read every reply through it, so [`Conn::read_frame_with`] is the
//! one place frames are read off a socket. Both ends of a routed link
//! keep their unacknowledged SAMPLES frames in one [`ReplayBuffer`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emprof_core::StallEvent;
use emprof_obs as obs;

use crate::client::ClientError;
use crate::proto::{
    self, ErrorCode, Frame, FrameView, Hello, ProtoError, SamplesView, SessionStatsWire,
    SAMPLES_FITTING_PAYLOAD, VERSION,
};

/// Read timeout on every framed socket: the latency bound on observing
/// a stop from a blocked read.
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest a graceful stop keeps reading one connection whose peer is
/// still sending; a peer that pauses for a read timeout ends the drain
/// sooner.
const SHUTDOWN_DRAIN_LIMIT: Duration = Duration::from_secs(2);

/// How long a scrape client gets to send its request, and to take the
/// response.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on a scrape request (request line + headers).
const SCRAPE_REQUEST_MAX: usize = 8 * 1024;

/// A process's stop flags, read by every socket loop it runs.
#[derive(Debug, Default)]
pub struct Stop {
    stopping: AtomicBool,
    /// Raised with `stopping` by a stop that must not drain: readers
    /// then return at once instead of first reading what their peers
    /// already sent.
    killed: AtomicBool,
}

/// The stop flags a client passes: never raised, so its reads end only
/// with a reply, a deadline or a transport loss.
pub(crate) static NO_STOP: Stop = Stop {
    stopping: AtomicBool::new(false),
    killed: AtomicBool::new(false),
};

impl Stop {
    /// Raises the stop flag, and with `kill` the kill flag too. Returns
    /// whether the stop flag was already raised.
    pub fn raise(&self, kill: bool) -> bool {
        if kill {
            self.killed.store(true, Ordering::SeqCst);
        }
        self.stopping.swap(true, Ordering::SeqCst)
    }

    /// Whether a stop was requested.
    pub fn is_raised(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }
}

/// What a HELLO_ACK carries.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// The session the server opened or resumed.
    pub session_id: u64,
    /// The most samples the server accepts in one SAMPLES frame.
    pub max_samples_per_frame: u32,
    /// The token a later HELLO presents to resume the session.
    pub resume_token: u64,
    /// The highest SAMPLES sequence the server has ingested.
    pub acked_seq: u64,
    /// The session's trace id.
    pub trace_id: u64,
}

/// A frame read by [`Conn::read_frame_with`]: what its SAMPLES hook
/// made of a SAMPLES frame, or any other frame, decoded owned.
#[derive(Debug)]
pub enum Incoming<S> {
    /// The SAMPLES hook's result.
    Samples(S),
    /// Any frame but SAMPLES.
    Frame(Frame),
}

/// Most frame buffers a [`ReplayBuffer`] keeps for reuse.
const SPARE_FRAMES: usize = 256;

/// Sealed SAMPLES frames sent but not yet acknowledged, by ascending
/// sequence: a client's resume replay, a router's migration replay.
/// When to flush or drop frames is its owner's rule.
///
/// The buffers of frames it drops are kept, emptied, for the owner's
/// next frame ([`ReplayBuffer::spare`]), so a steady stream of frames
/// allocates nothing. At most 256 spares are kept. Since an owner takes
/// a spare before it allocates, held frames and spares together never
/// outnumber the most frames the buffer has held at once: recycling
/// raises no peak.
#[derive(Debug, Default)]
pub struct ReplayBuffer {
    frames: VecDeque<(u64, Vec<u8>)>,
    spares: Vec<Vec<u8>>,
}

impl ReplayBuffer {
    /// An empty buffer for the next frame: the buffer of a dropped frame
    /// when one is kept, else a new one.
    pub fn spare(&mut self) -> Vec<u8> {
        self.spares.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut frame: Vec<u8>) {
        if self.spares.len() < SPARE_FRAMES {
            frame.clear();
            self.spares.push(frame);
        }
    }

    /// Appends `frame`, sealed under sequence `seq`. A replayed `seq`
    /// first drops the held frames from `seq` on, so each is held once.
    pub fn push(&mut self, seq: u64, frame: Vec<u8>) {
        while let Some((_, dropped)) = self.frames.pop_back_if(|(s, _)| *s >= seq) {
            self.recycle(dropped);
        }
        self.frames.push_back((seq, frame));
    }

    /// Drops every frame through sequence `acked`.
    pub fn prune_through(&mut self, acked: u64) {
        while let Some((_, dropped)) = self.frames.pop_front_if(|(s, _)| *s <= acked) {
            self.recycle(dropped);
        }
    }

    /// The oldest buffered sequence.
    pub fn oldest_seq(&self) -> Option<u64> {
        self.frames.front().map(|&(s, _)| s)
    }

    /// Removes the oldest frame.
    pub fn pop_oldest(&mut self) -> Option<(u64, Vec<u8>)> {
        self.frames.pop_front()
    }

    /// The frames past sequence `seq`, oldest first.
    pub fn after(&self, seq: u64) -> impl Iterator<Item = (u64, &[u8])> {
        let start = self.frames.partition_point(|&(s, _)| s <= seq);
        self.frames.range(start..).map(|(s, f)| (*s, f.as_slice()))
    }

    /// Number of frames held.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame is held.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Smallest receive buffer a [`Conn`] reads into, once it first reads.
const RECV_MIN: usize = 64 * 1024;

/// A receive buffer frames are decoded from in place.
///
/// Reads land straight in the buffer, and frames are consumed by moving
/// a cursor: bytes `head..tail` are received and not yet consumed. The
/// unconsumed bytes move to the front only when the frame under way
/// would not fit past `head`, and the buffer grows only when that frame
/// is larger than the whole buffer.
#[derive(Debug, Default)]
struct RecvBuf {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl RecvBuf {
    /// Whether every received byte has been consumed.
    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Decodes the next frame if all of it has arrived, handing a
    /// SAMPLES frame to `on_samples` while its bytes are in the buffer.
    fn next_frame<S>(
        &mut self,
        on_samples: &mut impl FnMut(SamplesView<'_>) -> S,
    ) -> Result<Option<Incoming<S>>, ProtoError> {
        let pending = &self.buf[self.head..self.tail];
        if pending.len() < proto::HEADER_LEN {
            return Ok(None);
        }
        let (view, consumed) = match proto::decode_frame_view(pending) {
            Ok(decoded) => decoded,
            Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        };
        let read = match view {
            FrameView::Samples(v) => Incoming::Samples(on_samples(v)),
            FrameView::Owned(frame) => Incoming::Frame(frame),
        };
        self.head += consumed;
        if self.is_empty() {
            // Nothing left over: the next read starts at the front, with
            // the whole buffer free.
            (self.head, self.tail) = (0, 0);
        }
        Ok(Some(read))
    }

    /// One read from `src` into the buffer; `Ok(0)` is end of stream.
    fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.make_room();
        let n = src.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Makes room past `tail` for the next read: at least one byte, and
    /// the whole of the frame under way (its header when that has not
    /// all arrived) between `head` and the end of the buffer. A frame
    /// the buffer cannot hold from `head` moves to the front first; one
    /// larger than the whole buffer grows it. A read follows only a
    /// [`RecvBuf::next_frame`] that found no whole frame, so a header in
    /// the buffer has passed its checks, which bound its length.
    fn make_room(&mut self) {
        let pending = self.tail - self.head;
        let frame = if pending >= proto::HEADER_LEN {
            proto::announced_frame_len(&self.buf[self.head..self.tail])
        } else {
            proto::HEADER_LEN
        };
        let want = frame.max(pending + 1);
        if self.head + want > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, pending);
            if want > self.buf.len() {
                let grown = want.max(2 * self.buf.len()).max(RECV_MIN);
                self.buf.resize(grown, 0);
            }
        }
    }
}

/// A framed connection with a persistent receive buffer, so short read
/// timeouts (used to observe a stop) never lose frame sync. Frames are
/// decoded in place from the bytes that were read, with no copy in
/// between.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    recv: RecvBuf,
    /// When a graceful stop's drain of this socket gives up, set the
    /// first time a read sees the stop flag.
    drain_deadline: Option<Instant>,
}

impl Conn {
    /// Wraps an accepted or dialed stream.
    ///
    /// # Errors
    ///
    /// Propagates a failure to set the read timeout.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            recv: RecvBuf::default(),
            drain_deadline: None,
        })
    }

    /// Connects to the first address `addr` resolves to that accepts,
    /// trying each in order.
    ///
    /// # Errors
    ///
    /// Propagates a resolution failure, or the last address's connect
    /// failure, including a connect that does not finish within
    /// `timeout`.
    pub fn dial(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Conn> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address");
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => return Conn::new(stream),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The local address of the socket.
    ///
    /// # Errors
    ///
    /// Propagates the socket's failure to report it.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Severs the socket both ways without a frame; the peer sees the
    /// connection close, and later reads and writes here fail.
    pub fn sever(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Reads one frame. `Ok(None)` means the peer closed cleanly between
    /// frames, or a stop ended the read.
    ///
    /// After a stop without kill the socket is drained first: reads go
    /// on until end of stream or until the peer has nothing more queued
    /// (a read times out), and every complete frame is still returned,
    /// so bytes the peer sent before the stop are processed, not
    /// dropped. A peer that never pauses is cut off after two seconds.
    /// After a kill the read ends at once.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed frames; a quiet peer past
    /// `deadline` is an [`io::ErrorKind::TimedOut`] error.
    pub fn read_frame(
        &mut self,
        stop: &Stop,
        deadline: Option<Instant>,
    ) -> Result<Option<Frame>, ProtoError> {
        let to_owned = |v: SamplesView<'_>| Frame::Samples {
            seq: v.seq,
            samples: v.iter().collect(),
        };
        let read =
            self.read_frame_with(stop, deadline, None::<(Duration, fn() -> Frame)>, to_owned);
        Ok(read?.map(|(Incoming::Samples(frame) | Incoming::Frame(frame))| frame))
    }

    /// [`Conn::read_frame`] with an optional heartbeat and a SAMPLES
    /// hook. While the peer is quiet past `interval`, `make` builds a
    /// frame to write (the liveness signal) and the idle clock restarts.
    /// A heartbeat write failure is a transport loss, surfaced as an I/O
    /// error.
    ///
    /// A SAMPLES frame is decoded zero-copy from the receive buffer and
    /// handed to `on_samples` as a [`SamplesView`] before the buffer lets
    /// go of its bytes: the server's session hook admits the frame,
    /// journals its payload bytes as they arrived, and copies the
    /// samples into a pooled buffer, so steady-state ingest is
    /// allocation-free per frame.
    ///
    /// # Errors
    ///
    /// As [`Conn::read_frame`].
    pub fn read_frame_with<S, F: Fn() -> Frame>(
        &mut self,
        stop: &Stop,
        deadline: Option<Instant>,
        heartbeat: Option<(Duration, F)>,
        mut on_samples: impl FnMut(SamplesView<'_>) -> S,
    ) -> Result<Option<Incoming<S>>, ProtoError> {
        let mut last_io = Instant::now();
        loop {
            if let Some(read) = self.recv.next_frame(&mut on_samples)? {
                return Ok(Some(read));
            }
            if stop.is_raised() {
                let limit = *self
                    .drain_deadline
                    .get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN_LIMIT);
                if stop.killed.load(Ordering::SeqCst) || Instant::now() >= limit {
                    return Ok(None);
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ProtoError::Io(io::ErrorKind::TimedOut.into()));
            }
            match self.recv.fill(&mut self.stream) {
                Ok(0) => {
                    return if self.recv.is_empty() {
                        Ok(None)
                    } else {
                        Err(ProtoError::Io(io::ErrorKind::UnexpectedEof.into()))
                    }
                }
                Ok(_) => last_io = Instant::now(),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    // Stopping and a whole read timeout passed with
                    // nothing from the peer: the drain is complete.
                    if e.kind() != io::ErrorKind::Interrupted && stop.is_raised() {
                        return Ok(None);
                    }
                    if let Some((interval, make)) = heartbeat.as_ref() {
                        if last_io.elapsed() >= *interval {
                            self.write(&make())?;
                            obs::counter_add!("serve.heartbeats", 1);
                            last_io = Instant::now();
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Writes one frame.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn write(&mut self, frame: &Frame) -> io::Result<()> {
        self.write_encoded(&proto::encode_frame(frame))
    }

    /// Writes one frame already encoded and sealed, as
    /// [`proto::encode_samples`] returns it.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn write_encoded(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Best-effort error frame; the connection is abandoned after it.
    pub fn bail(&mut self, code: ErrorCode, message: &str) {
        let _ = self.write(&Frame::Error {
            code,
            message: message.into(),
        });
    }

    /// Reads one reply frame. A HEARTBEAT is absorbed: its `acked_seq`
    /// goes to `on_heartbeat`. An ERROR frame is the peer's
    /// [`ClientError::Server`]. Each frame, a heartbeat included, must
    /// arrive within `timeout` of the read starting for it.
    ///
    /// # Errors
    ///
    /// As [`Conn::read_frame`], plus the peer's ERROR frame; a close or
    /// a `stop` is an [`io::ErrorKind::UnexpectedEof`] error.
    pub fn read_reply(
        &mut self,
        stop: &Stop,
        timeout: Duration,
        mut on_heartbeat: impl FnMut(u64),
    ) -> Result<Frame, ClientError> {
        loop {
            match self.read_frame(stop, Some(Instant::now() + timeout))? {
                Some(Frame::Heartbeat { acked_seq }) => on_heartbeat(acked_seq),
                Some(Frame::Error { code, message }) => {
                    return Err(ClientError::Server { code, message })
                }
                Some(frame) => return Ok(frame),
                None => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
            }
        }
    }

    /// Writes `request` and reads its reply with [`Conn::read_reply`],
    /// ignoring heartbeats.
    ///
    /// # Errors
    ///
    /// The write's failure, or as [`Conn::read_reply`].
    pub fn ask(
        &mut self,
        request: &Frame,
        stop: &Stop,
        timeout: Duration,
    ) -> Result<Frame, ClientError> {
        self.write(request)?;
        self.read_reply(stop, timeout, |_| {})
    }

    /// Sends `hello` and reads the HELLO_ACK, which must speak
    /// [`VERSION`] and announce a SAMPLES bound from 1 to
    /// [`SAMPLES_FITTING_PAYLOAD`].
    ///
    /// # Errors
    ///
    /// As [`Conn::ask`]; any other reply, another version, or a bound
    /// outside that range is [`ClientError::Unexpected`].
    pub fn handshake(
        &mut self,
        hello: Hello,
        stop: &Stop,
        timeout: Duration,
    ) -> Result<Ack, ClientError> {
        match self.ask(&Frame::Hello(hello), stop, timeout)? {
            Frame::HelloAck {
                version: VERSION,
                max_samples_per_frame,
                ..
            } if !(1..=SAMPLES_FITTING_PAYLOAD).contains(&max_samples_per_frame) => {
                Err(ClientError::Unexpected(
                    "server announced a SAMPLES bound outside 1..=SAMPLES_FITTING_PAYLOAD",
                ))
            }
            Frame::HelloAck {
                version: VERSION,
                session_id,
                max_samples_per_frame,
                resume_token,
                acked_seq,
                trace_id,
            } => Ok(Ack {
                session_id,
                max_samples_per_frame,
                resume_token,
                acked_seq,
                trace_id,
            }),
            Frame::HelloAck { .. } => {
                Err(ClientError::Unexpected("server negotiated unknown version"))
            }
            _ => Err(ClientError::Unexpected("wanted HELLO_ACK")),
        }
    }

    /// Reads a FLUSH or FIN reply: EVENTS frames, each handed to
    /// `on_events` with the sequence number of its first event, then
    /// the STATS frame that ends it. Heartbeats go to `on_heartbeat`.
    ///
    /// # Errors
    ///
    /// As [`Conn::read_reply`]; any other frame is
    /// [`ClientError::Unexpected`].
    pub fn read_events_and_stats(
        &mut self,
        stop: &Stop,
        timeout: Duration,
        mut on_heartbeat: impl FnMut(u64),
        mut on_events: impl FnMut(u64, Vec<StallEvent>),
    ) -> Result<SessionStatsWire, ClientError> {
        loop {
            match self.read_reply(stop, timeout, &mut on_heartbeat)? {
                Frame::Events { first_seq, events } => on_events(first_seq, events),
                Frame::Stats(stats) => return Ok(stats),
                _ => return Err(ClientError::Unexpected("wanted EVENTS or STATS")),
            }
        }
    }
}

/// What a process mounts on its [`Edge`].
pub trait Service: Send + Sync + 'static {
    /// Prefix of the edge's thread names: `<NAME>-accept`,
    /// `<NAME>-metrics` and `<NAME>-conn`.
    const NAME: &'static str;

    /// The process's stop flags.
    fn stop(&self) -> &Stop;

    /// Serves one accepted frame connection, on its own reader thread.
    fn serve(self: Arc<Self>, stream: TcpStream);

    /// The `/metrics` exposition body. It must record no telemetry: a
    /// scrape reports the process as it was, not as the scrape made it.
    fn scrape_body(&self) -> String;
}

/// A process's bound listeners and the threads serving them.
pub struct Edge {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    /// The accept thread, then the scrape thread when one was bound.
    acceptors: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Edge {
    /// Binds the frame listener at `addr` and, when given, the
    /// `/metrics` listener at `metrics_addr`; builds the service with
    /// `make`, which gets the bound frame address; then starts the
    /// accept thread (one reader thread per connection) and the scrape
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates bind, `make` and thread-spawn failures.
    pub fn bind<S: Service>(
        addr: impl ToSocketAddrs,
        metrics_addr: Option<&str>,
        make: impl FnOnce(SocketAddr) -> io::Result<S>,
    ) -> io::Result<(Edge, Arc<S>)> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = metrics_addr.map(TcpListener::bind).transpose()?;
        let metrics_addr = metrics.as_ref().map(TcpListener::local_addr).transpose()?;
        let service = Arc::new(make(local_addr)?);
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();

        let (accept_service, accept_readers) = (Arc::clone(&service), Arc::clone(&readers));
        let mut acceptors = vec![std::thread::Builder::new()
            .name(format!("{}-accept", S::NAME))
            .spawn(move || {
                accept_until_stopped(&listener, accept_service.stop(), |stream| {
                    let conn_service = Arc::clone(&accept_service);
                    let spawned = std::thread::Builder::new()
                        .name(format!("{}-conn", S::NAME))
                        .spawn(move || conn_service.serve(stream));
                    if let Ok(handle) = spawned {
                        let mut readers = accept_readers.lock().unwrap_or_else(|e| e.into_inner());
                        // An exited thread keeps its stack until its
                        // handle is joined or dropped: let go of the
                        // readers whose connection has ended, so memory
                        // does not grow with every connection served.
                        readers.retain(|h| !h.is_finished());
                        readers.push(handle);
                    }
                });
            })?];
        if let Some(listener) = metrics {
            let scrape_service = Arc::clone(&service);
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("{}-metrics", S::NAME))
                    .spawn(move || {
                        // Scrapes are served inline: a snapshot render
                        // is microseconds, and the read timeout bounds
                        // how long a stalled client can hold the
                        // acceptor.
                        accept_until_stopped(&listener, scrape_service.stop(), |stream| {
                            serve_scrape(stream, || scrape_service.scrape_body());
                        });
                    })?,
            );
        }
        Ok((
            Edge {
                local_addr,
                metrics_addr,
                acceptors,
                readers,
            },
            service,
        ))
    }

    /// The frame listener's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The `/metrics` listener's bound address, when one was bound.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Wakes the acceptors with throwaway loopback connects, then joins
    /// the accept, scrape and reader threads. Call it after raising the
    /// service's [`Stop`]; readers observe the flag within one
    /// [`POLL_INTERVAL`] (plus their drain, for a stop without kill).
    pub fn shutdown(&mut self) {
        let _ = TcpStream::connect_timeout(&self.local_addr, POLL_INTERVAL);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect_timeout(&addr, POLL_INTERVAL);
        }
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in readers {
            let _ = h.join();
        }
    }
}

/// Hands every accepted stream to `on_accept` until `stop` is raised.
fn accept_until_stopped(listener: &TcpListener, stop: &Stop, mut on_accept: impl FnMut(TcpStream)) {
    loop {
        let conn = listener.accept();
        if stop.is_raised() {
            return;
        }
        if let Ok((stream, _)) = conn {
            on_accept(stream);
        }
    }
}

/// Answers one HTTP request on `stream`: `GET /metrics` gets `body()`
/// in Prometheus text exposition format, anything else gets 404. Pure
/// std, just enough HTTP/1.1 for Prometheus-style scrapers and `curl`.
fn serve_scrape(mut stream: TcpStream, body: impl FnOnce() -> String) {
    let _ = stream.set_read_timeout(Some(SCRAPE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_TIMEOUT));
    let mut buf = Vec::new();
    let mut tmp = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < SCRAPE_REQUEST_MAX {
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let is_metrics = path == "/metrics" || path.starts_with("/metrics?");
    let (status, body) = if method == "GET" && is_metrics {
        ("200 OK", body())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
}

/// Whether `frame` opens a poll connection: an observability request or
/// a cluster verb, which needs no HELLO first.
pub fn is_poll(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::MetricsRequest
            | Frame::HealthRequest
            | Frame::FlightRequest { .. }
            | Frame::NodeHealthRequest
            | Frame::ClusterStateRequest
            | Frame::ClusterJoin { .. }
            | Frame::Query(_)
    )
}

/// A poll's reply, or the error code and message that end the
/// connection.
pub type Answer = Result<Frame, (ErrorCode, String)>;

/// Serves a poll connection: `first`, the frame that opened it, and
/// every later frame go through `answer` until the peer closes or sends
/// FIN. `answer` returns `None` for a frame that is not a poll, which
/// ends the connection with a protocol error.
pub fn serve_polls(
    conn: &mut Conn,
    stop: &Stop,
    first: Frame,
    mut answer: impl FnMut(Frame) -> Option<Answer>,
) {
    let mut next = Some(first);
    loop {
        let frame = match next.take() {
            Some(f) => f,
            None => match conn.read_frame(stop, None) {
                Ok(Some(f)) => f,
                Ok(None) => return,
                Err(e) => {
                    conn.bail(e.error_code(), &e.to_string());
                    return;
                }
            },
        };
        if matches!(frame, Frame::Fin) {
            return;
        }
        match answer(frame) {
            Some(Ok(reply)) => {
                if conn.write(&reply).is_err() {
                    return;
                }
            }
            Some(Err((code, message))) => {
                conn.bail(code, &message);
                return;
            }
            None => {
                conn.bail(ErrorCode::Protocol, "metrics connections may only poll");
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A connected loopback pair: the framed side and its raw peer.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Conn::new(stream).unwrap(), peer)
    }

    fn mixed_frames() -> Vec<Frame> {
        let mut frames = Vec::new();
        for i in 0..12u64 {
            let n = [0usize, 1, 7, 300, 5000][i as usize % 5];
            frames.push(Frame::Samples {
                seq: i + 1,
                samples: (0..n).map(|k| (k as f64).mul_add(0.25, i as f64)).collect(),
            });
            frames.push(match i % 4 {
                0 => Frame::Flush,
                1 => Frame::EventsAck { seq: i * 3 },
                2 => Frame::Watch { cursor: i },
                _ => Frame::Error {
                    code: ErrorCode::Protocol,
                    message: format!("frame {i}"),
                },
            });
        }
        frames.push(Frame::Fin);
        frames
    }

    /// A stream that hands out `bytes` in reads of at most the next size
    /// of `sizes` (cycled), then end of stream.
    struct Scripted<'a> {
        bytes: &'a [u8],
        sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = (*self.sizes.next().unwrap())
                .min(out.len())
                .min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Everything a [`RecvBuf`] decodes from `bytes` read in pieces of
    /// `sizes`: the frames, and whether bytes were left over at the end
    /// of the stream.
    fn decode_scripted(bytes: &[u8], sizes: &[usize]) -> (Vec<Frame>, bool, RecvBuf) {
        let mut src = Scripted {
            bytes,
            sizes: sizes.iter().cycle(),
        };
        let mut recv = RecvBuf::default();
        let mut owned = |v: SamplesView<'_>| Frame::Samples {
            seq: v.seq,
            samples: v.iter().collect(),
        };
        let mut got = Vec::new();
        loop {
            while let Some(read) = recv.next_frame(&mut owned).unwrap() {
                got.push(match read {
                    Incoming::Samples(frame) | Incoming::Frame(frame) => frame,
                });
                // Every frame takes at least a header's worth of bytes.
                assert!(
                    got.len() <= bytes.len() / proto::HEADER_LEN,
                    "frames out of nothing"
                );
            }
            if recv.fill(&mut src).unwrap() == 0 {
                let left_over = !recv.is_empty();
                return (got, left_over, recv);
            }
        }
    }

    #[test]
    fn recv_buf_decodes_frames_fed_one_byte_per_read() {
        let frames = mixed_frames();
        let bytes: Vec<u8> = frames.iter().flat_map(proto::encode_frame).collect();
        let (got, left_over, recv) = decode_scripted(&bytes, &[1]);
        assert_eq!(got, frames);
        assert!(!left_over);
        assert_eq!(recv.buf.len(), RECV_MIN, "one-byte reads never grow it");
    }

    #[test]
    fn recv_buf_decodes_several_frames_from_one_read() {
        let frames = mixed_frames();
        let bytes: Vec<u8> = frames.iter().flat_map(proto::encode_frame).collect();
        // Whole buffers at a time, and reads that end mid-header and
        // mid-payload at shifting offsets.
        for sizes in [&[usize::MAX][..], &[3, 20_000, 7, 41_000], &[65_535, 17]] {
            let (got, left_over, recv) = decode_scripted(&bytes, sizes);
            assert_eq!(got, frames, "reads of {sizes:?}");
            assert!(!left_over);
            assert_eq!(recv.buf.len(), RECV_MIN, "reads of {sizes:?}");
        }
    }

    #[test]
    fn recv_buf_grows_for_a_frame_larger_than_its_capacity() {
        let big = |seq, n: usize| Frame::Samples {
            seq,
            samples: (0..n).map(|k| k as f64 * 0.5).collect(),
        };
        let frames = vec![
            Frame::Flush,
            big(1, 8192),
            Frame::EventsAck { seq: 3 },
            big(2, 100_000),
            big(3, 5),
            big(4, 300_000),
            Frame::Fin,
        ];
        let bytes: Vec<u8> = frames.iter().flat_map(proto::encode_frame).collect();
        for sizes in [&[usize::MAX][..], &[64 * 1024], &[1000, 1]] {
            let (got, left_over, recv) = decode_scripted(&bytes, sizes);
            assert_eq!(got, frames, "reads of {sizes:?}");
            assert!(!left_over);
            // The largest frame fits; the buffer did not grow past twice
            // the size it needed.
            let largest = proto::samples_frame_len(300_000);
            assert!(recv.buf.len() >= largest && recv.buf.len() <= 2 * largest);
        }
    }

    #[test]
    fn a_partial_frame_at_end_of_stream_is_unexpected_eof() {
        let (mut conn, mut peer) = pair();
        let whole = proto::encode_frame(&Frame::EventsAck { seq: 5 });
        let cut = proto::encode_samples(1, &[1.0; 100]);
        peer.write_all(&whole).unwrap();
        peer.write_all(&cut[..cut.len() / 2]).unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        let stop = Stop::default();
        assert_eq!(
            conn.read_frame(&stop, None).unwrap(),
            Some(Frame::EventsAck { seq: 5 })
        );
        let err = conn.read_frame(&stop, None).unwrap_err();
        assert!(
            matches!(&err, ProtoError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
        // The same stream cut between frames ends cleanly.
        let (_, left_over, _) = decode_scripted(&whole, &[1]);
        assert!(!left_over);
        let (_, left_over, _) = decode_scripted(&[&whole[..], &cut[..9]].concat(), &[4]);
        assert!(left_over);
    }

    #[test]
    fn a_stop_mid_frame_returns_the_whole_frames_then_none() {
        for kill in [false, true] {
            let (mut conn, mut peer) = pair();
            let whole = proto::encode_samples(1, &[2.0; 3000]);
            let cut = proto::encode_samples(2, &[3.0; 3000]);
            peer.write_all(&whole).unwrap();
            peer.write_all(&cut[..cut.len() - 1]).unwrap();
            let stop = Stop::default();
            // The first frame is read before the stop; the stop comes
            // while the second is short of its last byte.
            let first = conn.read_frame(&stop, None).unwrap();
            assert_eq!(first, Some(proto::decode_frame(&whole).unwrap().0));
            stop.raise(kill);
            let started = Instant::now();
            assert_eq!(conn.read_frame(&stop, None).unwrap(), None, "kill {kill}");
            // A drain ends at the first quiet read timeout; a kill at once.
            let bound = if kill {
                POLL_INTERVAL
            } else {
                3 * POLL_INTERVAL
            };
            assert!(started.elapsed() < bound, "kill {kill}");
        }
    }

    fn held(buf: &ReplayBuffer, after: u64) -> Vec<(u64, Vec<u8>)> {
        buf.after(after).map(|(s, f)| (s, f.to_vec())).collect()
    }

    #[test]
    fn replay_buffer_prunes_through_the_ack_and_replays_past_it() {
        let mut buf = ReplayBuffer::default();
        assert!(buf.is_empty() && buf.oldest_seq().is_none());
        for seq in 3..=8u64 {
            buf.push(seq, vec![seq as u8; seq as usize]);
        }
        assert_eq!((buf.len(), buf.oldest_seq()), (6, Some(3)));
        let seqs = |after| {
            held(&buf, after)
                .into_iter()
                .map(|(s, _)| s)
                .collect::<Vec<_>>()
        };
        assert_eq!(seqs(0), [3, 4, 5, 6, 7, 8]);
        assert_eq!(seqs(5), [6, 7, 8]);
        assert_eq!(seqs(7), [8]);
        assert!(seqs(8).is_empty());
        assert_eq!(held(&buf, 7), [(8, vec![8u8; 8])]);

        // Pruning drops the acked frame itself, and nothing past it.
        buf.prune_through(5);
        assert_eq!((buf.len(), buf.oldest_seq()), (3, Some(6)));
        buf.prune_through(2);
        assert_eq!(buf.len(), 3);

        // A replayed sequence replaces the frames from it on.
        buf.push(7, vec![70]);
        assert_eq!(held(&buf, 0), [(6, vec![6u8; 6]), (7, vec![70])]);
        buf.push(8, vec![80]);
        assert_eq!(buf.pop_oldest(), Some((6, vec![6u8; 6])));
        assert_eq!(held(&buf, 0), [(7, vec![70]), (8, vec![80])]);
        buf.prune_through(u64::MAX);
        assert!(buf.is_empty());
    }

    #[test]
    fn replay_buffer_hands_back_the_buffers_of_dropped_frames() {
        let mut buf = ReplayBuffer::default();
        assert_eq!(buf.spare().capacity(), 0, "nothing dropped yet");
        for seq in 1..=3u64 {
            let mut frame = buf.spare();
            frame.extend_from_slice(&[seq as u8; 100]);
            buf.push(seq, frame);
        }
        // A replayed sequence and a prune each give their buffers back,
        // emptied, and the held frames are untouched.
        buf.push(3, vec![30; 10]);
        buf.prune_through(1);
        assert_eq!(held(&buf, 0), [(2, vec![2u8; 100]), (3, vec![30; 10])]);
        for _ in 0..2 {
            let spare = buf.spare();
            assert!(spare.is_empty() && spare.capacity() >= 100);
        }
        assert_eq!(buf.spare().capacity(), 0, "two frames were dropped");
        // The spares are bounded.
        for seq in 10..10 + 2 * SPARE_FRAMES as u64 {
            buf.push(seq, vec![0; 8]);
        }
        buf.prune_through(u64::MAX);
        assert_eq!(buf.spares.len(), SPARE_FRAMES);
    }

    #[test]
    fn pieces_straddling_poll_timeouts_decode_in_order() {
        let frames = mixed_frames();
        let bytes: Vec<u8> = frames.iter().flat_map(proto::encode_frame).collect();
        let (mut conn, mut peer) = pair();
        let writer = std::thread::spawn(move || {
            // SplitMix64-driven piece sizes from 1 byte up to 1 KiB, with
            // pauses longer than the read timeout after a few pieces.
            let mut x = 0x5eed_u64;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut at = 0;
            let mut pieces = 0;
            while at < bytes.len() {
                let r = next();
                let len = if r % 3 == 0 {
                    1
                } else {
                    1 + (r >> 8) as usize % 1024
                };
                let end = (at + len).min(bytes.len());
                peer.write_all(&bytes[at..end]).unwrap();
                peer.flush().unwrap();
                at = end;
                pieces += 1;
                if pieces % 100 == 0 {
                    std::thread::sleep(POLL_INTERVAL + POLL_INTERVAL / 2);
                }
            }
            pieces
        });
        let stop = Stop::default();
        let mut got = Vec::new();
        while let Some(frame) = conn.read_frame(&stop, None).unwrap() {
            let fin = matches!(frame, Frame::Fin);
            got.push(frame);
            if fin {
                break;
            }
        }
        let pieces = writer.join().unwrap();
        assert!(pieces > 200, "the stream must straddle at least two pauses");
        assert_eq!(got, frames);
    }

    #[test]
    fn a_passed_deadline_times_out() {
        let (mut conn, _peer) = pair();
        let started = Instant::now();
        let err = conn
            .read_frame(&Stop::default(), Some(Instant::now()))
            .unwrap_err();
        assert!(
            matches!(&err, ProtoError::Io(e) if e.kind() == io::ErrorKind::TimedOut),
            "{err:?}"
        );
        assert!(started.elapsed() < POLL_INTERVAL);
    }

    #[test]
    fn stop_without_kill_returns_queued_frames_then_none() {
        let (mut conn, mut peer) = pair();
        let frames = [
            Frame::Samples {
                seq: 1,
                samples: vec![1.0, 2.0],
            },
            Frame::Flush,
        ];
        for frame in &frames {
            peer.write_all(&proto::encode_frame(frame)).unwrap();
        }
        let stop = Stop::default();
        assert!(!stop.raise(false));
        for frame in &frames {
            assert_eq!(conn.read_frame(&stop, None).unwrap().as_ref(), Some(frame));
        }
        assert!(conn.read_frame(&stop, None).unwrap().is_none());
    }

    #[test]
    fn kill_returns_none_at_once() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&proto::encode_frame(&Frame::Flush)).unwrap();
        let stop = Stop::default();
        assert!(!stop.raise(true));
        let started = Instant::now();
        assert!(conn.read_frame(&stop, None).unwrap().is_none());
        assert!(started.elapsed() < POLL_INTERVAL);
    }

    #[test]
    fn a_quiet_peer_gets_a_heartbeat() {
        let (mut conn, peer) = pair();
        let stop = Arc::new(Stop::default());
        let reader_stop = Arc::clone(&stop);
        let reader = std::thread::spawn(move || {
            let heartbeat = Some((Duration::from_millis(10), || Frame::Heartbeat {
                acked_seq: 7,
            }));
            conn.read_frame_with(&reader_stop, None, heartbeat, |_| ())
        });
        let mut peer = Conn::new(peer).unwrap();
        let deadline = Some(Instant::now() + Duration::from_secs(10));
        assert_eq!(
            peer.read_frame(&Stop::default(), deadline).unwrap(),
            Some(Frame::Heartbeat { acked_seq: 7 })
        );
        stop.raise(true);
        assert!(reader.join().unwrap().unwrap().is_none());
    }

    /// Reads each connection until its peer closes, then counts it.
    #[derive(Default)]
    struct Drain {
        stop: Stop,
        served: AtomicUsize,
    }

    impl Service for Drain {
        const NAME: &'static str = "drain";

        fn stop(&self) -> &Stop {
            &self.stop
        }

        fn serve(self: Arc<Self>, stream: TcpStream) {
            let mut conn = Conn::new(stream).unwrap();
            while let Ok(Some(_)) = conn.read_frame(&self.stop, None) {}
            self.served.fetch_add(1, Ordering::SeqCst);
        }

        fn scrape_body(&self) -> String {
            String::new()
        }
    }

    #[test]
    fn readers_of_ended_connections_are_let_go() {
        let (mut edge, service) =
            Edge::bind("127.0.0.1:0", None, |_| Ok(Drain::default())).unwrap();
        for n in 1..=20 {
            drop(TcpStream::connect(edge.local_addr()).unwrap());
            let started = Instant::now();
            while service.served.load(Ordering::SeqCst) < n {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "connection {n} hung"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            // Every accept lets go of the readers that had exited: held
            // are the newest, and at most one that had counted itself
            // but not yet returned when the newest was accepted.
            assert!(edge.readers.lock().unwrap().len() <= 2);
        }
        service.stop.raise(true);
        edge.shutdown();
    }

    #[test]
    fn dial_falls_back_past_a_refusing_address() {
        let refused = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap();
        let conn = Conn::dial(&[refused, live][..], Duration::from_secs(5)).unwrap();
        let (_, peer) = listener.accept().unwrap();
        assert_eq!(conn.local_addr().unwrap(), peer);
    }
}
