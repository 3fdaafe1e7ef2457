//! `serve_ingest`: `nproc` closed-loop `ProfileClient`s over loopback to
//! one journaled `Server` with `nproc` worker threads.
//!
//! Each client streams a pool signal as [`FRAME`]-sample SAMPLES frames,
//! sends FLUSH every [`FLUSH_EVERY`] frames and waits for the EVENTS
//! reply, then FIN; sessions repeat until the run's time is spent. The
//! events a session receives must equal `Emprof::profile_magnitude` on
//! the same signal, and the server's sample and event counters must equal
//! the clients' totals.
//!
//! The server's internal layers cannot be timed from outside the socket,
//! so the traced pass also drives the same per-frame sequence in-process:
//! encode SAMPLES → `decode_frame_view` → journal append → streaming
//! detector → drain → journal append → encode EVENTS → ack.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use emprof_core::accuracy::count_accuracy;
use emprof_core::{Emprof, EmprofConfig, Parallelism, StallEvent, StreamingEmprof};
use emprof_serve::proto::{decode_frame_view, encode_frame, FrameView};
use emprof_serve::{ClientConfig, ClientError, Frame, ProfileClient, ServeConfig, Server};
use emprof_store::{JournalConfig, SessionJournal, SessionMeta};

use crate::pool::{Pool, Signal};
use crate::speed::HostSpeed;
use crate::trace::Recorder;
use crate::util::{median, nproc, quantile, Rng, CLK, FS};
use crate::{alternate, Measured, Metric, Traced, Workload};

pub const FRAME: usize = 8192;
pub const FLUSH_EVERY: usize = 4;
const SIGNALS: usize = 6;
/// Long enough that every in-process session rolls a journal segment.
const SESSION_SAMPLES: usize = 72 * FRAME;

/// Binds a journaled loopback server with `nproc` workers over a fresh
/// `dir`.
pub fn journaled_server(dir: &Path) -> Server {
    let _ = std::fs::remove_dir_all(dir);
    Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            threads: Parallelism::new(nproc()),
            journal_dir: Some(dir.to_path_buf()),
            idle_timeout: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server")
}

/// Failures are loud: no transparent reconnects.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(30),
        max_reconnects: 0,
        ..ClientConfig::default()
    }
}

pub struct ServeIngest {
    cfg: EmprofConfig,
    signals: Vec<Signal>,
    references: Vec<Vec<StallEvent>>,
    server: Option<Server>,
    dir: PathBuf,
    stall_accuracy: f64,
}

/// What one live session produced.
#[derive(Default)]
struct SessionOut {
    ok: bool,
    samples: u64,
    events: u64,
    flush_rtts: Vec<f64>,
    control_s: f64,
    wall_s: f64,
}

/// Totals over a live closed-loop pass.
#[derive(Default)]
struct LiveOut {
    sessions: u64,
    failed: u64,
    samples: u64,
    events: u64,
    /// Wall seconds of every FLUSH round trip, with the host factor of its
    /// round.
    flush_rtts: Vec<(f64, f64)>,
    /// Samples, wall seconds and host factor of every session.
    session_runs: Vec<(f64, f64, f64)>,
    /// Wall seconds spent in FLUSH and FIN round trips, and in sessions.
    control_s: f64,
    session_s: f64,
    wall_s: f64,
    host_factor: f64,
    busy_probe_frac: f64,
}

impl ServeIngest {
    pub fn setup(seed: u64, work: &Path) -> ServeIngest {
        let mut rng = Rng::new(seed);
        let cfg = EmprofConfig::for_rates(FS, CLK);
        let emprof = Emprof::new(cfg);
        let pool = Pool::simulate(&mut rng);
        let signals: Vec<Signal> = (0..SIGNALS)
            .map(|_| pool.signal(&mut rng, SESSION_SAMPLES))
            .collect();
        let profiles: Vec<_> = signals
            .iter()
            .map(|s| emprof.profile_magnitude(&s.samples, FS, CLK))
            .collect();
        let reported: f64 = profiles.iter().map(|p| p.total_stall_cycles()).sum();
        let actual: f64 = signals.iter().map(|s| s.stall_cycles).sum();
        let dir = work.join("serve_ingest");
        ServeIngest {
            cfg,
            references: profiles.iter().map(|p| p.events().to_vec()).collect(),
            signals,
            server: Some(journaled_server(&dir.join("live"))),
            dir,
            stall_accuracy: count_accuracy(reported, actual),
        }
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }

    fn session(&self, addr: SocketAddr, i: usize) -> Result<SessionOut, ClientError> {
        let t0 = Instant::now();
        let signal = &self.signals[i].samples;
        let mut out = SessionOut::default();
        let mut client =
            ProfileClient::connect_with(addr, "perfbench", self.cfg, FS, CLK, client_config())?;
        let mut events = Vec::new();
        for (j, frame) in signal.chunks(FRAME).enumerate() {
            client.send(frame)?;
            if (j + 1) % FLUSH_EVERY == 0 {
                let t = Instant::now();
                events.extend(client.flush()?.0);
                out.flush_rtts.push(t.elapsed().as_secs_f64());
            }
        }
        let t = Instant::now();
        let (tail, stats) = client.finish()?;
        out.control_s = out.flush_rtts.iter().sum::<f64>() + t.elapsed().as_secs_f64();
        events.extend(tail);
        out.ok = events == self.references[i] && stats.samples_pushed == signal.len() as u64;
        out.samples = signal.len() as u64;
        out.events = events.len() as u64;
        out.wall_s = t0.elapsed().as_secs_f64();
        Ok(out)
    }

    /// `nproc` clients run sessions in rounds until `seconds` have passed.
    /// Each round starts with one client timing the host-speed probe (on
    /// every core) while the others wait and the server is idle; then each
    /// client runs one session. Flush round trips and sessions keep the
    /// host factor of their round.
    fn live(&self, seconds: f64, speed: HostSpeed) -> LiveOut {
        let addr = self.server().local_addr();
        let clients = nproc();
        let before = self.server().stats();
        let barrier = Barrier::new(clients);
        let stop = AtomicBool::new(false);
        let speed = Mutex::new(speed);
        let factor = AtomicU64::new(0);
        let t0 = Instant::now();
        let per_client: Vec<LiveOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (barrier, stop, speed, factor) = (&barrier, &stop, &speed, &factor);
                    s.spawn(move || {
                        let mut o = LiveOut::default();
                        let mut n = 0;
                        loop {
                            // One client decides and calibrates for all,
                            // so none waits at a barrier the others left.
                            if barrier.wait().is_leader() {
                                let done = t0.elapsed().as_secs_f64() >= seconds;
                                stop.store(done, Ordering::SeqCst);
                                if !done {
                                    let mut speed = speed.lock().expect("calibration never panics");
                                    speed.sample();
                                    factor.store(speed.factor().to_bits(), Ordering::SeqCst);
                                }
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let f = f64::from_bits(factor.load(Ordering::SeqCst));
                            o.sessions += 1;
                            match self.session(addr, (c + n * clients) % SIGNALS) {
                                Ok(r) => {
                                    o.failed += u64::from(!r.ok);
                                    o.samples += r.samples;
                                    o.events += r.events;
                                    o.flush_rtts.extend(r.flush_rtts.iter().map(|&s| (s, f)));
                                    o.session_runs.push((r.samples as f64, r.wall_s, f));
                                    o.control_s += r.control_s;
                                    o.session_s += r.wall_s;
                                }
                                Err(e) => {
                                    eprintln!("serve_ingest: session failed: {e}");
                                    o.failed += 1;
                                }
                            }
                            n += 1;
                        }
                        o
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let speed = speed.into_inner().expect("calibration never panics");
        let mut out = LiveOut {
            wall_s: t0.elapsed().as_secs_f64(),
            host_factor: speed.overall_factor(),
            busy_probe_frac: speed.busy_frac(),
            ..LiveOut::default()
        };
        for o in per_client {
            out.sessions += o.sessions;
            out.failed += o.failed;
            out.samples += o.samples;
            out.events += o.events;
            out.flush_rtts.extend(o.flush_rtts);
            out.session_runs.extend(o.session_runs);
            out.control_s += o.control_s;
            out.session_s += o.session_s;
        }
        // Every sample and event the clients saw, the server counted.
        let after = self.server().stats();
        if after.samples_in - before.samples_in != out.samples
            || after.events_total - before.events_total != out.events
        {
            eprintln!("serve_ingest: server counters disagree with client totals");
            out.failed += 1;
        }
        out
    }

    /// One in-process session over pool signal `i`: the server's
    /// per-frame sequence without the socket.
    fn in_process(
        &self,
        i: usize,
        session_id: u64,
        rec: &mut Recorder,
        ip: &mut InProcess,
    ) -> (bool, f64) {
        let signal = &self.signals[i].samples;
        let dir = self
            .dir
            .join("inproc")
            .join(format!("session-{session_id}"));
        let meta = SessionMeta {
            session_id,
            resume_token: session_id,
            sample_rate_hz: FS,
            clock_hz: CLK,
            config: self.cfg,
            device: "perfbench".into(),
        };
        let mut journal =
            SessionJournal::create(&dir, meta, JournalConfig::default()).expect("create journal");
        let mut detector = StreamingEmprof::new(self.cfg, FS, CLK);
        let mut buf = Vec::with_capacity(FRAME);
        let mut events: Vec<StallEvent> = Vec::new();
        let mut fresh = Vec::new();
        let mut ok = true;
        let mut segments = journal.stats().segments;
        let (r, s) = rec.op("op", |rec| {
            let deliver = |rec: &mut Recorder,
                           journal: &mut SessionJournal,
                           fresh: &mut Vec<StallEvent>,
                           events: &mut Vec<StallEvent>,
                           ip: &mut InProcess| {
                let first_seq = events.len() as u64 + 1;
                let b0 = journal.stats().bytes;
                rec.span("store.journal.append", |_| {
                    journal.append_events(first_seq, fresh)
                })?;
                ip.journal_event_bytes += journal.stats().bytes.saturating_sub(b0);
                let reply = Frame::Events {
                    first_seq,
                    events: std::mem::take(fresh),
                };
                let wire = rec.span("serve.proto.encode_events", |_| encode_frame(&reply));
                ip.wire_event_bytes += wire.len() as u64;
                if let Frame::Events { events: e, .. } = reply {
                    events.extend(e);
                }
                rec.span("store.journal.ack", |_| journal.ack(events.len() as u64))
            };
            for (j, chunk) in signal.chunks(FRAME).enumerate() {
                let seq = j as u64 + 1;
                let wire = rec.span("serve.proto.encode_samples", |_| {
                    encode_frame(&Frame::Samples {
                        seq,
                        samples: chunk.to_vec(),
                    })
                });
                ip.wire_sample_bytes += wire.len() as u64;
                let decoded = rec.span("serve.proto.decode", |_| {
                    buf.clear();
                    match decode_frame_view(&wire) {
                        Ok((FrameView::Samples(v), _)) => {
                            v.copy_into(&mut buf);
                            true
                        }
                        _ => false,
                    }
                });
                ok &= decoded && buf.as_slice() == chunk;
                let b0 = journal.stats().bytes;
                rec.span("store.journal.append", |_| {
                    journal.append_samples(seq, &buf)
                })?;
                ip.journal_sample_bytes += journal.stats().bytes.saturating_sub(b0);
                let now = journal.stats().segments;
                ip.segments_rolled += now.saturating_sub(segments) as u64;
                segments = now;
                rec.span("core.stream", |_| detector.extend_from_slice(&buf));
                if (j + 1) % FLUSH_EVERY == 0 {
                    rec.span("core.stream", |_| detector.drain_events_into(&mut fresh));
                    deliver(rec, &mut journal, &mut fresh, &mut events, ip)?;
                }
            }
            let profile = rec.span("core.stream", |_| detector.finish());
            fresh.extend_from_slice(&profile.events()[events.len()..]);
            deliver(rec, &mut journal, &mut fresh, &mut events, ip)?;
            rec.span("store.journal.append", |_| {
                journal.finish(signal.len() as u64, 0, signal.len().div_ceil(FRAME) as u64)
            })
        });
        if let Err(e) = r {
            eprintln!("serve_ingest: in-process journal failed: {e}");
            ok = false;
        }
        ip.samples += signal.len() as u64;
        ip.events += events.len() as u64;
        let _ = std::fs::remove_dir_all(&dir);
        (ok && events == self.references[i], s)
    }
}

impl Workload for ServeIngest {
    fn measure(&mut self, seconds: f64, speed: HostSpeed) -> Measured {
        let live = self.live(seconds, speed);
        let mut m = Measured::new();
        m.attempted = live.sessions + 1;
        m.failed = live.failed;
        for &(wall_s, f) in &live.flush_rtts {
            m.op(wall_s, f);
        }
        for &(samples, wall_s, f) in &live.session_runs {
            m.rate(samples, wall_s, f);
        }
        m.streams = nproc();
        m.host_factor = live.host_factor;
        m.busy_probe_frac = live.busy_probe_frac;
        m.stall_accuracy = self.stall_accuracy;
        m.alias("ingest_msamples_per_s", m.throughput() / 1e6, "Msamples/s");
        m.alias("flush_rtt_p50_ms", m.p50_ms(), "ms");
        m.alias("flush_rtt_p90_ms", m.tail_ms(), "ms");
        m.alias("flush_rtt_p99_ms", quantile(&m.op_s, 0.99) * 1e3, "ms");
        m
    }

    fn traced(&mut self, seconds: f64, rec: &mut Recorder) -> Traced {
        let before = self.server().stats();
        let live = self.live(seconds / 2.0, HostSpeed::sort(nproc()));
        let after = self.server().stats();

        let mut ip = InProcess::default();
        let mut bare = Vec::new();
        // Each signal runs once traced and once untraced.
        let mut t = alternate(seconds / 2.0, 2, rec, |k, rec| {
            let i = (k / 2) % SIGNALS;
            let (ok, s) = self.in_process(i, k as u64, rec, &mut ip);
            if rec.is_enabled() {
                // Bare detection over the same samples: the base of the
                // serve and journaling cost ratios.
                let ((), bs) = rec.op("bare", |_| {
                    let mut d = StreamingEmprof::new(self.cfg, FS, CLK);
                    let mut out = Vec::new();
                    for frame in self.signals[i].samples.chunks(FRAME) {
                        d.extend_from_slice(frame);
                        d.drain_events_into(&mut out);
                    }
                    std::hint::black_box(d.finish());
                });
                bare.push(bs);
            }
            (ok, s)
        });
        t.attempted += live.sessions + 1;
        t.failed += live.failed;
        let _ = std::fs::remove_dir_all(self.dir.join("inproc"));

        let tot = rec.totals();
        let ns = |name: &str| tot.get(name).map_or(0.0, |t| t.wall_ns as f64);
        let per_call = |name: &str| {
            tot.get(name)
                .map_or(0.0, |t| t.wall_ns as f64 / t.count.max(1) as f64)
        };
        let bare_per_sample = median(&bare) / SESSION_SAMPLES as f64;
        let live_per_sample = live.wall_s / live.samples.max(1) as f64;
        let pipeline_per_sample = median(&t.traced_op_s) / SESSION_SAMPLES as f64;
        let reader_ns = live.wall_s * 1e9 * nproc() as f64;
        t.metrics = vec![
            Metric::new(
                "core.stream_msamples_per_s",
                ip.samples as f64 / (ns("core.stream") / 1e3),
                "Msamples/s",
            ),
            Metric::new(
                "serve.decode_ns_per_frame",
                per_call("serve.proto.decode"),
                "ns",
            ),
            Metric::new(
                "serve.encode_events_ns_per_frame",
                per_call("serve.proto.encode_events"),
                "ns",
            ),
            Metric::new(
                "serve.wire_bytes_per_sample",
                ip.wire_sample_bytes as f64 / ip.samples as f64,
                "B",
            ),
            Metric::new(
                "serve.wire_bytes_per_event",
                ip.wire_event_bytes as f64 / ip.events.max(1) as f64,
                "B",
            ),
            Metric::new(
                "serve.backpressure_frac",
                (after.backpressure_ns - before.backpressure_ns) as f64 / reader_ns,
                "ratio",
            ),
            Metric::new(
                "serve.peak_queue_depth",
                after.peak_queue_depth as f64,
                "frames",
            ),
            Metric::new(
                "serve.samples_in",
                (after.samples_in - before.samples_in) as f64,
                "count",
            ),
            Metric::new(
                "serve.events_total",
                (after.events_total - before.events_total) as f64,
                "count",
            ),
            Metric::new(
                "store.append_mb_per_s",
                (ip.journal_sample_bytes + ip.journal_event_bytes) as f64
                    / (ns("store.journal.append") / 1e3),
                "MB/s",
            ),
            Metric::new(
                "store.journal_bytes_per_sample",
                ip.journal_sample_bytes as f64 / ip.samples as f64,
                "B",
            ),
            Metric::new(
                "store.journal_bytes_per_event",
                ip.journal_event_bytes as f64 / ip.events.max(1) as f64,
                "B",
            ),
            Metric::new("store.segments_rolled", ip.segments_rolled as f64, "count"),
            Metric::new(
                "serve.cost_over_bare_detect",
                live_per_sample / bare_per_sample,
                "ratio",
            ),
            Metric::new(
                "client.flush_wait_frac",
                live.control_s / live.session_s,
                "ratio",
            ),
        ];
        t.wire_b_per_event = Some(t.metrics[4].value);
        t.journal_b_per_event = Some(t.metrics[11].value);
        t.journal_cost = Some(pipeline_per_sample / bare_per_sample);
        t.summary = format!(
            "live {:.1} Msamples/s ({} clients); stream {:.1} Msamples/s, decode {:.0} ns/frame, \
             journal {:.0} MB/s",
            live.samples as f64 / live.wall_s / 1e6,
            nproc(),
            t.metrics[0].value,
            t.metrics[1].value,
            t.metrics[9].value
        );
        t
    }

    fn corrupt_reference(&mut self) {
        self.references[0].pop();
    }
}

impl Drop for ServeIngest {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Byte and count totals of the in-process pass.
#[derive(Default)]
struct InProcess {
    samples: u64,
    events: u64,
    wire_sample_bytes: u64,
    wire_event_bytes: u64,
    journal_sample_bytes: u64,
    journal_event_bytes: u64,
    segments_rolled: u64,
}
