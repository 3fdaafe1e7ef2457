//! Host-speed calibration for end-to-end timings.
//!
//! A shared host changes speed by tens of percent for seconds at a time
//! (another tenant on a sibling hyperthread, a frequency limit). On a
//! shared 2-vCPU Intel Xeon virtual machine, one `device_profile`
//! operation took 54 ms in one 10-second stretch and 78 ms in the next,
//! while its time divided by the time of the sort probe below stayed
//! within ±3 %.
//!
//! So every end-to-end timing is reported in *reference seconds*: the
//! wall time divided by the host's current slowness, measured by timing a
//! fixed probe that belongs to the benchmark, not to the program, between
//! operations. A change to the program moves reference seconds exactly as
//! it moves wall time; a change in host speed moves the operation and the
//! probe alike and cancels out, provided the probe leans on the same
//! resources as the operation. Hence two probes:
//!
//! - the sort probe sorts 200 000 pseudo-random integers (CPU and cache),
//!   for the compute-bound workloads;
//! - the read probe reads a 4 MiB file from the page cache and hashes it
//!   (system calls and memory bandwidth), for `journal_query`, whose
//!   operations read segment files. There the sort probe does not track
//!   the operation and the read probe does, within ±1.5 %.
//!
//! A probe times the host only while the program is idle. Work the program
//! leaves running between operations (a server thread tearing a session
//! down, a background write) would slow the probe, raise the factor and
//! shrink every reported time, crediting the program for work it moved
//! out of the measured path. So each probe try also reads the process's
//! CPU clock and the probe threads' own CPU clocks; a try during which the
//! rest of the process used CPU is dropped, the next try first waits for
//! the process to go quiet, and the share of dropped tries is reported.
//! Cache pollution the program leaves behind is not detected.

use std::collections::VecDeque;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::util::{median, Rng};

/// Loop samples the current slowness is the mean of. The mean, not the
/// median: when the host time-slices this process's cores, a 4 ms probe
/// usually fits in one slice while a 60 ms operation always waits out its
/// share, so the median probe misses the slowdown the mean catches. On a
/// 2-vCPU Xeon virtual machine shared with two busy loops, the median put
/// `device_profile` operations 5–15 % above their idle reference time, the
/// mean within 2 %.
const WINDOW: usize = 5;
/// Tries per sample before the host is left uncalibrated for one step.
const ATTEMPTS: usize = 3;
/// CPU the rest of the process may use during an idle probe sample: probe
/// thread start-up and exit, clock reads, a timer tick. On a 2-vCPU Xeon
/// virtual machine an idle 2-core sort probe saw 0.09–0.15 ms of it, and
/// one overlapping a journaled server still tearing sessions down
/// 0.35–0.7 ms.
const IDLE_SLACK_S: f64 = 200e-6;
const IDLE_SLACK_FRAC: f64 = 0.01;
/// A quiet millisecond: clock reads and the server's 100 ms poll wake-ups
/// fit in it, a session being torn down does not.
const QUIET_CPU_S: f64 = 50e-6;
const QUIESCE_STEPS: usize = 20;
const READ_PROBE_BYTES: usize = 4 << 20;

/// What the probe does. Its buffers are allocated once, so probing adds
/// no allocator churn to the memory the run measures.
#[derive(Debug)]
enum Probe {
    /// One buffer of [`SORT_LEN`] integers per calibrated core.
    Sort(Vec<Vec<u64>>),
    /// The file, and a buffer of its size.
    Read(PathBuf, Vec<u8>),
}

const SORT_LEN: u64 = 200_000;

/// The wall and CPU seconds of one probe on the calling thread.
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall_s: f64,
    cpu_s: f64,
}

fn timed(f: impl FnOnce()) -> Timed {
    let (cpu0, t0) = (cpu_s(Clock::Thread), Instant::now());
    f();
    Timed {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_s(Clock::Thread) - cpu0,
    }
}

/// One sort probe.
fn sort_probe(buf: &mut Vec<u64>) -> Timed {
    timed(|| {
        buf.clear();
        buf.extend((0..SORT_LEN).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7));
        buf.sort_unstable();
        std::hint::black_box(&buf);
    })
}

/// One read probe.
fn read_probe(path: &Path, buf: &mut [u8]) -> Timed {
    timed(|| {
        std::fs::File::open(path)
            .and_then(|mut f| f.read_exact(buf))
            .expect("read probe file");
        let hash = buf.iter().fold(0x811C_9DC5u32, |h, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        std::hint::black_box(hash);
    })
}

/// Waits, for at most [`QUIESCE_STEPS`] milliseconds, until the process
/// used no more than [`QUIET_CPU_S`] of CPU over one millisecond.
fn quiesce() {
    for _ in 0..QUIESCE_STEPS {
        let before = cpu_s(Clock::Process);
        std::thread::sleep(Duration::from_millis(1));
        if !(cpu_s(Clock::Process) - before > QUIET_CPU_S) {
            return;
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Clock {
    Process,
    Thread,
}

/// CPU seconds (user and system) used so far by the whole process or by
/// the calling thread; NaN where the clock cannot be read, which turns
/// the idle check off.
fn cpu_s(clock: Clock) -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
        let id = match clock {
            Clock::Process => 2,
            Clock::Thread => 3,
        };
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec for the call's
        // duration, laid out as the 64-bit Linux ABI defines it.
        if unsafe { clock_gettime(id, &mut ts) } == 0 {
            return ts.sec as f64 + ts.nsec as f64 * 1e-9;
        }
    }
    let _ = clock;
    f64::NAN
}

#[derive(Debug)]
pub struct HostSpeed {
    probe: Probe,
    recent: VecDeque<f64>,
    all: Vec<f64>,
    tries: usize,
    busy: usize,
}

impl HostSpeed {
    /// The sort probe for work spread over `threads` cores: each sample
    /// runs the probe on that many threads at once and keeps the slowest,
    /// since the slowest core sets the pace of work split evenly.
    pub fn sort(threads: usize) -> HostSpeed {
        let bufs = (0..threads.max(1))
            .map(|_| Vec::with_capacity(SORT_LEN as usize))
            .collect();
        HostSpeed::new(Probe::Sort(bufs))
    }

    /// The read probe over a seeded file it writes under `dir`.
    pub fn read(dir: &Path) -> HostSpeed {
        let path = dir.join("read_probe.bin");
        let mut rng = Rng::new(0x5EED);
        let bytes: Vec<u8> = (0..READ_PROBE_BYTES / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        std::fs::write(&path, &bytes).expect("write read probe file");
        HostSpeed::new(Probe::Read(path, bytes))
    }

    fn new(probe: Probe) -> HostSpeed {
        HostSpeed {
            probe,
            recent: VecDeque::new(),
            all: Vec::new(),
            tries: 0,
            busy: 0,
        }
    }

    /// The probe's time on the reference host.
    fn reference_s(&self) -> f64 {
        match self.probe {
            Probe::Sort(_) => 0.005,
            Probe::Read(..) => 0.008,
        }
    }

    /// Times the probe once on every calibrated core: the slowest core's
    /// wall time and the probe threads' CPU time together.
    fn probe_once(&mut self) -> Timed {
        match &mut self.probe {
            // The calling thread probes one core; one spawned thread
            // probes each other core.
            Probe::Sort(bufs) => std::thread::scope(|s| {
                let (own, rest) = bufs.split_first_mut().expect("one buffer per core");
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|buf| s.spawn(move || sort_probe(buf)))
                    .collect();
                let own = sort_probe(own);
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .fold(own, |a, t| Timed {
                        wall_s: a.wall_s.max(t.wall_s),
                        cpu_s: a.cpu_s + t.cpu_s,
                    })
            }),
            Probe::Read(path, buf) => read_probe(path, buf),
        }
    }

    /// Takes one probe sample while the process is otherwise idle. A try
    /// during which the rest of the process used CPU is dropped, and the
    /// next one waits for the process to go quiet first; after
    /// [`ATTEMPTS`] busy tries the current slowness stays as it was (or,
    /// before any sample, the last try is kept).
    pub fn sample(&mut self) {
        for attempt in 1..=ATTEMPTS {
            if attempt > 1 {
                quiesce();
            }
            let before = cpu_s(Clock::Process);
            let t = self.probe_once();
            let others = cpu_s(Clock::Process) - before - t.cpu_s;
            self.tries += 1;
            let busy = others > IDLE_SLACK_S + IDLE_SLACK_FRAC * t.cpu_s;
            if busy {
                self.busy += 1;
            }
            if !busy || (attempt == ATTEMPTS && self.recent.is_empty()) {
                if self.recent.len() == WINDOW {
                    self.recent.pop_front();
                }
                self.recent.push_back(t.wall_s);
                self.all.push(t.wall_s);
                return;
            }
        }
    }

    /// Share of probe tries dropped because the process was busy.
    pub fn busy_frac(&self) -> f64 {
        self.busy as f64 / self.tries.max(1) as f64
    }

    /// How much slower than the reference host this host runs now: the
    /// mean of the recent probe times over the reference time.
    pub fn factor(&self) -> f64 {
        self.recent.iter().sum::<f64>() / self.recent.len() as f64 / self.reference_s()
    }

    /// The median slowness over every sample, for the report.
    pub fn overall_factor(&self) -> f64 {
        median(&self.all) / self.reference_s()
    }
}
