//! The shared half of the `soak` binary, `soak <scenario> [--rounds R]`
//! (the scenarios are modules under `src/bin/soak/`): its command line,
//! the concurrent-session runner, the one session round the serve,
//! chaos and router scenarios stream, the temp-dir and journaled-server
//! setup, and the failure tally and report; plus the capture rates and
//! detector configuration every session uses, the deterministic test
//! signal, the batch reference a served profile must equal, and the
//! client retry settings. Each scenario keeps its own checks.
//!
//! A run is bounded by rounds, not time, and every input and fault
//! schedule is a function of `(session, round)`, so the same command
//! streams the same samples and faults on every run. Every failure line
//! ends with that command.

use std::any::Any;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use emprof_core::{Emprof, EmprofConfig, StallEvent};
use emprof_fault::{flag_degraded, survivor_dropout_points, FaultInjector, FaultPlan};
use emprof_serve::{ClientConfig, ProfileClient, ServeConfig, Server};

/// Capture sample rate of every soak session, in Hz.
pub const FS: f64 = 40e6;

/// Profiled core clock of every soak session, in Hz.
pub const CLK: f64 = 1.0e9;

/// Failure lines printed in full; the rest are summarised in one line.
const MAX_FAILURE_LINES: usize = 20;

/// The detector configuration every soak session streams with.
pub fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

/// Client settings for soaks that sever connections: a generous read
/// timeout and fast, bounded reconnect backoff.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(100),
        max_reconnects: 8,
        ..ClientConfig::default()
    }
}

/// Deterministic busy/dip signal of `segments` segments (about 385
/// samples each), distinct per `(session, round)`, ending on a busy
/// tail so every dip is finalized.
pub fn build_signal(session: usize, round: usize, segments: usize) -> Vec<f64> {
    let mut s = Vec::new();
    for j in 0..segments {
        let x = (session * 7919 + round * 15485863 + j * 104729) as u64;
        let gap = 3 + (x % 601) as usize;
        let dip = ((x / 601) % 160) as usize;
        let dip_level = 0.3 + ((x / 96160) % 256) as f64 / 255.0 * 1.2;
        for k in 0..gap {
            s.push(5.0 + (((j * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        for k in 0..dip {
            s.push(dip_level + (((j * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
    }
    s.extend(std::iter::repeat_n(5.0, 400));
    s
}

/// The batch detector's events on `signal`: what a served session of
/// the same samples must deliver.
pub fn batch_events(signal: &[f64]) -> Vec<StallEvent> {
    Emprof::new(config())
        .profile_magnitude(signal, FS, CLK)
        .events()
        .to_vec()
}

/// Opens a session named `device` at `addr` with the soak detector
/// configuration and [`client_config`].
pub fn open_session(addr: SocketAddr, device: &str) -> ProfileClient {
    ProfileClient::connect_with(addr, device, config(), FS, CLK, client_config())
        .expect("open session")
}

/// One soak scenario: its name on the command line, its round count
/// when `--rounds` is not given (sized for CI), and its body, which
/// records failures on the [`Soak`] and returns what a pass means.
pub struct Scenario {
    /// The scenario's name, the first argument.
    pub name: &'static str,
    /// Rounds run when `--rounds` is not given.
    pub rounds: usize,
    /// Runs the scenario.
    pub run: fn(&Soak) -> &'static str,
}

impl Scenario {
    /// The scenario `name`, running `rounds` rounds by default.
    pub const fn new(name: &'static str, rounds: usize, run: fn(&Soak) -> &'static str) -> Self {
        Scenario { name, rounds, run }
    }
}

/// The usage text: the command line, the scenarios with their default
/// round counts, and what a replay reproduces.
pub fn usage(scenarios: &[Scenario]) -> String {
    let names: Vec<String> = scenarios
        .iter()
        .map(|s| format!("{} ({} rounds)", s.name, s.rounds))
        .collect();
    format!(
        "usage: soak <scenario> [--rounds R]\nscenarios: {}\n\n\
         A run is bounded by rounds, and every input and fault schedule is a\n\
         function of (session, round), so the same command streams the same\n\
         samples and faults on every run; each failure line ends with that\n\
         command. Thread interleavings are not fixed: a failure that hangs on\n\
         a race may need several replays to show again.\n",
        names.join(", ")
    )
}

/// Parses `soak`'s arguments (program name excluded): a scenario name,
/// then optionally `--rounds R` with `R >= 1`. Returns the scenario and
/// its round count, or what is wrong with the command line; a run that
/// could test nothing (zero rounds) or that a removed option would
/// reshape (`--smoke`, `--seconds`) is refused, not guessed at.
pub fn parse_args<'a>(
    args: &[String],
    scenarios: &'a [Scenario],
) -> Result<(&'a Scenario, usize), String> {
    let (name, rest) = args.split_first().ok_or("no scenario given")?;
    let scenario = scenarios
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown scenario `{name}`"))?;
    match rest {
        [] => Ok((scenario, scenario.rounds)),
        [flag, n] if flag == "--rounds" => match n.parse::<usize>() {
            Ok(rounds) if rounds > 0 => Ok((scenario, rounds)),
            _ => Err(format!("--rounds takes a positive integer, not `{n}`")),
        },
        [other, ..] => Err(format!(
            "unexpected argument `{other}`: `--rounds R` is the only option"
        )),
    }
}

/// A running soak: its scenario and round count, and every failure
/// recorded so far, from any thread.
pub struct Soak {
    scenario: &'static str,
    rounds: usize,
    failures: Mutex<Vec<String>>,
}

impl Soak {
    /// A soak of `scenario` running `rounds` rounds, with no failures.
    pub fn new(scenario: &'static str, rounds: usize) -> Soak {
        Soak {
            scenario,
            rounds,
            failures: Mutex::new(Vec::new()),
        }
    }

    /// The round count of this run.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Records one failure.
    pub fn fail(&self, failure: impl Into<String>) {
        self.failures
            .lock()
            .expect("a failure push never panics")
            .push(failure.into());
    }

    /// Runs `f`, recording a panic inside it as a failure of `what`.
    /// Returns `f`'s value, or `None` after a panic.
    pub fn guard<R>(&self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        catch_unwind(AssertUnwindSafe(f))
            .map_err(|p| self.fail(format!("{what} panicked: {}", panic_message(&*p))))
            .ok()
    }

    /// Runs `sessions` concurrent sessions, started together at a
    /// barrier; session `k` calls `round(k, r, &mut tally)` for each
    /// `r` in `0..rounds`, and the sessions' tallies come back in
    /// session order. A panicking round is recorded as a failure naming
    /// its session and round and ends that session; the others run on.
    pub fn sessions<T: Default + Send>(
        &self,
        sessions: usize,
        rounds: usize,
        round: impl Fn(usize, usize, &mut T) + Sync,
    ) -> Vec<T> {
        let barrier = Barrier::new(sessions);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..sessions)
                .map(|k| {
                    let (barrier, round) = (&barrier, &round);
                    s.spawn(move || {
                        barrier.wait();
                        let mut tally = T::default();
                        for r in 0..rounds {
                            let what = format!("session {k} round {r}");
                            if self.guard(&what, || round(k, r, &mut tally)).is_none() {
                                break;
                            }
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a session's panics are caught per round"))
                .collect()
        })
    }

    /// Streams [`Soak::rounds`] session rounds on each of `sessions`
    /// concurrent sessions at the server or router at `addr`, and sums
    /// their tallies. A round opens session `session`, streams the
    /// `(session, round)` signal of `segments` segments in frames of a
    /// per-session size with the `faults` given, flushes after every
    /// fourth frame, finishes, and checks the accounting and the served
    /// events against batch on the identical (faulted) signal.
    /// Divergences are recorded as failures naming the session and round,
    /// and so is a fault the run was asked for but never injected.
    pub fn stream_sessions(
        &self,
        addr: SocketAddr,
        sessions: usize,
        segments: usize,
        faults: Faults,
    ) -> Tally {
        let round = |k, r, t: &mut Tally| self.session_round(addr, k, r, segments, faults, t);
        let t: Tally = self
            .sessions(sessions, self.rounds, round)
            .into_iter()
            .sum();
        if faults.severs && t.forced_drops == 0 {
            self.fail("no transport loss was ever forced: the soak tested nothing");
        }
        if faults.lost_replies && t.lost_replies == 0 {
            self.fail("no reply was ever lost in the kill window: exactly-once went untested");
        }
        t
    }

    fn session_round(
        &self,
        addr: SocketAddr,
        session: usize,
        round: usize,
        segments: usize,
        faults: Faults,
        tally: &mut Tally,
    ) {
        let mut signal = build_signal(session, round, segments);
        let seed = (session as u64) << 32 | round as u64 | 1;
        let report = faults
            .chaos
            .then(|| FaultInjector::new(FaultPlan::chaos(), seed).inject(&mut signal));
        let non_finite = signal.iter().filter(|v| !v.is_finite()).count() as u64;

        let mut client = open_session(addr, &format!("{}-{session}", self.scenario));
        let (before, mut drops) = (client.reconnects(), 0);
        let mut served = Vec::new();
        for (i, chunk) in signal.chunks(64 + session * 997).enumerate() {
            // Sever the transport between sends at deterministic points;
            // the next operation must reconnect and resume the session.
            if faults.severs && (i + session + round) % 9 == 3 {
                client.drop_connection();
                drops += 1;
            }
            client.send(chunk).expect("stream frame");
            // The §10 kill window: complete a flush server-side, then
            // sever before consuming or acking the reply. The offered
            // events must be redelivered on resume — exactly once.
            if faults.lost_replies && (i + session + round) % 11 == 5 {
                client.flush_lost_reply().expect("lost-reply flush");
                tally.lost_replies += 1;
            }
            if (i + 1) % 4 == 0 {
                served.extend(client.flush().expect("flush").0);
            }
        }
        let resumes = client.reconnects() - before;
        let (tail, stats) = client.finish().expect("finish");
        served.extend(tail);
        assert!(
            stats.final_report,
            "finish did not deliver the final report"
        );

        let at = format!("session {session} round {round}");
        if resumes < drops {
            self.fail(format!(
                "{at}: only {resumes} resumes for {drops} forced drops: the session died instead"
            ));
        }
        if stats.samples_pushed + stats.samples_rejected != signal.len() as u64
            || stats.samples_rejected != non_finite
        {
            self.fail(format!(
                "{at}: server accepted {} and rejected {} of {} samples, {non_finite} non-finite",
                stats.samples_pushed,
                stats.samples_rejected,
                signal.len()
            ));
        }
        // The served stream must equal a local batch run on the identical
        // faulted signal: the sanitizer, not luck, is what keeps NaN/inf
        // from reaching the detector.
        if served != batch_events(&signal) {
            self.fail(format!(
                "{at}: served events diverged from the batch detector"
            ));
        }
        if let Some(report) = report {
            let gap_points = survivor_dropout_points(&report.dropouts, &signal);
            tally.degraded += flag_degraded(&served, &gap_points)
                .iter()
                .filter(|&&d| d)
                .count() as u64;
        }
        tally.rounds += 1;
        tally.forced_drops += drops;
        tally.resumes += resumes;
        tally.samples += signal.len() as u64;
        tally.events += served.len() as u64;
        tally.rejected += stats.samples_rejected;
    }

    /// Prints every failure, each line ending with the command that
    /// replays the run, or the scenario's `pass` line. Returns the
    /// process exit code: 0 on a pass, 1 on any failure.
    pub fn report(self, pass: &str) -> i32 {
        let replay = format!("soak {} --rounds {}", self.scenario, self.rounds);
        let failures = self
            .failures
            .into_inner()
            .expect("a failure push never panics");
        if failures.is_empty() {
            println!("{} soak PASS: {pass}", self.scenario);
            return 0;
        }
        for f in failures.iter().take(MAX_FAILURE_LINES) {
            eprintln!("{} soak FAIL: {f}; replay: {replay}", self.scenario);
        }
        if failures.len() > MAX_FAILURE_LINES {
            let more = failures.len() - MAX_FAILURE_LINES;
            eprintln!(
                "{} soak FAIL: {more} more failures; replay: {replay}",
                self.scenario
            );
        }
        1
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string panic payload)")
}

/// The faults [`Soak::stream_sessions`] streams through.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Inject `FaultPlan::chaos()` NaN/inf faults, seeded by session and
    /// round, into the signal before streaming it.
    pub chaos: bool,
    /// Sever the transport before every ninth frame.
    pub severs: bool,
    /// Lose a flush reply inside the §10 kill window every eleventh
    /// frame.
    pub lost_replies: bool,
}

/// What session rounds counted, summed over rounds and sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Rounds completed.
    pub rounds: u64,
    /// Samples streamed, faulted ones included.
    pub samples: u64,
    /// Events served.
    pub events: u64,
    /// Samples the server rejected as non-finite.
    pub rejected: u64,
    /// Served events flagged degraded by a fault dropout.
    pub degraded: u64,
    /// Transport losses forced by the client.
    pub forced_drops: u64,
    /// Reconnect-and-resumes the client made.
    pub resumes: u64,
    /// Flush replies lost inside the kill window.
    pub lost_replies: u64,
}

impl std::iter::Sum for Tally {
    fn sum<I: Iterator<Item = Tally>>(tallies: I) -> Tally {
        tallies.fold(Tally::default(), |a, b| Tally {
            rounds: a.rounds + b.rounds,
            samples: a.samples + b.samples,
            events: a.events + b.events,
            rejected: a.rejected + b.rejected,
            degraded: a.degraded + b.degraded,
            forced_drops: a.forced_drops + b.forced_drops,
            resumes: a.resumes + b.resumes,
            lost_replies: a.lost_replies + b.lost_replies,
        })
    }
}

/// A fresh directory under the system temp dir, removed with everything
/// in it when dropped, also when a panic unwinds past it.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `emprof-<tag>-soak-<pid>-<n>`, emptied if it exists.
    pub fn new(tag: &str) -> TempDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "emprof-{tag}-soak-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create soak temp dir");
        TempDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Binds a loopback server that journals into `dir`, with `config`'s
/// other settings.
pub fn bind_journaled(dir: &TempDir, config: ServeConfig) -> Server {
    let config = ServeConfig {
        journal_dir: Some(dir.path().to_path_buf()),
        ..config
    };
    Server::bind("127.0.0.1:0", config).expect("bind journaled server")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenarios() -> [Scenario; 2] {
        [
            Scenario::new("serve", 7, |_| "ran"),
            Scenario::new("store", 3, |_| "ran"),
        ]
    }

    fn parse(args: &[&str]) -> Result<(&'static str, usize), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args, &scenarios()).map(|(s, r)| (s.name, r))
    }

    #[test]
    fn a_scenario_runs_its_default_or_the_given_rounds() {
        assert_eq!(parse(&["serve"]), Ok(("serve", 7)));
        assert_eq!(parse(&["store"]), Ok(("store", 3)));
        assert_eq!(parse(&["store", "--rounds", "12"]), Ok(("store", 12)));
    }

    #[test]
    fn runs_that_test_nothing_or_guess_are_refused() {
        for bad in [
            &[][..],
            &["chaos"],
            &["--rounds", "3"],
            &["serve", "--rounds", "0"],
            &["serve", "--rounds", "-1"],
            &["serve", "--rounds"],
            &["serve", "--smoke"],
            &["--smoke", "serve"],
            &["serve", "--seconds", "8"],
            &["serve", "--rounds", "2", "--smoke"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn a_panicking_round_is_a_failure_naming_its_session_and_round() {
        let soak = Soak::new("serve", 4);
        let tallies = soak.sessions(3, 4, |k, r, done: &mut usize| {
            assert!(!(k == 1 && r == 2), "planted");
            *done += 1;
        });
        assert_eq!(tallies, [4, 2, 4]);
        let failures = soak.failures.into_inner().unwrap();
        assert_eq!(failures, ["session 1 round 2 panicked: planted"]);
    }

    #[test]
    fn a_temp_dir_is_removed_when_a_panic_unwinds_past_it() {
        let mut path = PathBuf::new();
        let soak = Soak::new("store", 1);
        let ran = soak.guard("round", || {
            let dir = TempDir::new("unit");
            std::fs::write(dir.path().join("residue"), b"x").unwrap();
            path = dir.path().to_path_buf();
            panic!("planted");
        });
        assert!(ran.is_none());
        assert!(!path.as_os_str().is_empty() && !path.exists());
    }
}
