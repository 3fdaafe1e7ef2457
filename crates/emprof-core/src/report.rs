//! Profile reports: summary statistics, before/after comparison, and a
//! plain-text interchange format.
//!
//! EMPROF's end use is optimization work (Section VI-D): a developer
//! profiles a device, changes code, profiles again, and asks what moved.
//! [`ProfileSummary`] condenses a profile into the numbers the paper's
//! tables report, [`ProfileDiff`] compares two of them, and the CSV
//! routines let captures and profiles cross tool boundaries (a real rig's
//! digitizer exports samples; a CI system archives event lists).

use std::fmt;

use crate::profile::{Confidence, Profile, StallEvent, StallKind};

/// Condensed statistics of one profile (one device + workload run).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Detected ordinary miss stalls.
    pub miss_count: usize,
    /// Detected refresh-collision stalls.
    pub refresh_count: usize,
    /// Total measured stall cycles.
    pub stall_cycles: f64,
    /// Stall time as a fraction of execution time.
    pub stall_fraction: f64,
    /// Misses per million cycles.
    pub miss_rate_per_mcycle: f64,
    /// Mean stall latency (cycles).
    pub mean_latency_cycles: f64,
    /// Median stall latency (cycles).
    pub p50_latency_cycles: f64,
    /// 95th-percentile stall latency (cycles) — the tail the paper argues
    /// counter-based profiling cannot see.
    pub p95_latency_cycles: f64,
    /// 99th-percentile stall latency (cycles).
    pub p99_latency_cycles: f64,
    /// Capture length in cycles.
    pub total_cycles: f64,
}

impl ProfileSummary {
    /// Summarizes a profile.
    pub fn of(profile: &Profile) -> ProfileSummary {
        let mut latencies: Vec<f64> = profile.events().iter().map(|e| e.duration_cycles).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let pct = |q: f64| -> f64 {
            if latencies.is_empty() {
                0.0
            } else {
                let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
                latencies[idx]
            }
        };
        ProfileSummary {
            miss_count: profile.miss_count(),
            refresh_count: profile.refresh_count(),
            stall_cycles: profile.total_stall_cycles(),
            stall_fraction: profile.stall_fraction(),
            miss_rate_per_mcycle: profile.miss_rate_per_mcycle(),
            mean_latency_cycles: profile.mean_latency_cycles(),
            p50_latency_cycles: pct(0.50),
            p95_latency_cycles: pct(0.95),
            p99_latency_cycles: pct(0.99),
            total_cycles: profile.total_cycles(),
        }
    }
}

impl fmt::Display for ProfileSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "misses: {} (+{} refresh collisions)",
            self.miss_count, self.refresh_count
        )?;
        writeln!(
            f,
            "stall time: {:.0} cycles ({:.2}% of {:.0} cycles)",
            self.stall_cycles,
            self.stall_fraction * 100.0,
            self.total_cycles
        )?;
        writeln!(f, "miss rate: {:.1} per Mcycle", self.miss_rate_per_mcycle)?;
        write!(
            f,
            "latency: mean {:.0}, p50 {:.0}, p95 {:.0}, p99 {:.0} cycles",
            self.mean_latency_cycles,
            self.p50_latency_cycles,
            self.p95_latency_cycles,
            self.p99_latency_cycles
        )
    }
}

/// A before/after comparison of two profiles of the same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Summary of the baseline run.
    pub before: ProfileSummary,
    /// Summary of the modified run.
    pub after: ProfileSummary,
}

impl ProfileDiff {
    /// Compares `after` against `before`.
    pub fn between(before: &Profile, after: &Profile) -> ProfileDiff {
        ProfileDiff {
            before: ProfileSummary::of(before),
            after: ProfileSummary::of(after),
        }
    }

    /// Relative change in miss count (−0.25 = 25 % fewer misses).
    pub fn miss_change(&self) -> f64 {
        relative(self.before.miss_count as f64, self.after.miss_count as f64)
    }

    /// Relative change in total stall cycles.
    pub fn stall_cycle_change(&self) -> f64 {
        relative(self.before.stall_cycles, self.after.stall_cycles)
    }

    /// Relative change in the p95 latency tail.
    pub fn tail_change(&self) -> f64 {
        relative(
            self.before.p95_latency_cycles,
            self.after.p95_latency_cycles,
        )
    }

    /// Relative change in execution time.
    pub fn runtime_change(&self) -> f64 {
        relative(self.before.total_cycles, self.after.total_cycles)
    }
}

fn relative(before: f64, after: f64) -> f64 {
    if before == 0.0 {
        if after == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (after - before) / before
    }
}

impl fmt::Display for ProfileDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = |v: f64| format!("{}{:.1}%", if v >= 0.0 { "+" } else { "" }, v * 100.0);
        writeln!(
            f,
            "misses:       {} -> {} ({})",
            self.before.miss_count,
            self.after.miss_count,
            sign(self.miss_change())
        )?;
        writeln!(
            f,
            "stall cycles: {:.0} -> {:.0} ({})",
            self.before.stall_cycles,
            self.after.stall_cycles,
            sign(self.stall_cycle_change())
        )?;
        writeln!(
            f,
            "p95 latency:  {:.0} -> {:.0} ({})",
            self.before.p95_latency_cycles,
            self.after.p95_latency_cycles,
            sign(self.tail_change())
        )?;
        write!(
            f,
            "runtime:      {:.0} -> {:.0} ({})",
            self.before.total_cycles,
            self.after.total_cycles,
            sign(self.runtime_change())
        )
    }
}

/// Errors from the CSV interchange routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A line did not have the expected number of fields.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// The header line was missing or unrecognized.
    BadHeader(String),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::BadRecord { line, message } => {
                write!(f, "line {line}: {message}")
            }
            CsvError::BadHeader(h) => write!(f, "unrecognized header: {h}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Writes a profile's events as CSV
/// (`start_sample,end_sample,duration_cycles,kind,confidence`).
pub fn events_to_csv(profile: &Profile) -> String {
    let mut out = String::from("start_sample,end_sample,duration_cycles,kind,confidence\n");
    for e in profile.events() {
        out.push_str(&format!(
            "{},{},{:.3},{},{}\n",
            e.start_sample,
            e.end_sample,
            e.duration_cycles,
            match e.kind {
                StallKind::Normal => "miss",
                StallKind::RefreshCollision => "refresh",
            },
            match e.confidence {
                Confidence::High => "high",
                Confidence::Degraded => "degraded",
            }
        ));
    }
    out
}

/// Parses the CSV produced by [`events_to_csv`] back into events. Also
/// accepts the pre-confidence 4-column format (missing confidence reads
/// as `high`).
///
/// # Errors
///
/// Returns [`CsvError`] on a missing/unknown header or malformed record.
pub fn events_from_csv(csv: &str) -> Result<Vec<StallEvent>, CsvError> {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or("").trim();
    if header != "start_sample,end_sample,duration_cycles,kind,confidence"
        && header != "start_sample,end_sample,duration_cycles,kind"
    {
        return Err(CsvError::BadHeader(header.to_string()));
    }
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 && fields.len() != 5 {
            return Err(CsvError::BadRecord {
                line: line_no,
                message: format!("expected 4 or 5 fields, got {}", fields.len()),
            });
        }
        let parse_u = |s: &str, what: &str| {
            s.parse::<usize>().map_err(|_| CsvError::BadRecord {
                line: line_no,
                message: format!("bad {what}: {s}"),
            })
        };
        let start_sample = parse_u(fields[0], "start_sample")?;
        let end_sample = parse_u(fields[1], "end_sample")?;
        let duration_cycles = fields[2].parse::<f64>().map_err(|_| CsvError::BadRecord {
            line: line_no,
            message: format!("bad duration: {}", fields[2]),
        })?;
        let kind = match fields[3] {
            "miss" => StallKind::Normal,
            "refresh" => StallKind::RefreshCollision,
            other => {
                return Err(CsvError::BadRecord {
                    line: line_no,
                    message: format!("unknown kind: {other}"),
                })
            }
        };
        let confidence = match fields.get(4).copied() {
            None | Some("high") => Confidence::High,
            Some("degraded") => Confidence::Degraded,
            Some(other) => {
                return Err(CsvError::BadRecord {
                    line: line_no,
                    message: format!("unknown confidence: {other}"),
                })
            }
        };
        if end_sample < start_sample {
            return Err(CsvError::BadRecord {
                line: line_no,
                message: "end before start".to_string(),
            });
        }
        events.push(StallEvent {
            start_sample,
            end_sample,
            duration_cycles,
            kind,
            confidence,
        });
    }
    Ok(events)
}

/// Writes a magnitude signal as one-column CSV with a header, the format
/// [`signal_from_csv`] reads — a lowest-common-denominator interchange
/// with digitizer exports.
pub fn signal_to_csv(signal: &[f64]) -> String {
    let mut out = String::from("magnitude\n");
    for v in signal {
        out.push_str(&format!("{v}\n"));
    }
    out
}

/// Reads a one-column magnitude CSV (header `magnitude`).
///
/// # Errors
///
/// Returns [`CsvError`] on a bad header or a non-numeric sample.
pub fn signal_from_csv(csv: &str) -> Result<Vec<f64>, CsvError> {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or("").trim();
    if header != "magnitude" {
        return Err(CsvError::BadHeader(header.to_string()));
    }
    let mut signal = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        signal.push(line.parse::<f64>().map_err(|_| CsvError::BadRecord {
            line: i + 2,
            message: format!("bad sample: {line}"),
        })?);
    }
    Ok(signal)
}

/// [`signal_from_csv`] with the detector's non-finite sanitization
/// applied at the ingestion boundary: `NaN` / `inf` / `-inf` *parse*
/// as valid `f64`s (so [`signal_from_csv`] accepts them), but a single
/// one would poison every moving min/max window it reaches. This
/// variant drops them at read time and reports how many were rejected,
/// matching the policy of `StreamingEmprof::push`.
///
/// # Errors
///
/// Returns [`CsvError`] on a bad header or a non-numeric sample.
pub fn signal_from_csv_sanitized(csv: &str) -> Result<(Vec<f64>, usize), CsvError> {
    let mut signal = signal_from_csv(csv)?;
    let before = signal.len();
    signal.retain(|v| v.is_finite());
    let rejected = before - signal.len();
    Ok((signal, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: usize, width: usize, cycles: f64) -> StallEvent {
        StallEvent {
            start_sample: start,
            end_sample: start + width,
            duration_cycles: cycles,
            kind: StallKind::Normal,
            confidence: Confidence::High,
        }
    }

    fn sample_profile() -> Profile {
        let mut events: Vec<StallEvent> = (0..99).map(|i| ev(100 + i * 100, 12, 300.0)).collect();
        events.push(StallEvent {
            start_sample: 100 + 99 * 100,
            end_sample: 100 + 99 * 100 + 100,
            duration_cycles: 2500.0,
            kind: StallKind::RefreshCollision,
            confidence: Confidence::Degraded,
        });
        Profile::new(events, 20_000, 40e6, 1.0e9)
    }

    #[test]
    fn summary_percentiles() {
        let s = ProfileSummary::of(&sample_profile());
        assert_eq!(s.miss_count, 99);
        assert_eq!(s.refresh_count, 1);
        assert_eq!(s.p50_latency_cycles, 300.0);
        // With 100 events, the rounded 99th-percentile rank is index 98 —
        // still an ordinary 300-cycle stall; the single refresh outlier
        // sits beyond it.
        assert_eq!(s.p99_latency_cycles, 300.0);
        assert!(s.p95_latency_cycles <= s.p99_latency_cycles);
        assert!((s.stall_cycles - (99.0 * 300.0 + 2500.0)).abs() < 1e-9);
    }

    #[test]
    fn summary_of_empty_profile() {
        let s = ProfileSummary::of(&Profile::new(vec![], 100, 40e6, 1e9));
        assert_eq!(s.miss_count, 0);
        assert_eq!(s.p99_latency_cycles, 0.0);
        assert_eq!(s.stall_fraction, 0.0);
    }

    #[test]
    fn diff_reports_improvements() {
        let before = sample_profile();
        let after = Profile::new(
            (0..49).map(|i| ev(100 + i * 100, 12, 300.0)).collect(),
            18_000,
            40e6,
            1.0e9,
        );
        let diff = ProfileDiff::between(&before, &after);
        assert!((diff.miss_change() - (49.0 - 99.0) / 99.0).abs() < 1e-9);
        assert!(diff.stall_cycle_change() < -0.4);
        assert!(diff.runtime_change() < 0.0);
        let text = diff.to_string();
        assert!(text.contains("misses"));
        assert!(text.contains("->"));
    }

    #[test]
    fn diff_handles_zero_baselines() {
        let empty = Profile::new(vec![], 100, 40e6, 1e9);
        let busy = sample_profile();
        let diff = ProfileDiff::between(&empty, &busy);
        assert!(diff.miss_change().is_infinite());
        let same = ProfileDiff::between(&empty, &empty);
        assert_eq!(same.miss_change(), 0.0);
    }

    #[test]
    fn events_csv_round_trip() {
        let profile = sample_profile();
        let csv = events_to_csv(&profile);
        let events = events_from_csv(&csv).unwrap();
        assert_eq!(events.len(), profile.events().len());
        for (a, b) in events.iter().zip(profile.events()) {
            assert_eq!(a.start_sample, b.start_sample);
            assert_eq!(a.end_sample, b.end_sample);
            assert_eq!(a.kind, b.kind);
            assert!((a.duration_cycles - b.duration_cycles).abs() < 1e-3);
        }
    }

    #[test]
    fn signal_csv_round_trip() {
        let signal = vec![1.5, -0.25, 3.125, 0.0];
        let csv = signal_to_csv(&signal);
        assert_eq!(signal_from_csv(&csv).unwrap(), signal);
    }

    #[test]
    fn csv_errors_are_reported_with_lines() {
        assert!(matches!(
            events_from_csv("nope\n"),
            Err(CsvError::BadHeader(_))
        ));
        let bad = "start_sample,end_sample,duration_cycles,kind\n1,2,3\n";
        match events_from_csv(bad) {
            Err(CsvError::BadRecord { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadRecord, got {other:?}"),
        }
        let bad_kind = "start_sample,end_sample,duration_cycles,kind\n1,2,3.0,weird\n";
        assert!(events_from_csv(bad_kind).is_err());
        let inverted = "start_sample,end_sample,duration_cycles,kind\n5,2,3.0,miss\n";
        assert!(events_from_csv(inverted).is_err());
        assert!(signal_from_csv("magnitude\nabc\n").is_err());
    }

    #[test]
    fn csv_skips_blank_lines() {
        let csv = "magnitude\n1.0\n\n2.0\n";
        assert_eq!(signal_from_csv(csv).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn sanitized_csv_drops_non_finite_samples() {
        // `NaN`/`inf` parse as valid f64s, so the plain reader accepts
        // them — the sanitized boundary must reject them with a count.
        let csv = "magnitude\n1.0\nNaN\n2.0\ninf\n-inf\n3.0\n";
        let plain = signal_from_csv(csv).unwrap();
        assert_eq!(plain.len(), 6);
        let (clean, rejected) = signal_from_csv_sanitized(csv).unwrap();
        assert_eq!(clean, vec![1.0, 2.0, 3.0]);
        assert_eq!(rejected, 3);
    }
}
