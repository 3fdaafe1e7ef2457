//! Prometheus text exposition encoding of a [`Snapshot`].
//!
//! Pure `std`: this module only formats strings; serving them over
//! HTTP is the caller's job (`emprof serve --metrics-addr` and `emprof
//! router --metrics-addr` mount it behind the minimal `GET /metrics`
//! responder in `emprof_serve::net`).
//!
//! Every family is written as one group, as the exposition format
//! requires: its `# TYPE` line, then all of its samples, before the next
//! family starts. [`write_family`] is the one writer of such a group.
//!
//! Mapping (all families carry the `emprof_` prefix; dots and any
//! other characters outside `[a-zA-Z0-9_:]` become `_`):
//!
//! | snapshot kind | series |
//! |---|---|
//! | counter `a.b` | `emprof_a_b` (counter) |
//! | gauge `a.b` | `emprof_a_b` (gauge) |
//! | meter `a.b` | `emprof_a_b_total` (counter) + `emprof_a_b_rate` (gauge) |
//! | histogram `a.b` | `emprof_a_b_bucket{le="…"}` cumulative + `_sum` + `_count` |
//! | span `a.b` | `emprof_a_b_count`, `_total_ns` (counters), `_min_ns`, `_max_ns` (gauges) |
//!
//! Values are formatted so they parse back to the exact snapshot
//! values: integers in decimal, floats through Rust's round-trip
//! `{:?}` formatting (non-finite floats use the Prometheus `NaN` /
//! `+Inf` / `-Inf` literals).

use std::fmt::{Display, Write as _};

use crate::registry::Snapshot;

/// Sanitizes one metric name into the Prometheus alphabet
/// `[a-zA-Z0-9_:]` (every other character becomes `_`). The result is
/// meant to be appended to a prefix starting with a letter, so a
/// leading digit is fine.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// The full family name of a snapshot metric: `emprof_` + sanitized.
pub fn family_name(name: &str) -> String {
    format!("emprof_{}", sanitize_metric_name(name))
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline are escaped; everything else passes through.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats one sample value. Finite floats keep round-trip precision;
/// non-finite map to the exposition-format literals.
pub fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v:?}")
    }
}

/// Writes one family as a single exposition group: its `# TYPE` line,
/// then one `name{labels} value` sample per entry of `samples`. Each
/// label set is written as given, braces included (escape its values
/// with [`escape_label_value`]); an unlabeled family passes one sample
/// with an empty label set.
pub fn write_family<L: Display, V: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    samples: impl IntoIterator<Item = (L, V)>,
) {
    // Writing into a String cannot fail.
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in samples {
        let _ = writeln!(out, "{name}{labels} {value}");
    }
}

/// Encodes a whole snapshot in Prometheus text exposition format.
pub fn encode_snapshot(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        write_family(&mut out, &family_name(name), "counter", [("", value)]);
    }
    for (name, value) in &snapshot.gauges {
        write_family(
            &mut out,
            &family_name(name),
            "gauge",
            [("", format_value(*value))],
        );
    }
    for (name, m) in &snapshot.meters {
        let f = family_name(name);
        write_family(&mut out, &format!("{f}_total"), "counter", [("", m.count)]);
        write_family(
            &mut out,
            &format!("{f}_rate"),
            "gauge",
            [("", format_value(m.rate_per_sec))],
        );
    }
    for (name, h) in &snapshot.histograms {
        let f = family_name(name);
        out.push_str(&format!("# TYPE {f} histogram\n"));
        let mut cumulative = 0u64;
        for &(_, hi, n) in &h.buckets {
            cumulative = cumulative.saturating_add(n);
            out.push_str(&format!("{f}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{f}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{f}_sum {}\n", h.sum));
        out.push_str(&format!("{f}_count {}\n", h.count));
    }
    for (name, s) in &snapshot.spans {
        let f = family_name(name);
        write_family(&mut out, &format!("{f}_count"), "counter", [("", s.count)]);
        write_family(
            &mut out,
            &format!("{f}_total_ns"),
            "counter",
            [("", s.total_ns)],
        );
        write_family(&mut out, &format!("{f}_min_ns"), "gauge", [("", s.min_ns)]);
        write_family(&mut out, &format!("{f}_max_ns"), "gauge", [("", s.max_ns)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_metric_name("serve.events"), "serve_events");
        assert_eq!(sanitize_metric_name("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("λ!"), "__");
        assert_eq!(family_name("serve.events"), "emprof_serve_events");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn values_format_for_round_trip() {
        assert_eq!(format_value(1.5), "1.5");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        let v: f64 = format_value(0.1 + 0.2).parse().unwrap();
        assert_eq!(v, 0.1 + 0.2);
    }

    #[test]
    fn snapshot_encodes_every_kind() {
        let r = Registry::new();
        r.counter("serve.events").add(12);
        r.gauge("serve.queue_depth").set(3.0);
        r.meter("meter.samples").mark(100);
        r.histogram("detect.event_width_samples").record(12);
        r.histogram("detect.event_width_samples").record(300);
        r.span_stat("serve.session").record_ns(5_000);
        let text = encode_snapshot(&r.snapshot());
        assert!(text.contains("# TYPE emprof_serve_events counter\nemprof_serve_events 12\n"));
        assert!(text.contains("emprof_serve_queue_depth 3.0\n"));
        assert!(text.contains("emprof_meter_samples_total 100\n"));
        assert!(text.contains("emprof_meter_samples_rate "));
        assert!(text.contains("emprof_detect_event_width_samples_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("emprof_detect_event_width_samples_sum 312\n"));
        assert!(text.contains("emprof_detect_event_width_samples_count 2\n"));
        assert!(text.contains("emprof_serve_session_count 1\n"));
        assert!(text.contains("emprof_serve_session_total_ns 5000\n"));
        // Cumulative bucket counts are monotone.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= prev, "non-monotone cumulative bucket in {line}");
            prev = n;
        }
    }
}
