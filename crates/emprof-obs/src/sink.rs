//! Telemetry output: JSON-lines, human-readable tables, or nothing.

use std::io::{self, Write};

use crate::registry::Snapshot;
use crate::span::TraceEvent;

/// Where a telemetry snapshot goes.
pub trait TelemetrySink {
    /// Writes one snapshot.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, if any.
    fn write_snapshot(&mut self, snapshot: &Snapshot) -> io::Result<()>;
}

/// Machine-parseable JSON-lines output: one metric per line.
///
/// Schema (`type` discriminates):
///
/// ```text
/// {"type":"counter","name":"sim.cache.llc.miss","value":512}
/// {"type":"gauge","name":"stream.samples_per_sec","value":1.25e7}
/// {"type":"meter","name":"meter.samples_in","count":4096,"rate_per_sec":1.0e6}
/// {"type":"span","name":"detect.normalize","count":1,"total_ns":81532,
///  "mean_ns":81532.0,"min_ns":81532,"max_ns":81532}
/// {"type":"histogram","name":"detect.event_width_samples","count":3,"sum":36,
///  "min":8,"max":16,"buckets":[{"lo":8,"hi":16,"n":2},{"lo":16,"hi":32,"n":1}]}
/// ```
///
/// Metric names pass through full JSON string escaping — a hostile or
/// malformed name (embedded quotes, newlines, control characters) can
/// never break the line structure.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink { writer }
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TelemetrySink for JsonLinesSink<W> {
    fn write_snapshot(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        let w = &mut self.writer;
        for (name, value) in &snapshot.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}",
                json_string(name)
            )?;
        }
        for (name, value) in &snapshot.gauges {
            writeln!(
                w,
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                json_string(name),
                json_f64(*value)
            )?;
        }
        for (name, m) in &snapshot.meters {
            writeln!(
                w,
                "{{\"type\":\"meter\",\"name\":{},\"count\":{},\"rate_per_sec\":{}}}",
                json_string(name),
                m.count,
                json_f64(m.rate_per_sec)
            )?;
        }
        for (name, s) in &snapshot.spans {
            writeln!(
                w,
                "{{\"type\":\"span\",\"name\":{},\"count\":{},\"total_ns\":{},\
                 \"mean_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                json_string(name),
                s.count,
                s.total_ns,
                json_f64(s.mean_ns()),
                s.min_ns,
                s.max_ns
            )?;
        }
        for (name, h) in &snapshot.histograms {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(lo, hi, n)| format!("{{\"lo\":{lo},\"hi\":{hi},\"n\":{n}}}"))
                .collect();
            writeln!(
                w,
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json_string(name),
                h.count,
                h.sum,
                h.min.map_or("null".to_string(), |v| v.to_string()),
                h.max.map_or("null".to_string(), |v| v.to_string()),
                buckets.join(",")
            )?;
        }
        w.flush()
    }
}

/// Writes trace events as JSON lines:
/// `{"type":"trace","name":"detect.normalize","start_ns":12,"dur_ns":81532}`.
///
/// # Errors
///
/// Returns the underlying I/O error, if any.
pub fn write_trace_jsonl<W: Write>(
    w: &mut W,
    events: &[TraceEvent],
    dropped: u64,
) -> io::Result<()> {
    for e in events {
        writeln!(
            w,
            "{{\"type\":\"trace\",\"name\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            json_string(e.name),
            e.start_ns,
            e.dur_ns
        )?;
    }
    if dropped > 0 {
        writeln!(w, "{{\"type\":\"trace_dropped\",\"count\":{dropped}}}")?;
    }
    w.flush()
}

/// Human-readable aligned tables, one section per metric kind.
#[derive(Debug)]
pub struct PrettyTableSink<W: Write> {
    writer: W,
}

impl<W: Write> PrettyTableSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        PrettyTableSink { writer }
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TelemetrySink for PrettyTableSink<W> {
    fn write_snapshot(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        let w = &mut self.writer;
        if !snapshot.spans.is_empty() {
            // Name columns widen to the longest name in their section so
            // values stay aligned however long the names get.
            let width = name_width(snapshot.spans.iter().map(|(n, _)| n.as_str()), 32);
            writeln!(w, "spans (wall time per stage)")?;
            writeln!(
                w,
                "  {:<width$} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "name", "count", "total", "mean", "min", "max"
            )?;
            for (name, s) in &snapshot.spans {
                writeln!(
                    w,
                    "  {:<width$} {:>8} {:>12} {:>12} {:>12} {:>12}",
                    name,
                    s.count,
                    fmt_ns(s.total_ns as f64),
                    fmt_ns(s.mean_ns()),
                    fmt_ns(s.min_ns as f64),
                    fmt_ns(s.max_ns as f64)
                )?;
            }
        }
        if !snapshot.counters.is_empty() {
            let width = name_width(snapshot.counters.iter().map(|(n, _)| n.as_str()), 44);
            writeln!(w, "counters")?;
            for (name, value) in &snapshot.counters {
                writeln!(w, "  {name:<width$} {value:>16}")?;
            }
        }
        if !snapshot.gauges.is_empty() {
            let width = name_width(snapshot.gauges.iter().map(|(n, _)| n.as_str()), 44);
            writeln!(w, "gauges")?;
            for (name, value) in &snapshot.gauges {
                writeln!(w, "  {name:<width$} {value:>16.3}")?;
            }
        }
        if !snapshot.meters.is_empty() {
            let width = name_width(snapshot.meters.iter().map(|(n, _)| n.as_str()), 44);
            writeln!(w, "meters")?;
            for (name, m) in &snapshot.meters {
                writeln!(
                    w,
                    "  {name:<width$} {:>16} {:>14.1}/s",
                    m.count, m.rate_per_sec
                )?;
            }
        }
        if !snapshot.histograms.is_empty() {
            let width = name_width(snapshot.histograms.iter().map(|(n, _)| n.as_str()), 32);
            writeln!(w, "histograms")?;
            for (name, h) in &snapshot.histograms {
                writeln!(
                    w,
                    "  {:<width$} n={} min={} max={} mean={:.1} p50={:.1} p90={:.1} p99={:.1}",
                    name,
                    h.count,
                    h.min.unwrap_or(0),
                    h.max.unwrap_or(0),
                    if h.count > 0 {
                        h.sum as f64 / h.count as f64
                    } else {
                        0.0
                    },
                    h.p50().unwrap_or(0.0),
                    h.p90().unwrap_or(0.0),
                    h.p99().unwrap_or(0.0)
                )?;
                for &(lo, hi, n) in &h.buckets {
                    writeln!(w, "    [{lo:>12}, {hi:>12})  {n}")?;
                }
            }
        }
        w.flush()
    }
}

/// The name-column width of one table section: at least `min`, widened
/// to the longest name so long names never push values out of column.
fn name_width<'a>(names: impl Iterator<Item = &'a str>, min: usize) -> usize {
    names.map(str::len).max().unwrap_or(0).max(min)
}

/// Discards everything (keeps call sites unconditional).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn write_snapshot(&mut self, _snapshot: &Snapshot) -> io::Result<()> {
        Ok(())
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Serializes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes an `f64` as JSON (JSON has no NaN/Inf; they become null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps round-trip precision and always includes a decimal
        // point or exponent, so the value parses back as a float.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("sim.cache.llc.miss").add(512);
        r.gauge("stream.samples_per_sec").set(1.25e7);
        r.histogram("detect.event_width_samples").record(12);
        r.span_stat("detect.normalize").record_ns(81_532);
        r.snapshot()
    }

    #[test]
    fn jsonl_lines_are_valid_json_shape() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.write_snapshot(&sample_snapshot()).unwrap();
        let out = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(out.lines().count(), 4);
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
            // Balanced braces and quotes (cheap structural check).
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        }
        assert!(out.contains("\"name\":\"sim.cache.llc.miss\",\"value\":512"));
        assert!(out.contains("\"type\":\"span\""));
        assert!(out.contains("\"buckets\":[{\"lo\":8,\"hi\":16,\"n\":1}]"));
    }

    #[test]
    fn pretty_table_mentions_every_metric() {
        let mut sink = PrettyTableSink::new(Vec::new());
        sink.write_snapshot(&sample_snapshot()).unwrap();
        let out = String::from_utf8(sink.into_inner()).unwrap();
        for name in [
            "sim.cache.llc.miss",
            "stream.samples_per_sec",
            "detect.event_width_samples",
            "detect.normalize",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn null_sink_accepts_anything() {
        NullSink.write_snapshot(&sample_snapshot()).unwrap();
    }

    #[test]
    fn jsonl_escapes_hostile_metric_names() {
        let r = Registry::new();
        r.counter("evil\"name\nwith\\stuff").add(1);
        r.meter("meter\twith\tcontrol\u{1}").mark(2);
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.write_snapshot(&r.snapshot()).unwrap();
        let out = String::from_utf8(sink.into_inner()).unwrap();
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            // The raw control characters must never survive into output.
            assert!(!line.contains('\u{1}'), "{line}");
            let unescaped = line.replace("\\\"", "");
            assert_eq!(unescaped.matches('"').count() % 2, 0, "{line}");
        }
        assert!(out.contains("evil\\\"name\\nwith\\\\stuff"));
        assert!(out.contains("\"type\":\"meter\""));
        assert!(out.contains("\"rate_per_sec\":"));
    }

    #[test]
    fn pretty_table_aligns_names_longer_than_headers() {
        let long = "an.extremely.long.metric.name.that.exceeds.every.fixed.header.width";
        let r = Registry::new();
        r.counter(long).add(1);
        r.counter("short").add(22);
        r.gauge(long).set(1.0);
        r.span_stat(long).record_ns(10);
        r.span_stat("tiny").record_ns(10);
        let mut sink = PrettyTableSink::new(Vec::new());
        sink.write_snapshot(&r.snapshot()).unwrap();
        let out = String::from_utf8(sink.into_inner()).unwrap();
        // Within each section, every value column starts at the same
        // offset: the end position of the first value field must agree
        // between the long-name row and the short-name row.
        let counter_rows: Vec<&str> = out
            .lines()
            .skip_while(|l| *l != "counters")
            .skip(1)
            .take(2)
            .collect();
        assert_eq!(counter_rows.len(), 2);
        let ends: Vec<usize> = counter_rows
            .iter()
            .map(|row| row.trim_end().len())
            .collect();
        assert_eq!(ends[0], ends[1], "counter value columns misaligned:\n{out}");
        let span_rows: Vec<&str> = out
            .lines()
            .skip(1) // header line of the spans section
            .take_while(|l| l.starts_with("  "))
            .collect();
        let count_col: Vec<usize> = span_rows.iter().map(|row| row.trim_end().len()).collect();
        assert!(
            count_col.windows(2).all(|w| w[0] == w[1]),
            "span columns misaligned:\n{out}"
        );
    }

    #[test]
    fn pretty_table_reports_meters_and_quantiles() {
        let r = Registry::new();
        r.meter("meter.samples_in").mark(1000);
        for _ in 0..50 {
            r.histogram("lat").record(100);
        }
        let mut sink = PrettyTableSink::new(Vec::new());
        sink.write_snapshot(&r.snapshot()).unwrap();
        let out = String::from_utf8(sink.into_inner()).unwrap();
        assert!(out.contains("meters"), "{out}");
        assert!(out.contains("meter.samples_in"), "{out}");
        assert!(out.contains("p50=100.0"), "{out}");
        assert!(out.contains("p99=100.0"), "{out}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("plain.name"), "\"plain.name\"");
    }

    #[test]
    fn json_f64_is_parseable_float() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        let v: f64 = json_f64(1.25e7).parse().unwrap();
        assert_eq!(v, 1.25e7);
    }

    #[test]
    fn trace_jsonl_includes_drop_marker() {
        let events = vec![crate::span::TraceEvent {
            name: "detect.normalize",
            start_ns: 5,
            dur_ns: 100,
        }];
        let mut buf = Vec::new();
        write_trace_jsonl(&mut buf, &events, 3).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("\"type\":\"trace\""));
        assert!(out.contains("\"type\":\"trace_dropped\",\"count\":3"));
    }
}
