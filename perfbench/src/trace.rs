//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's calls into each layer, never
//! inside the program. Each span stores its name, start, end, parent and
//! the id of the operation it belongs to; they stay in memory and are
//! written out as JSON lines when the run ends. A span's self time is its
//! duration minus the time its child spans cover, so within one operation
//! the self times of all its spans add up exactly to the root's duration:
//! the root's own self time is the part no layer span accounts for.
//!
//! A disabled recorder runs the same closures and records nothing, so an
//! untraced operation executes the same code as a traced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new operation: a root span named `name` with a fresh
    /// operation id. Returns the result and the operation's wall time in
    /// seconds, measured the same way whether or not recording is on.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        debug_assert!(self.stack.is_empty(), "operations do not nest");
        self.op += 1;
        let t0 = Instant::now();
        let r = self.span(name, f);
        (r, t0.elapsed().as_secs_f64())
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns() - c)
            .collect()
    }

    /// Count, wall and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.wall_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Operations (root spans) whose spans' self times do not add up to
    /// the root's wall time. Zero unless a span escaped its parent.
    pub fn unbalanced_ops(&self) -> usize {
        let mut sum: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            *sum.entry(s.op).or_default() += self_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && sum.get(&s.op) != Some(&s.dur_ns()))
            .count()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut rec = Recorder::new(true);
        for _ in 0..3 {
            rec.op("op", |rec| {
                spin(20_000);
                rec.span("a", |rec| {
                    spin(50_000);
                    rec.span("b", |_| spin(30_000));
                });
                rec.span("c", |_| spin(10_000));
            });
        }
        assert_eq!(rec.spans().len(), 12);
        assert_eq!(rec.unbalanced_ops(), 0);
        let t = rec.totals();
        assert_eq!(t["b"].count, 3);
        assert_eq!(t["a"].wall_ns - t["a"].self_ns, t["b"].wall_ns);
        let self_sum: u64 = t.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, t["op"].wall_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.op("op", |rec| rec.span("a", |_| 7));
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
