//! The metric registry and point-in-time snapshots.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::metrics::{
    bucket_quantile, nonzero_log_buckets, Counter, Gauge, LogHistogram, Meter, LOG_BUCKETS,
};
use crate::span::SpanStat;

/// A thread-safe collection of named metrics.
///
/// Handles are `&'static`: registration leaks one small allocation per
/// unique metric name (bounded by the instrumentation vocabulary), which
/// buys lock-free recording forever after — callers cache the handle and
/// never touch the registry lock on the hot path again.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    meters: Mutex<BTreeMap<String, &'static Meter>>,
    histograms: Mutex<BTreeMap<String, &'static LogHistogram>>,
    spans: Mutex<BTreeMap<String, &'static SpanStat>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        Self::intern(&self.counters, name, Counter::new)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        Self::intern(&self.gauges, name, Gauge::new)
    }

    /// The meter named `name`, registering it on first use.
    pub fn meter(&self, name: &str) -> &'static Meter {
        Self::intern(&self.meters, name, Meter::new)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> &'static LogHistogram {
        Self::intern(&self.histograms, name, LogHistogram::new)
    }

    /// The span statistics named `name`, registering them on first use.
    pub fn span_stat(&self, name: &str) -> &'static SpanStat {
        Self::intern(&self.spans, name, SpanStat::new)
    }

    fn intern<T>(
        map: &Mutex<BTreeMap<String, &'static T>>,
        name: &str,
        make: fn() -> T,
    ) -> &'static T {
        let mut guard = map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&existing) = guard.get(name) {
            return existing;
        }
        let leaked: &'static T = Box::leak(Box::new(make()));
        guard.insert(name.to_string(), leaked);
        leaked
    }

    /// Zeroes every registered metric, keeping registrations (and thus
    /// any cached handles) valid.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            g.reset();
        }
        for m in self
            .meters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            m.reset();
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            h.reset();
        }
        for s in self
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            s.reset();
        }
    }

    /// A consistent-enough point-in-time copy of every metric (each
    /// metric is read atomically; the set is read under the name locks).
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let meters = self
            .meters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    MeterSnapshot {
                        count: v.count(),
                        rate_per_sec: v.rate_per_sec(),
                    },
                )
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(_, v)| v.count() > 0)
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            meters,
            histograms,
            spans,
        }
    }
}

/// A point-in-time copy of a registry's metrics, ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every meter.
    pub meters: Vec<(String, MeterSnapshot)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, summary)` for every span with at least one completion.
    pub spans: Vec<(String, SpanSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The summary of span `name`, if it completed at least once.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The summary of meter `name`, if present.
    pub fn meter(&self, name: &str) -> Option<&MeterSnapshot> {
        self.meters.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// The summary of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The `q`-quantile estimate of histogram `name` (`0.0..=1.0`),
    /// interpolated inside its log buckets and clamped to the observed
    /// extrema. `None` when the histogram is absent, empty, or `q` is
    /// out of range.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.histogram(name).and_then(|h| h.quantile(q))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.meters.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Minimum recorded value, if any.
    pub min: Option<u64>,
    /// Maximum recorded value, if any.
    pub max: Option<u64>,
    /// Non-empty buckets as `(low, high, count)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// The snapshot of a log histogram kept as plain counters: bucket `i`
    /// of `buckets` counts the values in
    /// [`LogHistogram::bucket_bounds`]`(i)`, `sum` wraps, and `min` and
    /// `max` are the running extrema, reported only when `count > 0`.
    /// [`LogHistogram::snapshot`] goes through here too, so a fold that
    /// keeps its own counters snapshots exactly as the live histogram.
    pub fn from_log_counts(
        buckets: &[u64; LOG_BUCKETS],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> HistogramSnapshot {
        HistogramSnapshot {
            count,
            sum,
            min: (count > 0).then_some(min),
            max: (count > 0).then_some(max),
            buckets: nonzero_log_buckets(|i| buckets[i]),
        }
    }

    /// The `q`-quantile estimate (`0.0..=1.0`) of the snapshotted
    /// distribution; see [`crate::metrics::LogHistogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(self.count, self.min, self.max, &self.buckets, q)
    }

    /// The median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.9)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// Summary of one meter at snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeterSnapshot {
    /// Total marks.
    pub count: u64,
    /// EWMA mark rate in marks/second at snapshot time.
    pub rate_per_sec: f64,
}

/// Summary of one span's timing at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed executions.
    pub count: u64,
    /// Total wall time across executions, in nanoseconds.
    pub total_ns: u64,
    /// Fastest execution in nanoseconds.
    pub min_ns: u64,
    /// Slowest execution in nanoseconds.
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Mean execution time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x") as *const _;
        let b = r.counter("x") as *const _;
        assert_eq!(a, b);
        assert_ne!(a, r.counter("y") as *const _);
    }

    #[test]
    fn snapshot_reads_values_sorted_by_name() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.gauge("g").set(3.5);
        r.histogram("h").record(7);
        let s = r.snapshot();
        assert_eq!(
            s.counters,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 2)]
        );
        assert_eq!(s.gauge("g"), Some(3.5));
        assert_eq!(s.histograms[0].1.count, 1);
    }

    #[test]
    fn meters_and_quantiles_are_snapshotted() {
        let r = Registry::new();
        r.meter("m.rate").mark(7);
        for v in [8u64, 8, 8, 8, 2000] {
            r.histogram("h").record(v);
        }
        let s = r.snapshot();
        assert_eq!(s.meter("m.rate").unwrap().count, 7);
        assert!(s.meter("m.rate").unwrap().rate_per_sec >= 0.0);
        assert_eq!(s.meter("missing"), None);
        let p50 = s.histogram_quantile("h", 0.5).unwrap();
        assert!((8.0..=16.0).contains(&p50), "p50 {p50}");
        let p99 = s.histogram_quantile("h", 0.99).unwrap();
        assert!(p99 <= 2000.0 && p99 >= p50, "p99 {p99}");
        assert_eq!(s.histogram_quantile("missing", 0.5), None);
        assert!(!s.is_empty());
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("c");
        c.add(10);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("c"), Some(1));
    }
}
