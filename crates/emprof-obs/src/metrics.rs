//! Typed metric primitives: counters, gauges, meters, and log-scale
//! histograms.
//!
//! All of them are lock-free atomics so instrumented hot paths never
//! block each other. Counters wrap on overflow (a deliberate choice: a
//! stuck saturated counter is indistinguishable from a merely large one,
//! while wrap-around is detectable from successive snapshots).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry::HistogramSnapshot;

/// A monotonically increasing (wrapping) event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter, wrapping on overflow.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (snapshots are unaffected).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous measurement (`f64`).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at `0.0`.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Resets the gauge to `0.0`.
    pub fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// EWMA fold interval of a [`Meter`], in nanoseconds. Marks accumulate
/// between folds; a fold only happens once at least this much time has
/// passed, so a burst of marks inside one interval counts as one
/// instantaneous-rate observation rather than many.
const METER_TICK_NS: u64 = 100_000_000; // 100 ms

/// EWMA time constant of a [`Meter`], in seconds: after an idle period
/// of this length the rate has decayed to ~37% of its previous value.
const METER_WINDOW_SECS: f64 = 5.0;

/// A windowed-rate meter: a wrapping total count plus an exponentially
/// weighted moving average of the per-second mark rate.
///
/// The EWMA folds lazily on [`Meter::mark`] / [`Meter::rate_per_sec`]
/// calls (no background thread): each fold blends the instantaneous
/// rate observed since the previous fold with the running average using
/// `alpha = 1 - exp(-elapsed / window)`, so the rate converges over a
/// ~5-second horizon (`METER_WINDOW_SECS`) and decays toward zero while
/// the meter is idle but still being read.
#[derive(Debug)]
pub struct Meter {
    count: AtomicU64,
    /// Marks accumulated since the last EWMA fold.
    pending: AtomicU64,
    /// The EWMA rate in marks/second, as `f64` bits.
    rate_bits: AtomicU64,
    /// Nanoseconds from [`meter_epoch`] to the last fold (0 = never).
    last_fold_ns: AtomicU64,
}

/// The process-wide time origin meters measure against. Lazy so
/// `Meter::new` stays `const`.
fn meter_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl Meter {
    /// A meter at zero.
    pub const fn new() -> Self {
        Meter {
            count: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            rate_bits: AtomicU64::new(0),
            last_fold_ns: AtomicU64::new(0),
        }
    }

    /// Records `n` marks, folding the EWMA if a tick has elapsed.
    pub fn mark(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
        self.pending.fetch_add(n, Ordering::Relaxed);
        self.fold();
    }

    /// Total marks since creation or [`Meter::reset`] (wrapping).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The EWMA mark rate in marks/second, folded up to now.
    pub fn rate_per_sec(&self) -> f64 {
        self.fold();
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    /// Folds pending marks into the EWMA when at least one tick has
    /// elapsed. Exactly one caller wins the compare-exchange per tick;
    /// losers leave their marks pending for the winner of the next one.
    fn fold(&self) {
        let now_ns = meter_epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let last = self.last_fold_ns.load(Ordering::Relaxed);
        if last == 0 {
            // First observation: start the clock without claiming a rate
            // (a max(1) keeps 0 meaning "never folded").
            let _ = self.last_fold_ns.compare_exchange(
                0,
                now_ns.max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            return;
        }
        let elapsed_ns = now_ns.saturating_sub(last);
        if elapsed_ns < METER_TICK_NS {
            return;
        }
        if self
            .last_fold_ns
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread is folding this tick
        }
        let taken = self.pending.swap(0, Ordering::Relaxed);
        let elapsed_secs = elapsed_ns as f64 / 1e9;
        let instantaneous = taken as f64 / elapsed_secs;
        let alpha = 1.0 - (-elapsed_secs / METER_WINDOW_SECS).exp();
        let old = f64::from_bits(self.rate_bits.load(Ordering::Relaxed));
        let new = old + alpha * (instantaneous - old);
        self.rate_bits.store(new.to_bits(), Ordering::Relaxed);
    }

    /// Resets the meter to zero (count, pending marks, and rate).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.pending.store(0, Ordering::Relaxed);
        self.rate_bits.store(0, Ordering::Relaxed);
        self.last_fold_ns.store(0, Ordering::Relaxed);
    }
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of buckets in a [`LogHistogram`]: bucket 0 holds zeros, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`, and the last bucket also
/// absorbs everything at or above `2^63`.
pub const LOG_BUCKETS: usize = 65;

/// A base-2 log-scale histogram of `u64` values.
///
/// In the spirit of `emprof_core::Histogram` (the paper's Fig. 11
/// latency distributions) but built for always-on telemetry: fixed
/// storage, lock-free recording, and a dynamic range of the full `u64`
/// space at the cost of power-of-two resolution.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Minimum recorded value (u64::MAX when empty).
    min: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not Copy; a fresh const per array slot is the
        // intended initializer idiom here, not a shared mutable const.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LogHistogram {
            buckets: [ZERO; LOG_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index covering `value`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The `[low, high)` range of bucket `i` (bucket 0 is `[0, 1)`; the
    /// last bucket's `high` saturates to `u64::MAX`).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < LOG_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            (0, 1)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i >= 64 { u64::MAX } else { 1u64 << i };
            (lo, hi)
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Minimum recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (self.count() > 0).then_some(v)
    }

    /// Maximum recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean of recorded values, if any.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(low, high, count)` triples.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        nonzero_log_buckets(|i| self.bucket_count(i))
    }

    /// A point-in-time [`HistogramSnapshot`] of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum();
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets = std::array::from_fn(|i| self.bucket_count(i));
        HistogramSnapshot::from_log_counts(&buckets, count, sum, min, max)
    }

    /// An estimate of the `q`-quantile (`0.0..=1.0`) of the recorded
    /// values: linear interpolation inside the covering log bucket,
    /// clamped to the observed min/max. `None` when empty or `q` is out
    /// of range. See also the convenience [`LogHistogram::p50`],
    /// [`LogHistogram::p90`], and [`LogHistogram::p99`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(
            self.count(),
            self.min(),
            self.max(),
            &self.nonzero_buckets(),
            q,
        )
    }

    /// The median estimate ([`LogHistogram::quantile`] at 0.5).
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

    /// Resets the histogram to empty.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The non-empty buckets of a log histogram whose bucket `i` holds
/// `count(i)` values, as `(low, high, count)` triples.
pub(crate) fn nonzero_log_buckets(count: impl Fn(usize) -> u64) -> Vec<(u64, u64, u64)> {
    (0..LOG_BUCKETS)
        .filter_map(|i| {
            let n = count(i);
            (n > 0).then(|| {
                let (lo, hi) = LogHistogram::bucket_bounds(i);
                (lo, hi, n)
            })
        })
        .collect()
}

/// The shared quantile estimator over `(low, high, count)` bucket
/// triples, used by both the live [`LogHistogram`] and snapshot copies.
///
/// The rank `ceil(q * count)` (at least 1) is located by walking the
/// cumulative counts; the estimate interpolates linearly inside the
/// covering bucket and is clamped to the observed extrema so a quantile
/// can never fall outside `[min, max]`.
pub(crate) fn bucket_quantile(
    count: u64,
    min: Option<u64>,
    max: Option<u64>,
    buckets: &[(u64, u64, u64)],
    q: f64,
) -> Option<f64> {
    if count == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for &(lo, hi, n) in buckets {
        let before = cumulative;
        cumulative = cumulative.saturating_add(n);
        if cumulative >= rank {
            let fraction = if n == 0 {
                0.0
            } else {
                (rank - before) as f64 / n as f64
            };
            let estimate = lo as f64 + fraction * (hi.saturating_sub(lo)) as f64;
            let lo_clamp = min.map_or(estimate, |m| estimate.max(m as f64));
            return Some(max.map_or(lo_clamp, |m| lo_clamp.min(m as f64)));
        }
    }
    // Bucket counts summed short of `count` (snapshot raced a recorder):
    // the best remaining answer is the observed maximum.
    max.map(|m| m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_overflow_wraps() {
        let c = Counter::new();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(3);
        // Wrapping, not saturating: u64::MAX + 3 == 2.
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn gauge_stores_last_value() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        g.set(40e6);
        assert_eq!(g.get(), 40e6);
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // Exhaustive around every boundary: 2^k - 1, 2^k, 2^k + 1.
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        for k in 1..63u32 {
            let v = 1u64 << k;
            assert_eq!(LogHistogram::bucket_index(v - 1), k as usize, "below 2^{k}");
            assert_eq!(LogHistogram::bucket_index(v), k as usize + 1, "at 2^{k}");
            assert_eq!(
                LogHistogram::bucket_index(v + 1),
                k as usize + 1,
                "above 2^{k}"
            );
        }
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_bounds_match_index() {
        for i in 0..LOG_BUCKETS {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert_eq!(LogHistogram::bucket_index(lo), i, "low bound of {i}");
            if hi != u64::MAX {
                assert_eq!(LogHistogram::bucket_index(hi - 1), i, "top of {i}");
                assert_eq!(LogHistogram::bucket_index(hi), i + 1);
            }
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.bucket_count(0), 1); // 0
        assert_eq!(h.bucket_count(1), 1); // 1
        assert_eq!(h.bucket_count(2), 2); // 2, 3
        assert_eq!(h.bucket_count(3), 1); // 4
        assert_eq!(h.bucket_count(10), 1); // 1000 in [512, 1024)
        let nz = h.nonzero_buckets();
        assert_eq!(nz.iter().map(|&(_, _, n)| n).sum::<u64>(), 6);
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = LogHistogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_interpolate_and_stay_within_extrema() {
        let h = LogHistogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!((10.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= 1000.0, "p99 {p99} above max");
        // A single-valued distribution pins every quantile to the value.
        let one = LogHistogram::new();
        for _ in 0..100 {
            one.record(42);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(42.0), "q={q}");
        }
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = LogHistogram::new();
        for v in 0..10_000u64 {
            h.record(v * 7 % 4096);
        }
        let mut prev = 0.0f64;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn meter_counts_and_rates() {
        let m = Meter::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.rate_per_sec(), 0.0);
        m.mark(100);
        m.mark(23);
        assert_eq!(m.count(), 123);
        // Let a full tick pass so the EWMA folds the pending marks.
        std::thread::sleep(std::time::Duration::from_millis(120));
        m.mark(1);
        let rate = m.rate_per_sec();
        assert!(rate > 0.0, "rate {rate} after marks and a tick");
        assert!(rate.is_finite());
        m.reset();
        assert_eq!(m.count(), 0);
        assert_eq!(m.rate_per_sec(), 0.0);
    }

    #[test]
    fn meter_rate_decays_when_idle() {
        let m = Meter::new();
        m.mark(10_000);
        std::thread::sleep(std::time::Duration::from_millis(120));
        m.mark(10_000);
        let busy = m.rate_per_sec();
        assert!(busy > 0.0);
        std::thread::sleep(std::time::Duration::from_millis(250));
        let idle = m.rate_per_sec();
        assert!(
            idle <= busy,
            "idle rate {idle} did not decay from busy rate {busy}"
        );
    }
}
