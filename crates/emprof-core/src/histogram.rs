//! Fixed-width histograms for stall-latency distributions (Fig. 11).

/// A histogram over `[0, max)` with fixed-width bins plus an overflow bin.
///
/// # Example
///
/// ```
/// use emprof_core::Histogram;
///
/// let h = Histogram::from_values([50.0, 150.0, 150.0, 9000.0], 100.0, 1000.0);
/// assert_eq!(h.count(0), 1);      // 50 in [0, 100)
/// assert_eq!(h.count(1), 2);      // both 150s in [100, 200)
/// assert_eq!(h.overflow(), 1);    // 9000 beyond max
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bins: Vec<u64>,
    overflow: u64,
    bin_width: u64,
}

impl Histogram {
    /// Builds a histogram from an iterator of values.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width <= 0` or `max <= 0`.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I, bin_width: f64, max: f64) -> Self {
        assert!(
            bin_width > 0.0,
            "bin width must be positive, got {bin_width}"
        );
        assert!(max > 0.0, "histogram range must be positive, got {max}");
        let num_bins = (max / bin_width).ceil() as usize;
        let mut bins = vec![0u64; num_bins];
        let mut overflow = 0;
        for v in values {
            if v < 0.0 {
                continue; // negative latencies cannot occur; ignore defensively
            }
            let idx = (v / bin_width) as usize;
            if idx < num_bins {
                bins[idx] += 1;
            } else {
                overflow += 1;
            }
        }
        Histogram {
            bins,
            overflow,
            bin_width: bin_width as u64,
        }
    }

    /// Count in bin `i` (covering `[i*w, (i+1)*w)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_bins()`.
    pub fn count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// All in-range bins.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Values at or beyond the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of in-range bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Total observations, including overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow
    }

    /// Lower edge of bin `i`.
    pub fn bin_start(&self, i: usize) -> u64 {
        self.bin_width * i as u64
    }

    /// Fraction of observations in bins at or above `from_bin` (tail mass,
    /// including overflow) — how "thick" the latency tail is, the
    /// cross-device comparison of Fig. 11.
    pub fn tail_fraction(&self, from_bin: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let tail: u64 = self.bins[from_bin.min(self.bins.len())..]
            .iter()
            .sum::<u64>()
            + self.overflow;
        tail as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_edges_are_half_open() {
        let h = Histogram::from_values([0.0, 99.9, 100.0], 100.0, 300.0);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn overflow_counted() {
        let h = Histogram::from_values([1000.0, 299.0], 100.0, 300.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn negative_values_ignored() {
        let h = Histogram::from_values([-5.0, 5.0], 10.0, 100.0);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn tail_fraction() {
        let h = Histogram::from_values([10.0, 10.0, 10.0, 250.0, 900.0], 100.0, 500.0);
        assert!((h.tail_fraction(2) - 2.0 / 5.0).abs() < 1e-12);
        assert!((h.tail_fraction(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::from_values(std::iter::empty(), 100.0, 500.0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.tail_fraction(0), 0.0);
    }

    #[test]
    fn bin_starts() {
        let h = Histogram::from_values(std::iter::empty(), 50.0, 200.0);
        assert_eq!(h.num_bins(), 4);
        assert_eq!(h.bin_start(3), 150);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_panics() {
        Histogram::from_values([1.0], 0.0, 10.0);
    }
}
