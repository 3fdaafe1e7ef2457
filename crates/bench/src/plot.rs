//! ASCII plotting for the figure experiments.
//!
//! The paper's figures are oscilloscope-style signal views and
//! histograms; the regeneration binaries render them as terminal plots so
//! the *shape* can be inspected (and asserted on in tests) without a
//! graphics stack.

/// Renders a series as a multi-row ASCII plot of the given height.
///
/// Columns are downsampled to at most `width` buckets (bucket mean).
///
/// # Example
///
/// ```
/// use emprof_bench::plot::ascii_plot;
///
/// let dip: Vec<f64> = (0..100)
///     .map(|i| if (40..60).contains(&i) { 0.0 } else { 1.0 })
///     .collect();
/// let art = ascii_plot(&dip, 40, 5);
/// assert_eq!(art.lines().count(), 5);
/// ```
pub fn ascii_plot(series: &[f64], width: usize, height: usize) -> String {
    assert!(width > 0 && height > 0, "plot dimensions must be nonzero");
    if series.is_empty() {
        return String::new();
    }
    let buckets = bucketize(series, width);
    let lo = buckets.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = buckets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut rows = vec![vec![' '; buckets.len()]; height];
    for (x, &v) in buckets.iter().enumerate() {
        let level = ((v - lo) / span * (height as f64 - 1.0)).round() as usize;
        for (y, row) in rows.iter_mut().enumerate() {
            let row_level = height - 1 - y;
            if row_level == level {
                row[x] = '*';
            } else if row_level < level {
                row[x] = '.';
            }
        }
    }
    rows.into_iter()
        .map(|r| r.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders a one-line sparkline using block characters.
pub fn sparkline(series: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let buckets = bucketize(series, width);
    let lo = buckets.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = buckets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    buckets
        .iter()
        .map(|&v| {
            let idx = ((v - lo) / span * 7.0).round() as usize;
            BLOCKS[idx.min(7)]
        })
        .collect()
}

/// Renders a histogram as horizontal bars, one line per bin.
pub fn histogram_bars(labels: &[String], counts: &[u64], max_bar: usize) -> String {
    assert_eq!(labels.len(), counts.len(), "labels and counts must align");
    let peak = counts.iter().copied().max().unwrap_or(0).max(1);
    let label_w = labels.iter().map(String::len).max().unwrap_or(0);
    labels
        .iter()
        .zip(counts)
        .map(|(label, &c)| {
            let bar = "#".repeat((c as f64 / peak as f64 * max_bar as f64).round() as usize);
            format!("{label:>label_w$} | {bar} {c}")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Downsamples a series to at most `width` bucket means.
fn bucketize(series: &[f64], width: usize) -> Vec<f64> {
    if series.len() <= width {
        return series.to_vec();
    }
    let per = series.len() as f64 / width as f64;
    (0..width)
        .map(|i| {
            let lo = (i as f64 * per) as usize;
            let hi = (((i + 1) as f64 * per) as usize)
                .min(series.len())
                .max(lo + 1);
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_has_requested_dimensions() {
        let s: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let art = ascii_plot(&s, 60, 8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.len() == 60));
    }

    #[test]
    fn flat_series_renders() {
        let art = ascii_plot(&[1.0; 100], 20, 4);
        assert_eq!(art.lines().count(), 4);
    }

    #[test]
    fn sparkline_tracks_levels() {
        let mut s = vec![0.0; 50];
        s.extend(vec![1.0; 50]);
        let line = sparkline(&s, 10);
        let chars: Vec<char> = line.chars().collect();
        assert_eq!(chars.len(), 10);
        assert!(chars[0] < chars[9]);
    }

    #[test]
    fn histogram_bars_scale() {
        let out = histogram_bars(&["0-100".to_string(), "100-200".to_string()], &[10, 5], 20);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].matches('#').count() > lines[1].matches('#').count());
    }

    #[test]
    fn short_series_not_bucketized() {
        assert_eq!(bucketize(&[1.0, 2.0], 10), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_height_panics() {
        ascii_plot(&[1.0], 10, 0);
    }
}
