//! Splitting a capture into overlapping chunks.
//!
//! A chunk has a *core* range `[start, end)` — the samples this chunk is
//! responsible for producing — and a *padded* range that extends the core
//! by `margin` samples on each side (clipped to the signal). Workers read
//! the padded range and write the core range, so cores tile the signal
//! disjointly while every windowed computation near a seam still sees the
//! same context it would in a single-threaded pass.
//!
//! The margin is chosen by the caller from the largest context any stage
//! needs: `max(norm_window / 2, fir_group_delay)` for the EMPROF analysis
//! chain (DESIGN.md §8 derives why that bound is tight).

/// One chunk of a length-`len` signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Position of this chunk in the plan (0-based, in signal order).
    pub index: usize,
    /// First sample of the core range.
    pub start: usize,
    /// One past the last sample of the core range.
    pub end: usize,
    /// First sample of the padded range (`start` minus the margin,
    /// clipped to 0).
    pub padded_start: usize,
    /// One past the last sample of the padded range (`end` plus the
    /// margin, clipped to the signal length).
    pub padded_end: usize,
}

impl Chunk {
    /// Core width in samples.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the core range is empty (never true for planned chunks).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// An overlap-chunked partition of a signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    chunks: Vec<Chunk>,
    margin: usize,
}

impl ChunkPlan {
    /// Plans up to `max_chunks` near-equal chunks over `len` samples with
    /// the given overlap `margin`.
    ///
    /// Fewer chunks are produced when `len` is too small for every chunk
    /// to hold at least one sample; an empty signal yields an empty plan.
    /// Core ranges tile `[0, len)` exactly: disjoint, ordered, and
    /// covering every sample once.
    pub fn new(len: usize, max_chunks: usize, margin: usize) -> Self {
        let n_chunks = max_chunks.max(1).min(len);
        let mut chunks = Vec::with_capacity(n_chunks);
        if len > 0 {
            // Distribute the remainder over the leading chunks so sizes
            // differ by at most one sample.
            let base = len / n_chunks;
            let extra = len % n_chunks;
            let mut start = 0usize;
            for index in 0..n_chunks {
                let size = base + usize::from(index < extra);
                let end = start + size;
                chunks.push(Chunk {
                    index,
                    start,
                    end,
                    padded_start: start.saturating_sub(margin),
                    padded_end: (end + margin).min(len),
                });
                start = end;
            }
        }
        ChunkPlan { chunks, margin }
    }

    /// The planned chunks, in signal order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn count(&self) -> usize {
        self.chunks.len()
    }

    /// The overlap margin each padded range extends by.
    pub fn margin(&self) -> usize {
        self.margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_tile_the_signal() {
        for (len, chunks, margin) in [
            (100, 4, 10),
            (101, 4, 0),
            (7, 16, 3),
            (1, 1, 5),
            (1000, 3, 999),
        ] {
            let plan = ChunkPlan::new(len, chunks, margin);
            let mut cursor = 0;
            for c in plan.chunks() {
                assert_eq!(c.start, cursor, "gap before chunk {}", c.index);
                assert!(c.end > c.start, "empty chunk {}", c.index);
                assert!(c.padded_start <= c.start && c.padded_end >= c.end);
                assert!(c.padded_end <= len);
                cursor = c.end;
            }
            assert_eq!(cursor, len, "cores must cover the signal");
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let plan = ChunkPlan::new(103, 4, 0);
        let sizes: Vec<usize> = plan.chunks().iter().map(Chunk::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn margins_are_clipped_to_bounds() {
        let plan = ChunkPlan::new(100, 2, 30);
        let c0 = plan.chunks()[0];
        let c1 = plan.chunks()[1];
        assert_eq!(c0.padded_start, 0);
        assert_eq!(c0.padded_end, 80);
        assert_eq!(c1.padded_start, 20);
        assert_eq!(c1.padded_end, 100);
    }

    #[test]
    fn more_chunks_than_samples_degrades_gracefully() {
        let plan = ChunkPlan::new(3, 8, 1);
        assert_eq!(plan.count(), 3);
        assert!(plan.chunks().iter().all(|c| c.len() == 1));
    }

    #[test]
    fn empty_signal_gives_empty_plan() {
        let plan = ChunkPlan::new(0, 4, 10);
        assert_eq!(plan.count(), 0);
    }
}
