//! The signal pool the long captures of `capture_profile`, `serve_ingest`
//! and `journal_query` are tiled from.
//!
//! Simulating and capturing millions of samples at every set-up would cost
//! seconds, so set-up simulates a few seeded `mcf` and `parser` runs on the
//! chain `device_profile` measures (Olimex model, 40 MHz receiver) and
//! concatenates their magnitudes, whole and in seeded order, until a
//! capture is long enough. Each capture holds every run about equally
//! often, so the mix of `mcf` and `parser` does not vary with the seed.
//! The dips, their depths, durations and rate, the noise and the drift are
//! therefore the ones the simulator and receiver produce; only the order
//! of the runs is drawn. The ground truth of a tiled capture is the
//! simulator's LLC-stall cycles of the runs it holds.

use crate::device::Chain;
use crate::util::{Rng, CLK, FS};

/// Seeded (`mcf`, `parser`) pairs simulated into the pool.
const POOL_PAIRS: usize = 2;

/// A capture tiled from the pool, and its ground truth.
#[derive(Debug, Clone)]
pub struct Signal {
    pub samples: Vec<f64>,
    /// Simulator LLC-stall cycles that start inside the capture.
    pub stall_cycles: f64,
}

/// One simulated run: its magnitude and where its LLC stalls start.
struct Run {
    magnitude: Vec<f64>,
    /// `(start cycle, duration)` of every LLC-miss stall, by start.
    stalls: Vec<(u64, u64)>,
}

impl Run {
    /// Stall cycles of the stalls that start within the first `samples`
    /// samples.
    fn stall_cycles_before(&self, samples: usize) -> f64 {
        let cut = (samples as f64 * CLK / FS) as u64;
        self.stalls
            .iter()
            .take_while(|&&(start, _)| start < cut)
            .map(|&(_, d)| d)
            .sum::<u64>() as f64
    }
}

pub struct Pool {
    runs: Vec<Run>,
}

impl Pool {
    /// Simulates the pool's runs from `rng`.
    pub fn simulate(rng: &mut Rng) -> Pool {
        let chain = Chain::olimex();
        let mut runs = Vec::new();
        for _ in 0..POOL_PAIRS {
            for (spec, capture_seed) in Chain::seeded_pair(rng) {
                let (sim, magnitude) = chain.simulate(&spec, capture_seed);
                let mut stalls: Vec<(u64, u64)> = sim
                    .ground_truth
                    .llc_stalls()
                    .map(|s| (s.start_cycle, s.duration()))
                    .collect();
                stalls.sort_unstable();
                runs.push(Run { magnitude, stalls });
            }
        }
        Pool { runs }
    }

    /// A capture of exactly `len` samples: whole runs dealt from a deck
    /// of every run, shuffled by `rng` and reshuffled when used up, so
    /// every capture holds the pool's runs in equal numbers; the last run
    /// is cut short.
    pub fn signal(&self, rng: &mut Rng, len: usize) -> Signal {
        let mut samples = Vec::with_capacity(len);
        let mut stall_cycles = 0.0;
        let mut deck = Vec::new();
        while samples.len() < len {
            if deck.is_empty() {
                deck.extend(0..self.runs.len());
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.range(0, i + 1));
                }
            }
            let run = &self.runs[deck.pop().expect("refilled above")];
            let take = run.magnitude.len().min(len - samples.len());
            samples.extend_from_slice(&run.magnitude[..take]);
            stall_cycles += run.stall_cycles_before(take);
        }
        Signal {
            samples,
            stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_signal() {
        let a = Pool::simulate(&mut Rng::new(7)).signal(&mut Rng::new(1), 100_000);
        let b = Pool::simulate(&mut Rng::new(7)).signal(&mut Rng::new(1), 100_000);
        let c = Pool::simulate(&mut Rng::new(8)).signal(&mut Rng::new(1), 100_000);
        assert_eq!(a.samples.len(), 100_000);
        assert_eq!(a.samples, b.samples);
        assert_ne!(a.samples, c.samples);
        assert!(a.stall_cycles > 0.0);
    }
}
