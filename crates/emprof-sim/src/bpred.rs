//! Branch prediction.
//!
//! The baseline pipeline models the paper's simple in-order cores with a
//! fixed taken-branch redirect penalty ("perfect prediction, visible
//! redirect"), which is what gives loops their periodic signal texture.
//! This module adds a classic bimodal predictor as an *opt-in* extension
//! ([`crate::DeviceModel::branch_predictor`]): correctly predicted
//! branches fetch through with a short redirect, mispredictions pay a
//! pipeline refill. The `ablate_branch_predictor` bench quantifies how
//! prediction quality changes both performance and the signal EMPROF
//! sees — mispredict bubbles are a second (shorter) class of dips.

/// Configuration of the bimodal predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpredConfig {
    /// Number of two-bit counters (power of two).
    pub entries: usize,
    /// Extra fetch-bubble cycles on a misprediction (on top of the
    /// device's base taken-branch redirect).
    pub mispredict_penalty: u64,
}

impl Default for BpredConfig {
    fn default() -> Self {
        BpredConfig {
            entries: 1024,
            mispredict_penalty: 6,
        }
    }
}

impl BpredConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if `entries` is not a nonzero power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries == 0 || !self.entries.is_power_of_two() {
            return Err(format!(
                "predictor entries must be a nonzero power of two, got {}",
                self.entries
            ));
        }
        Ok(())
    }
}

/// A bimodal (two-bit saturating counter) branch predictor.
///
/// # Example
///
/// ```
/// use emprof_sim::bpred::{BimodalPredictor, BpredConfig};
///
/// let mut p = BimodalPredictor::new(BpredConfig::default());
/// // A loop branch: after two taken outcomes the predictor follows.
/// p.update(0x100, true);
/// p.update(0x100, true);
/// assert!(p.predict(0x100));
/// ```
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    /// Two-bit counters: 0,1 predict not-taken; 2,3 predict taken.
    counters: Vec<u8>,
}

impl BimodalPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BpredConfig::validate`].
    pub fn new(config: BpredConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid predictor configuration: {e}"));
        BimodalPredictor {
            counters: vec![1; config.entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Predicts whether the branch at `pc` is taken.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Records the actual outcome and returns whether the prediction made
    /// beforehand was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.counters[idx] >= 2;
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        predicted == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_steady_loop() {
        let mut p = BimodalPredictor::new(BpredConfig::default());
        // 100 taken outcomes: after warm-up every prediction is correct.
        let mut correct = 0;
        for _ in 0..100 {
            if p.update(0x40, true) {
                correct += 1;
            }
        }
        assert!(correct >= 98, "correct {correct}");
        assert!(p.predict(0x40));
    }

    #[test]
    fn loop_exit_mispredicts_once() {
        let mut p = BimodalPredictor::new(BpredConfig::default());
        for _ in 0..50 {
            p.update(0x40, true);
        }
        // The single not-taken exit is a misprediction...
        assert!(!p.update(0x40, false));
        // ...but one outcome does not flip a saturated counter.
        assert!(p.predict(0x40));
    }

    #[test]
    fn alternating_pattern_defeats_bimodal() {
        let mut p = BimodalPredictor::new(BpredConfig::default());
        // Bimodal cannot learn strict alternation: ~50% of the outcomes
        // the pipeline sees from `update` are mispredictions.
        let wrong = (0..1000).filter(|i| !p.update(0x80, i % 2 == 0)).count();
        assert!(wrong > 400, "{wrong} mispredictions in 1000");
    }

    #[test]
    fn distinct_branches_use_distinct_counters() {
        let mut p = BimodalPredictor::new(BpredConfig::default());
        for _ in 0..10 {
            p.update(0x100, true);
            p.update(0x104, false);
        }
        assert!(p.predict(0x100));
        assert!(!p.predict(0x104));
    }

    #[test]
    fn aliasing_is_bounded_by_table_size() {
        let mut p = BimodalPredictor::new(BpredConfig {
            entries: 4,
            mispredict_penalty: 6,
        });
        // pc 0x0 and pc 0x10 alias in a 4-entry table.
        p.update(0x0, true);
        p.update(0x0, true);
        assert!(p.predict(0x10));
    }

    #[test]
    fn stats_accumulate() {
        // The pipeline counts mispredictions from `update`'s `false`
        // returns: the first outcome meets a weakly not-taken counter,
        // and the exit meets a taken-saturating one.
        let mut p = BimodalPredictor::new(BpredConfig::default());
        let outcomes = [true, true, false];
        let misses = outcomes.iter().filter(|&&t| !p.update(0x40, t)).count();
        assert_eq!(misses, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_entries_panics() {
        BimodalPredictor::new(BpredConfig {
            entries: 3,
            mispredict_penalty: 1,
        });
    }
}
