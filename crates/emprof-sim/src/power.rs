//! Unit-level activity power model.
//!
//! Section III-B: the paper collects "the average power consumption for
//! each 20-cycle interval" from the simulator and treats it as the
//! side-channel signal. This module charges per-event energies as the
//! pipeline reports activity and produces a per-cycle power trace; the
//! paper's 20-cycle averaging is [`PowerTrace::averaged`].
//!
//! The absolute numbers are arbitrary units — EMPROF normalizes the signal
//! before detection — but the *ratios* matter: a fully-stalled cycle burns
//! only clock-tree and leakage power, a busy 4-wide cycle several times
//! more, which is precisely the contrast EMPROF detects (Fig. 1).

/// Per-event energy weights (arbitrary units per event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Baseline burned every cycle regardless of activity (clock tree +
    /// leakage). This is the "stall floor" of the signal.
    pub base: f64,
    /// Per instruction fetched from the I$.
    pub fetch: f64,
    /// Per simple ALU/branch instruction issued.
    pub alu: f64,
    /// Per multiply issued.
    pub mul: f64,
    /// Per load/store issued (address generation + L1 access).
    pub mem: f64,
    /// Per LLC access (on L1 misses).
    pub llc: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // Busy 4-wide cycle: base + ~4*(fetch+alu) ~ 5x the stall floor,
        // matching the qualitative contrast of Figs. 1-2.
        PowerModel {
            base: 1.0,
            fetch: 0.25,
            alu: 0.55,
            mul: 0.85,
            mem: 0.70,
            llc: 0.50,
        }
    }
}

/// Events observed in one cycle; the pipeline fills one of these per cycle
/// and hands it to [`PowerTraceBuilder::record`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleActivity {
    /// Instructions fetched this cycle.
    pub fetched: u32,
    /// Simple ALU/branch instructions issued.
    pub alu_issued: u32,
    /// Multiplies issued.
    pub mul_issued: u32,
    /// Memory operations issued.
    pub mem_issued: u32,
    /// LLC accesses started.
    pub llc_accesses: u32,
}

impl CycleActivity {
    /// Total instructions issued this cycle.
    pub fn issued(&self) -> u32 {
        self.alu_issued + self.mul_issued + self.mem_issued
    }
}

/// The power sample of one cycle with the given activity.
fn sample(m: &PowerModel, activity: &CycleActivity) -> f32 {
    let p = m.base
        + m.fetch * activity.fetched as f64
        + m.alu * activity.alu_issued as f64
        + m.mul * activity.mul_issued as f64
        + m.mem * activity.mem_issued as f64
        + m.llc * activity.llc_accesses as f64;
    p as f32
}

/// Entries of the power table. An index holds, from the low bits, 3 bits
/// of fetched, 3 of ALU, 2 of multiply, 1 of memory and 2 of LLC counts:
/// every count of a 4-wide core with one memory port, but for rare
/// multiply and LLC bursts.
const TABLE_LEN: usize = 1 << 11;

/// The power-table index of `activity`, or `None` when a count is too
/// large for its field.
#[inline]
fn table_index(a: &CycleActivity) -> Option<usize> {
    if (a.fetched | a.alu_issued) >> 3 | a.mul_issued >> 2 | a.mem_issued >> 1 | a.llc_accesses >> 2
        != 0
    {
        return None;
    }
    let index =
        a.fetched | a.alu_issued << 3 | a.mul_issued << 6 | a.mem_issued << 8 | a.llc_accesses << 9;
    Some(index as usize)
}

/// Accumulates per-cycle power samples.
#[derive(Debug, Clone)]
pub struct PowerTraceBuilder {
    model: PowerModel,
    /// The sample of every activity inside the table's bounds, at its
    /// [`table_index`].
    table: Box<[f32]>,
    samples: Vec<f32>,
}

impl PowerTraceBuilder {
    /// Creates a builder with the given weights.
    pub fn new(model: PowerModel) -> Self {
        let table = (0..TABLE_LEN as u32)
            .map(|index| {
                let field = |shift: u32, bits: u32| index >> shift & ((1 << bits) - 1);
                let activity = CycleActivity {
                    fetched: field(0, 3),
                    alu_issued: field(3, 3),
                    mul_issued: field(6, 2),
                    mem_issued: field(8, 1),
                    llc_accesses: field(9, 2),
                };
                sample(&model, &activity)
            })
            .collect();
        PowerTraceBuilder {
            model,
            table,
            samples: Vec::new(),
        }
    }

    /// Converts one cycle's activity into a power sample and appends it:
    /// a table lookup, or the model's weighted sum for counts outside
    /// the table.
    #[inline]
    pub fn record(&mut self, activity: &CycleActivity) {
        let p = match table_index(activity) {
            Some(index) => self.table[index],
            None => sample(&self.model, activity),
        };
        self.samples.push(p);
    }

    /// Appends `cycles` idle samples at once: bit-identical to `cycles`
    /// calls of [`PowerTraceBuilder::record`] with
    /// `CycleActivity::default()`, which is how the pipeline records a
    /// skipped stretch of fully-stalled cycles.
    pub fn record_repeat(&mut self, cycles: usize) {
        let idle = sample(&self.model, &CycleActivity::default());
        self.samples.resize(self.samples.len() + cycles, idle);
    }

    /// Finalizes the trace.
    pub fn finish(self, clock_hz: f64) -> PowerTrace {
        PowerTrace {
            samples: self.samples,
            clock_hz,
        }
    }

    /// Cycles recorded so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A per-cycle power trace tagged with the clock it was sampled at.
///
/// This is the simulator-side stand-in for the captured EM signal: the
/// EM-synthesis crate consumes it as the emission envelope, and EMPROF can
/// also analyze it directly (the paper's Section V-C validation path).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    samples: Vec<f32>,
    clock_hz: f64,
}

impl PowerTrace {
    /// Wraps raw per-cycle samples.
    pub fn from_samples(samples: Vec<f32>, clock_hz: f64) -> Self {
        PowerTrace { samples, clock_hz }
    }

    /// Per-cycle samples.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// The simulated core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Trace length in cycles.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Averages the trace over `cycles_per_sample`-cycle intervals — the
    /// paper's "average power consumption for each 20-cycle interval",
    /// giving a 50 MHz-equivalent signal for a 1 GHz core. The trailing
    /// partial interval, if any, is averaged over its actual length.
    ///
    /// Returns the averaged samples as `f64` together with the effective
    /// sample rate in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_sample == 0`.
    pub fn averaged(&self, cycles_per_sample: usize) -> (Vec<f64>, f64) {
        assert!(cycles_per_sample > 0, "cycles_per_sample must be nonzero");
        let out: Vec<f64> = self
            .samples
            .chunks(cycles_per_sample)
            .map(|c| c.iter().map(|&v| v as f64).sum::<f64>() / c.len() as f64)
            .collect();
        (out, self.clock_hz / cycles_per_sample as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cycles_sit_at_base() {
        let mut b = PowerTraceBuilder::new(PowerModel::default());
        b.record(&CycleActivity::default());
        let trace = b.finish(1e9);
        assert!((trace.samples()[0] as f64 - PowerModel::default().base).abs() < 1e-6);
    }

    #[test]
    fn busy_cycles_burn_more() {
        let mut b = PowerTraceBuilder::new(PowerModel::default());
        b.record(&CycleActivity::default());
        b.record(&CycleActivity {
            fetched: 4,
            alu_issued: 3,
            mem_issued: 1,
            ..Default::default()
        });
        let trace = b.finish(1e9);
        let stall = trace.samples()[0];
        let busy = trace.samples()[1];
        assert!(
            busy > 3.0 * stall,
            "busy ({busy}) should dwarf stall ({stall})"
        );
    }

    /// Weights whose sums round differently from the default ones.
    const WEIGHTED: PowerModel = PowerModel {
        base: 0.37,
        fetch: 0.11,
        alu: 0.9,
        mul: 1.3,
        mem: 0.05,
        llc: 2.2,
    };

    #[test]
    fn record_equals_sample_inside_and_just_outside_the_table() {
        // Every count up to one past its field's range, so each field
        // leaves the table alone, and a few far outside it.
        let mut activities = Vec::new();
        for fetched in 0..9 {
            for alu_issued in 0..9 {
                for mul_issued in 0..5 {
                    for mem_issued in 0..3 {
                        for llc_accesses in 0..5 {
                            activities.push(CycleActivity {
                                fetched,
                                alu_issued,
                                mul_issued,
                                mem_issued,
                                llc_accesses,
                            });
                        }
                    }
                }
            }
        }
        let inside = activities
            .iter()
            .filter(|a| table_index(a).is_some())
            .count();
        assert_eq!(
            inside, TABLE_LEN,
            "the table holds every tuple in its bounds"
        );
        activities.push(CycleActivity {
            fetched: 64,
            alu_issued: 1,
            ..Default::default()
        });
        activities.push(CycleActivity {
            llc_accesses: 1 << 20,
            ..Default::default()
        });
        for model in [PowerModel::default(), WEIGHTED] {
            let mut b = PowerTraceBuilder::new(model);
            for a in &activities {
                b.record(a);
            }
            let trace = b.finish(1e9);
            for (a, got) in activities.iter().zip(trace.samples()) {
                let want = sample(&model, a);
                assert_eq!(got.to_bits(), want.to_bits(), "model {model:?}, {a:?}");
            }
        }
    }

    #[test]
    fn record_repeat_equals_repeated_idle_records() {
        for model in [PowerModel::default(), WEIGHTED] {
            for n in [0, 1, 7, 300] {
                let mut stepped = PowerTraceBuilder::new(model);
                let mut repeated = PowerTraceBuilder::new(model);
                let busy = CycleActivity {
                    fetched: 2,
                    alu_issued: 1,
                    ..Default::default()
                };
                stepped.record(&busy);
                repeated.record(&busy);
                for _ in 0..n {
                    stepped.record(&CycleActivity::default());
                }
                repeated.record_repeat(n);
                let bits = |b: PowerTraceBuilder| -> Vec<u32> {
                    b.finish(1e9)
                        .samples()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(stepped), bits(repeated), "model {model:?}, n {n}");
            }
        }
    }

    #[test]
    fn averaged_matches_paper_convention() {
        // 1 GHz trace averaged over 20 cycles -> 50 MHz samples.
        let samples = vec![2.0f32; 200];
        let trace = PowerTrace::from_samples(samples, 1e9);
        let (avg, rate) = trace.averaged(20);
        assert_eq!(avg.len(), 10);
        assert!((rate - 50e6).abs() < 1.0);
        assert!(avg.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn averaged_partial_tail() {
        let trace = PowerTrace::from_samples(vec![1.0, 1.0, 1.0, 5.0, 5.0], 1e9);
        let (avg, _) = trace.averaged(3);
        assert_eq!(avg.len(), 2);
        assert!((avg[0] - 1.0).abs() < 1e-9);
        assert!((avg[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn issued_sums_classes() {
        let act = CycleActivity {
            fetched: 4,
            alu_issued: 2,
            mul_issued: 1,
            mem_issued: 1,
            llc_accesses: 0,
        };
        assert_eq!(act.issued(), 4);
    }

    #[test]
    #[should_panic(expected = "cycles_per_sample")]
    fn zero_average_window_panics() {
        PowerTrace::from_samples(vec![1.0], 1e9).averaged(0);
    }
}
