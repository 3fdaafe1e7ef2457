//! `capture_profile`: offline batch detection of seeded magnitude
//! captures with `profile_magnitude_par` at `nproc` threads.
//!
//! The pool holds [`CAPTURES`] captures of [`CAPTURE_SAMPLES`] samples,
//! tiled from simulated runs (`pool.rs`); one operation profiles one
//! capture. Set-up computes each capture's 1-thread `profile_magnitude` as
//! the reference the parallel result must equal.

use emprof_core::accuracy::count_accuracy;
use emprof_core::{Emprof, EmprofConfig, Parallelism, StallEvent};
use emprof_signal::fused;

use crate::pool::{Pool, Signal};
use crate::speed::HostSpeed;
use crate::trace::Recorder;
use crate::util::{median, nproc, quantile, Rng, CLK, FS};
use crate::{alternate, closed_loop, ratio_of_medians, Measured, Metric, Traced, Workload};

const CAPTURES: usize = 4;
const CAPTURE_SAMPLES: usize = 2_000_000;

pub struct CaptureProfile {
    emprof: Emprof,
    par: Parallelism,
    signals: Vec<Signal>,
    references: Vec<Vec<StallEvent>>,
    stall_accuracy: f64,
}

impl CaptureProfile {
    pub fn setup(seed: u64) -> CaptureProfile {
        let mut rng = Rng::new(seed);
        let pool = Pool::simulate(&mut rng);
        let emprof = Emprof::new(EmprofConfig::for_rates(FS, CLK));
        let signals: Vec<Signal> = (0..CAPTURES)
            .map(|_| pool.signal(&mut rng, CAPTURE_SAMPLES))
            .collect();
        let profiles: Vec<_> = signals
            .iter()
            .map(|s| emprof.profile_magnitude(&s.samples, FS, CLK))
            .collect();
        let reported: f64 = profiles.iter().map(|p| p.total_stall_cycles()).sum();
        let actual: f64 = signals.iter().map(|s| s.stall_cycles).sum();
        CaptureProfile {
            emprof,
            par: Parallelism::new(nproc()),
            signals,
            references: profiles.iter().map(|p| p.events().to_vec()).collect(),
            stall_accuracy: count_accuracy(reported, actual),
        }
    }

    fn op(&self, k: usize, rec: &mut Recorder) -> (bool, f64) {
        let i = k % CAPTURES;
        let samples = &self.signals[i].samples;
        rec.op("op", |rec| {
            let profile = rec.span("core.batch", |_| {
                self.emprof
                    .profile_magnitude_par(samples, FS, CLK, self.par)
            });
            profile.events() == self.references[i].as_slice()
        })
    }
}

impl Workload for CaptureProfile {
    fn measure(&mut self, seconds: f64, speed: HostSpeed) -> Measured {
        let mut rec = Recorder::new(false);
        let mut m = closed_loop(seconds, speed, |k| {
            let (ok, s) = self.op(k, &mut rec);
            (ok, s, CAPTURE_SAMPLES as f64)
        });
        m.stall_accuracy = self.stall_accuracy;
        m.alias("detect_msamples_per_s", m.throughput() / 1e6, "Msamples/s");
        let events: Vec<&StallEvent> = self.references.iter().flatten().collect();
        let durations: Vec<f64> = events.iter().map(|e| e.duration_samples() as f64).collect();
        m.alias(
            "events_per_msample",
            events.len() as f64 / (CAPTURES * CAPTURE_SAMPLES) as f64 * 1e6,
            "1/Msample",
        );
        m.alias("event_p50_samples", median(&durations), "samples");
        m.alias("event_p90_samples", quantile(&durations, 0.9), "samples");
        m
    }

    fn traced(&mut self, seconds: f64, rec: &mut Recorder) -> Traced {
        let mut kernel = Vec::new();
        let cfg = self.emprof.config();
        // Each capture runs once traced and once untraced.
        let mut t = alternate(seconds, 2, rec, |k, rec| {
            let (ok, s) = self.op(k / 2, rec);
            // The 1-thread fused kernel over the same capture, after every
            // operation alike: the base of `core.par_over_fused`.
            rec.set_enabled(true);
            let samples = &self.signals[(k / 2) % CAPTURES].samples;
            let (runs, ks) = rec.op("kernel", |rec| {
                rec.span("signal.fused", |_| {
                    fused::detect_runs(
                        samples,
                        cfg.norm_window_samples,
                        cfg.threshold,
                        cfg.edge_level,
                    )
                })
            });
            kernel.push(ks);
            (ok && runs.is_ok(), s)
        });
        let mb = CAPTURE_SAMPLES as f64 / 1e6;
        let fused_rate = mb / median(&kernel);
        let par_rate = mb / median(&t.traced_op_s);
        t.metrics = vec![
            Metric::new("signal.fused_msamples_per_s", fused_rate, "Msamples/s"),
            Metric::new("core.detect_par_msamples_per_s", par_rate, "Msamples/s"),
            Metric::new(
                "core.par_over_fused",
                ratio_of_medians(&t.traced_op_s, &kernel),
                "ratio",
            ),
        ];
        t.summary = format!(
            "fused 1T {fused_rate:.1} Msamples/s, par {}T {par_rate:.1} Msamples/s \
             (par wall / 1-thread fused-kernel wall {:.2})",
            self.par.get(),
            t.metrics[2].value
        );
        t
    }

    fn corrupt_reference(&mut self) {
        self.references[0].pop();
    }
}
