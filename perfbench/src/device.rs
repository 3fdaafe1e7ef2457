//! `device_profile`: the closed-loop sim → capture → magnitude → detect
//! chain on the SPEC-like `mcf` (pointer chasing) and `parser` (three
//! phases) specs, Olimex device model, 40 MHz receiver, one thread.
//!
//! One operation profiles one seeded `mcf` run and one seeded `parser`
//! run. Set-up runs every item once, scores it against simulator
//! ground truth and records the streaming detector's events over the same
//! magnitude as the reference each operation must reproduce.

use emprof_core::accuracy::{count_accuracy, AccuracyReport};
use emprof_core::{Emprof, EmprofConfig, Profile, StallEvent, StreamingEmprof};
use emprof_emsim::{Receiver, ReceiverConfig};
use emprof_sim::{DeviceModel, SimResult, SimStats, Simulator};
use emprof_workloads::spec::WorkloadSpec;

use crate::speed::HostSpeed;
use crate::trace::Recorder;
use crate::util::Rng;
use crate::{alternate, closed_loop, Measured, Metric, Traced, Workload};

/// Seeded (mcf, parser) pairs; operations cycle over them.
const PAIRS: usize = 3;
/// Spec scale factors: ~0.3 M simulated cycles per spec run.
const MCF_SCALE: f64 = 0.002;
const PARSER_SCALE: f64 = 0.003;
const BANDWIDTH_HZ: f64 = 40e6;

struct Item {
    spec: WorkloadSpec,
    capture_seed: u64,
    stats: SimStats,
    reference: Vec<StallEvent>,
    capture_samples: usize,
    power_bytes: usize,
}

/// What one pipeline pass produced.
struct Pass {
    stats: SimStats,
    profile: Profile,
    capture_samples: usize,
    power_bytes: usize,
}

pub struct DeviceProfile {
    chain: Chain,
    items: Vec<Item>,
    stall_accuracy: f64,
}

/// The device, receiver and detector every simulated capture goes
/// through.
pub struct Chain {
    device: DeviceModel,
    receiver: Receiver,
    emprof: Emprof,
}

impl Chain {
    pub fn olimex() -> Chain {
        let device = DeviceModel::olimex();
        Chain {
            receiver: Receiver::new(ReceiverConfig::paper_setup(BANDWIDTH_HZ)),
            emprof: Emprof::new(EmprofConfig::for_rates(BANDWIDTH_HZ, device.clock_hz)),
            device,
        }
    }

    /// One seeded `mcf` and one seeded `parser` spec, each with the seed
    /// of its capture.
    pub fn seeded_pair(rng: &mut Rng) -> [(WorkloadSpec, u64); 2] {
        [
            WorkloadSpec::mcf().scaled(MCF_SCALE),
            WorkloadSpec::parser().scaled(PARSER_SCALE),
        ]
        .map(|spec| (spec.with_seed(rng.next_u64()), rng.next_u64()))
    }

    /// Simulates `spec` and captures it: the run and its magnitude.
    pub fn simulate(&self, spec: &WorkloadSpec, capture_seed: u64) -> (SimResult, Vec<f64>) {
        let sim = Simulator::new(self.device.clone()).run(spec.source());
        let magnitude = self.receiver.capture(&sim.power, capture_seed).magnitude();
        (sim, magnitude)
    }
}

impl DeviceProfile {
    pub fn setup(seed: u64) -> DeviceProfile {
        let chain = Chain::olimex();
        let mut rng = Rng::new(seed);
        let (mut reported, mut actual) = (0.0, 0.0);
        let mut items = Vec::new();
        for _ in 0..PAIRS {
            for (spec, capture_seed) in Chain::seeded_pair(&mut rng) {
                let (sim, magnitude) = chain.simulate(&spec, capture_seed);
                let profile =
                    chain
                        .emprof
                        .profile_capture(&magnitude, BANDWIDTH_HZ, chain.device.clock_hz);
                let score = AccuracyReport::against_ground_truth(&profile, &sim.ground_truth, None);
                reported += score.reported_stall_cycles;
                actual += score.actual_stall_cycles;
                let mut streaming = StreamingEmprof::new(
                    chain.emprof.config(),
                    BANDWIDTH_HZ,
                    chain.device.clock_hz,
                );
                streaming.extend_from_slice(&magnitude);
                items.push(Item {
                    spec,
                    capture_seed,
                    stats: sim.stats,
                    reference: streaming.finish().events().to_vec(),
                    capture_samples: magnitude.len(),
                    power_bytes: sim.power.len() * std::mem::size_of::<f32>(),
                });
            }
        }
        DeviceProfile {
            chain,
            items,
            stall_accuracy: count_accuracy(reported, actual),
        }
    }

    fn pass(&self, item: &Item, rec: &mut Recorder) -> Pass {
        let chain = &self.chain;
        let sim = rec.span("sim", |_| {
            Simulator::new(chain.device.clone()).run(item.spec.source())
        });
        let capture = rec.span("emsim.capture", |_| {
            chain.receiver.capture(&sim.power, item.capture_seed)
        });
        let magnitude = rec.span("emsim.magnitude", |_| capture.magnitude());
        let profile = rec.span("core.profile", |_| {
            chain.emprof.profile_capture(
                &magnitude,
                capture.sample_rate_hz(),
                chain.device.clock_hz,
            )
        });
        Pass {
            stats: sim.stats,
            profile,
            capture_samples: magnitude.len(),
            power_bytes: sim.power.len() * std::mem::size_of::<f32>(),
        }
    }

    /// One operation: profile pair `k`. Returns whether both runs matched
    /// their references, the simulated cycles and the captured samples.
    fn op(&self, k: usize, rec: &mut Recorder) -> ((bool, u64, usize), f64) {
        let pair = &self.items[2 * (k % PAIRS)..2 * (k % PAIRS) + 2];
        rec.op("op", |rec| {
            let mut ok = true;
            let (mut cycles, mut samples) = (0, 0);
            for item in pair {
                let pass = self.pass(item, rec);
                ok &= pass.stats == item.stats
                    && pass.profile.events() == item.reference.as_slice()
                    && pass.capture_samples == item.capture_samples
                    && pass.power_bytes == item.power_bytes;
                cycles += pass.stats.cycles;
                samples += pass.capture_samples;
            }
            (ok, cycles, samples)
        })
    }
}

impl Workload for DeviceProfile {
    fn measure(&mut self, seconds: f64, speed: HostSpeed) -> Measured {
        let mut rec = Recorder::new(false);
        let mut m = closed_loop(seconds, speed, |k| {
            let ((ok, cycles, _), s) = self.op(k, &mut rec);
            (ok, s, cycles as f64)
        });
        m.stall_accuracy = self.stall_accuracy;
        m.alias("profile_mcycles_per_s", m.throughput() / 1e6, "Mcycles/s");
        m.alias("profile_stall_accuracy", m.stall_accuracy, "ratio");
        m
    }

    fn traced(&mut self, seconds: f64, rec: &mut Recorder) -> Traced {
        let (mut cycles, mut capture_samples) = (0u64, 0usize);
        // Each pair runs once traced and once untraced.
        let mut t = alternate(seconds, 2, rec, |k, rec| {
            let ((ok, c, n), s) = self.op(k / 2, rec);
            if rec.is_enabled() {
                cycles += c;
                capture_samples += n;
            }
            (ok, s)
        });
        let tot = rec.totals();
        let op_ns = tot["op"].wall_ns as f64;
        let sim = tot["sim"];
        let capture = tot["emsim.capture"];
        let sum =
            |f: fn(&SimStats) -> u64| self.items.iter().map(|it| f(&it.stats)).sum::<u64>() as f64;
        t.metrics = vec![
            Metric::new(
                "sim.mcycles_per_s",
                cycles as f64 / (sim.self_ns as f64 / 1e3),
                "Mcycles/s",
            ),
            Metric::new("sim.self_frac", sim.self_ns as f64 / op_ns, "ratio"),
            Metric::new("sim.cycles", sum(|s| s.cycles), "count"),
            Metric::new("sim.instructions", sum(|s| s.instructions), "count"),
            Metric::new("sim.llc_misses", sum(|s| s.llc_misses), "count"),
            Metric::new(
                "sim.power_trace_mib",
                self.items
                    .iter()
                    .map(|it| it.power_bytes)
                    .max()
                    .unwrap_or(0) as f64
                    / (1 << 20) as f64,
                "MiB",
            ),
            Metric::new(
                "emsim.capture_msamples_per_s",
                capture_samples as f64 / (capture.self_ns as f64 / 1e3),
                "Msamples/s",
            ),
            Metric::new(
                "emsim.capture_self_frac",
                capture.self_ns as f64 / op_ns,
                "ratio",
            ),
            Metric::new(
                "emsim.magnitude_ms",
                per_call_ms(tot["emsim.magnitude"]),
                "ms",
            ),
            Metric::new("core.profile_ms", per_call_ms(tot["core.profile"]), "ms"),
            Metric::new(
                "core.events",
                self.items
                    .iter()
                    .map(|it| it.reference.len())
                    .sum::<usize>() as f64,
                "count",
            ),
        ];
        t.summary = format!(
            "sim {:.2} Mcycles/s, capture {:.1} Msamples/s, detect {:.2} ms/run",
            t.metrics[0].value,
            t.metrics[6].value,
            per_call_ms(tot["core.profile"])
        );
        t
    }

    /// Breaks the reference the first pair is checked against.
    fn corrupt_reference(&mut self) {
        self.items[0].reference.pop();
    }
}

fn per_call_ms(t: crate::trace::Totals) -> f64 {
    t.wall_ns as f64 / t.count.max(1) as f64 / 1e6
}
