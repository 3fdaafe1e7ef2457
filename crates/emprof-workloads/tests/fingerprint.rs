//! Golden fingerprints of the generator → simulator → receiver chain.
//!
//! Every SPEC-like preset, at a small scale, is hashed three ways: the
//! instruction stream its [`TraceGen`](emprof_workloads::spec::TraceGen)
//! emits, the [`SimResult`] of running it (power-trace bits, ground truth,
//! DRAM trace, stats) and the capture bits the receiver makes of that
//! power trace at each of the paper's bandwidths. Two presets also run on
//! every device model, so each cache geometry is covered.
//!
//! The hashes pin the exact output of these layers: a speed-up of the
//! generator, the caches or the resampler must leave every one of them
//! unchanged. A mismatch prints the whole table as it was computed.

use emprof_emsim::{Receiver, ReceiverConfig, PAPER_BANDWIDTHS_HZ};
use emprof_sim::{DeviceModel, InstructionSource, SimResult, Simulator};
use emprof_workloads::spec::WorkloadSpec;
use emprof_workloads::MARKER_REGION_BASE;

/// Phase-length scale: 40 M-instruction presets become ~120 k instructions.
const SCALE: f64 = 0.003;
const CAPTURE_SEED: u64 = 0x5EED;

/// FNV-1a, 64-bit: fixed and dependency-free, unlike `DefaultHasher`,
/// whose algorithm may change between Rust releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

fn stream_hash(spec: &WorkloadSpec) -> u64 {
    let mut h = Fnv::new();
    let mut src = spec.source();
    while let Some(inst) = src.next_inst() {
        h.debug(&inst);
    }
    h.0
}

fn sim_hash(spec: &WorkloadSpec, sim: &SimResult) -> u64 {
    let mut h = Fnv::new();
    for s in sim.power.samples() {
        h.bytes(&s.to_bits().to_le_bytes());
    }
    h.u64(sim.power.clock_hz().to_bits());
    for miss in sim.ground_truth.misses() {
        h.debug(miss);
    }
    for stall in sim.ground_truth.stalls() {
        h.debug(stall);
    }
    for id in (0..spec.phases.len() as u32).map(|i| MARKER_REGION_BASE + i) {
        h.u64(u64::from(id));
        for &cycle in sim.ground_truth.marker_cycles(id) {
            h.u64(cycle);
        }
    }
    for ev in sim.cas_trace.events() {
        h.u64(ev.start_ns.to_bits());
        h.u64(ev.duration_ns.to_bits());
        h.debug(&ev.kind);
    }
    h.debug(&sim.stats);
    h.0
}

fn capture_hash(sim: &SimResult, bandwidths: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for &b in bandwidths {
        let capture =
            Receiver::new(ReceiverConfig::paper_setup(b)).capture(&sim.power, CAPTURE_SEED);
        for c in capture.iq() {
            h.u64(c.re.to_bits());
            h.u64(c.im.to_bits());
        }
    }
    h.0
}

/// `(device, preset, stream, sim, capture)` for one run.
type Row = (&'static str, &'static str, u64, u64, u64);

fn fingerprint(device: &DeviceModel, spec: &WorkloadSpec) -> Row {
    let sim = Simulator::new(device.clone()).run(spec.source());
    // The receiver cannot resolve above the device clock.
    let bandwidths: Vec<f64> = PAPER_BANDWIDTHS_HZ
        .into_iter()
        .filter(|&b| b <= device.clock_hz)
        .collect();
    (
        device.name,
        spec.name,
        stream_hash(spec),
        sim_hash(spec, &sim),
        capture_hash(&sim, &bandwidths),
    )
}

fn check(got: &[Row], want: &[Row]) {
    if got != want {
        let table: String = got
            .iter()
            .map(|(d, w, a, b, c)| {
                format!("    ({d:?}, {w:?}, {a:#018x}, {b:#018x}, {c:#018x}),\n")
            })
            .collect();
        panic!("fingerprints changed; computed:\n{table}");
    }
}

/// Recorded before the division-free simulator and resampler kernels
/// went in; they must never change unless an output is meant to.
const SPEC_ON_OLIMEX: &[Row] = &[
    (
        "olimex",
        "ammp",
        0x8e66c18bc8e882a5,
        0xa89025b76e182356,
        0x515e14e55d9d0378,
    ),
    (
        "olimex",
        "bzip2",
        0x8847f0ad6e24a697,
        0x84f4b976be3599bd,
        0xd98f78216b80081f,
    ),
    (
        "olimex",
        "crafty",
        0x2c8e4524141b22a6,
        0xdfb6a464580114af,
        0x571080c56556d5b7,
    ),
    (
        "olimex",
        "equake",
        0x73d8f34293de3f71,
        0xf341b6b189770737,
        0xd346d020ad5d1c29,
    ),
    (
        "olimex",
        "gzip",
        0x0fabcdc7660a53c9,
        0x7697f63117c61593,
        0xcaed0cc681a902ab,
    ),
    (
        "olimex",
        "mcf",
        0xa64086a2ece54a15,
        0x2ec14991872702e8,
        0xdd7ee34e33e24b47,
    ),
    (
        "olimex",
        "parser",
        0xe324d9cb792596e2,
        0x1f46f5c34ba64656,
        0x0edaa4a734881c1c,
    ),
    (
        "olimex",
        "twolf",
        0x3fde897d22eaa35d,
        0x6602c3694de132c6,
        0x1fd5508afb4d5e3c,
    ),
    (
        "olimex",
        "vortex",
        0xfe405e48f99a2205,
        0x0323ba18c98e5e9f,
        0x2ee42b9333435787,
    ),
    (
        "olimex",
        "vpr",
        0x3f811f072b340b81,
        0x12119507418373be,
        0xf7cb2ac8c12fa319,
    ),
];

const PAIR_ON_EVERY_DEVICE: &[Row] = &[
    (
        "sesc-sim",
        "mcf",
        0xa64086a2ece54a15,
        0xe7ddec5ee8878b0b,
        0x32a9f2508fc7d316,
    ),
    (
        "sesc-sim",
        "parser",
        0xe324d9cb792596e2,
        0xc5f21a74a42d4500,
        0xad05f76abcd63484,
    ),
    (
        "sesc-mlp",
        "mcf",
        0xa64086a2ece54a15,
        0x94e4751b6d42203f,
        0xc0d60c9e5d2e184f,
    ),
    (
        "sesc-mlp",
        "parser",
        0xe324d9cb792596e2,
        0x2aa6673ac5527793,
        0x4287fee7bc20b010,
    ),
    (
        "alcatel",
        "mcf",
        0xa64086a2ece54a15,
        0x8e655132812daec4,
        0x22353fdb28cbd2d7,
    ),
    (
        "alcatel",
        "parser",
        0xe324d9cb792596e2,
        0x9329b82f4089a019,
        0x6937de8b675cbf5a,
    ),
    (
        "samsung",
        "mcf",
        0xa64086a2ece54a15,
        0xd7b7df11f76efe28,
        0xb96151ed738ecd21,
    ),
    (
        "samsung",
        "parser",
        0xe324d9cb792596e2,
        0x3f7bfdeb279836cd,
        0x3482d0bb02b13e60,
    ),
];

#[test]
fn every_preset_matches_its_golden_fingerprint() {
    let olimex = DeviceModel::olimex();
    let got: Vec<Row> = WorkloadSpec::all_spec2000()
        .into_iter()
        .map(|spec| fingerprint(&olimex, &spec.scaled(SCALE)))
        .collect();
    check(&got, SPEC_ON_OLIMEX);
}

#[test]
fn every_device_matches_its_golden_fingerprint() {
    let mut got = Vec::new();
    for device in [
        DeviceModel::sesc_like(),
        DeviceModel::mlp_capable(),
        DeviceModel::alcatel(),
        DeviceModel::samsung(),
    ] {
        for spec in [WorkloadSpec::mcf(), WorkloadSpec::parser()] {
            got.push(fingerprint(&device, &spec.scaled(SCALE)));
        }
    }
    check(&got, PAIR_ON_EVERY_DEVICE);
}
