//! Golden fingerprints of the generator → simulator → receiver chain.
//!
//! Every SPEC-like preset, at a small scale, is hashed three ways: the
//! instruction stream its [`TraceGen`](emprof_workloads::spec::TraceGen)
//! emits, the [`SimResult`] of running it (power-trace bits, ground truth,
//! DRAM trace, stats) and the capture bits the receiver makes of that
//! power trace at each of the paper's bandwidths. Two presets also run on
//! every device model, so each cache geometry is covered.
//!
//! The runs the generator does not drive are pinned too: the
//! interpreted microbenchmark points, IoT kernels and array walks, and
//! the multi-phase boot sequence, each on the Olimex and SESC-like
//! models, hashed as their instruction stream and [`SimResult`].
//!
//! The hashes pin the exact output of these layers: a speed-up of the
//! generator, the pipeline, the caches or the resampler must leave every
//! one of them unchanged. A mismatch prints the whole table as it was
//! computed.

use emprof_emsim::{Receiver, ReceiverConfig, PAPER_BANDWIDTHS_HZ};
use emprof_sim::isa::Program;
use emprof_sim::{DeviceModel, InstructionSource, Interpreter, SimResult, Simulator};
use emprof_workloads::array_walk::{ArrayWalkConfig, MissLevel};
use emprof_workloads::boot::boot_sequence;
use emprof_workloads::iot;
use emprof_workloads::microbench::MicrobenchConfig;
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

fn stream_hash(mut src: impl InstructionSource) -> u64 {
    let mut h = Fnv::new();
    while let Some(inst) = src.next_inst() {
        h.debug(&inst);
    }
    h.0
}

fn sim_hash(spec: &WorkloadSpec, sim: &SimResult) -> u64 {
    let markers = (0..spec.phases.len() as u32).map(|i| MARKER_REGION_BASE + i);
    sim_hash_with_markers(sim, markers)
}

/// Hashes a [`SimResult`], with the cycles of the `markers` given.
fn sim_hash_with_markers(sim: &SimResult, markers: impl Iterator<Item = u32>) -> u64 {
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
    for id in markers {
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
        stream_hash(spec.source()),
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

/// `(device, run, stream, sim)` for one run the generator does not drive,
/// or one that crosses several phases.
type RunRow = (&'static str, &'static str, u64, u64);

/// Every marker id a program or a boot phase carries.
const MARKER_IDS: std::ops::Range<u32> = 0..MARKER_REGION_BASE + 8;

/// The interpreted programs: the paper's microbenchmark points, the IoT
/// kernels and the array walk at each miss level, sized for `device`'s
/// caches (two passes with short per-element work, to keep the run small).
fn programs(device: &DeviceModel) -> Vec<(&'static str, Program)> {
    let points = [
        "micro-256-1",
        "micro-256-5",
        "micro-1024-10",
        "micro-4096-50",
    ];
    let mut runs: Vec<(&'static str, Program)> = points
        .into_iter()
        .zip(MicrobenchConfig::paper_points())
        .map(|(name, cfg)| (name, cfg.build().unwrap()))
        .collect();
    runs.push(("sensor_filter", iot::sensor_filter(16, 64, 600).unwrap()));
    runs.push(("block_transfer", iot::block_transfer(8).unwrap()));
    runs.push(("table_crypto", iot::table_crypto(400, 8 << 20, 40).unwrap()));
    for (name, level) in [
        ("walk-l1", MissLevel::L1Resident),
        ("walk-llc-hit", MissLevel::LlcHit),
        ("walk-llc-miss", MissLevel::LlcMiss),
    ] {
        let mut cfg =
            ArrayWalkConfig::for_level(level, device.l1d.size_bytes, device.llc.size_bytes);
        cfg.passes = 2;
        cfg.work_iters = 4;
        runs.push((name, cfg.build().unwrap()));
    }
    runs
}

fn run_fingerprints(device: &DeviceModel) -> Vec<RunRow> {
    let sim = Simulator::new(device.clone());
    let mut rows: Vec<RunRow> = programs(device)
        .iter()
        .map(|(name, program)| {
            let result = sim.run(Interpreter::new(program));
            (
                device.name,
                *name,
                stream_hash(Interpreter::new(program)),
                sim_hash_with_markers(&result, MARKER_IDS),
            )
        })
        .collect();
    let boot = boot_sequence(7, 0.01);
    let result = sim.run(boot.source());
    rows.push((
        device.name,
        "boot",
        stream_hash(boot.source()),
        sim_hash_with_markers(&result, MARKER_IDS),
    ));
    rows
}

fn check_runs(got: &[RunRow], want: &[RunRow]) {
    if got != want {
        let table: String = got
            .iter()
            .map(|(d, w, a, b)| format!("    ({d:?}, {w:?}, {a:#018x}, {b:#018x}),\n"))
            .collect();
        panic!("fingerprints changed; computed:\n{table}");
    }
}

/// Recorded before the pipeline's fetch queue became a block buffer.
const RUNS_ON_OLIMEX: &[RunRow] = &[
    (
        "olimex",
        "micro-256-1",
        0xf0aac501cc750cd3,
        0xa9d4649d15f35e03,
    ),
    (
        "olimex",
        "micro-256-5",
        0xf8402e282ba18a88,
        0x6e60101cf3417511,
    ),
    (
        "olimex",
        "micro-1024-10",
        0xaf3ae0019e7de60a,
        0x727b3c5daf51b9a3,
    ),
    (
        "olimex",
        "micro-4096-50",
        0x6d934ed9456cfc86,
        0x007a2675e124ac69,
    ),
    (
        "olimex",
        "sensor_filter",
        0x12169f97c9840c72,
        0x4446bbfd8040b609,
    ),
    (
        "olimex",
        "block_transfer",
        0x562f3d5ede1ede82,
        0x7dfacb32dc94fa7c,
    ),
    (
        "olimex",
        "table_crypto",
        0xcadc2740d308819d,
        0xc1cfbd47490aa863,
    ),
    ("olimex", "walk-l1", 0x653f5c6293fe3e87, 0xe9e5ff1ecfe819eb),
    (
        "olimex",
        "walk-llc-hit",
        0x3a963f60530a728f,
        0x402de8b3247793a1,
    ),
    (
        "olimex",
        "walk-llc-miss",
        0x16e4ee487844b1b3,
        0x42275d541972dad0,
    ),
    ("olimex", "boot", 0xd56eea0813458f5d, 0x580381fb69057690),
];

const RUNS_ON_SESC_LIKE: &[RunRow] = &[
    (
        "sesc-sim",
        "micro-256-1",
        0xf0aac501cc750cd3,
        0xef26bfe63c723b42,
    ),
    (
        "sesc-sim",
        "micro-256-5",
        0xf8402e282ba18a88,
        0x0d4d22fb539dc3e0,
    ),
    (
        "sesc-sim",
        "micro-1024-10",
        0xaf3ae0019e7de60a,
        0x941bec008dfe833f,
    ),
    (
        "sesc-sim",
        "micro-4096-50",
        0x6d934ed9456cfc86,
        0xde7f08f6042df3b8,
    ),
    (
        "sesc-sim",
        "sensor_filter",
        0x12169f97c9840c72,
        0xcf47247c5e4374b2,
    ),
    (
        "sesc-sim",
        "block_transfer",
        0x562f3d5ede1ede82,
        0x8e605236ba179432,
    ),
    (
        "sesc-sim",
        "table_crypto",
        0xcadc2740d308819d,
        0x7d51f97b02257495,
    ),
    (
        "sesc-sim",
        "walk-l1",
        0x653f5c6293fe3e87,
        0xbeb1afc8a7e395cf,
    ),
    (
        "sesc-sim",
        "walk-llc-hit",
        0x3a963f60530a728f,
        0xa868dec94a189d08,
    ),
    (
        "sesc-sim",
        "walk-llc-miss",
        0x16e4ee487844b1b3,
        0x61b6927fe5270d23,
    ),
    ("sesc-sim", "boot", 0xd56eea0813458f5d, 0xcb1092e00b5ea6b2),
];

#[test]
fn interpreted_and_boot_runs_match_their_golden_fingerprints_on_olimex() {
    check_runs(&run_fingerprints(&DeviceModel::olimex()), RUNS_ON_OLIMEX);
}

#[test]
fn interpreted_and_boot_runs_match_their_golden_fingerprints_on_sesc_like() {
    check_runs(
        &run_fingerprints(&DeviceModel::sesc_like()),
        RUNS_ON_SESC_LIKE,
    );
}
