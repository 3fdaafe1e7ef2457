//! Synthetic stand-ins for the SPEC CPU2000 integer benchmarks.
//!
//! SPEC sources cannot run on the mini-ISA, so each benchmark is replaced
//! by a trace generator reproducing its *memory behaviour class* — the
//! properties the paper's evaluation actually exercises:
//!
//! * a **hot set** (L1-resident) serviced without misses,
//! * a **warm set** whose size straddles the devices' LLC capacities —
//!   this is what makes the 1 MiB-LLC Alcatel miss far less than the
//!   256 KiB devices (Section VI-A),
//! * **cold excursions** that miss every LLC, either *streaming*
//!   (sequential lines — exactly what the Samsung's stride prefetcher
//!   removes) or random (what it cannot),
//! * optional **pointer chasing** (each cold load's address depends on
//!   the previous load, serializing misses — the *mcf* signature),
//! * a **code footprint** and **loop body length** giving each workload
//!   its instruction-cache behaviour and its spectral identity (Fig. 14).
//!
//! Rates are expressed per thousand instructions so a workload's miss
//! intensity is independent of its length. The per-benchmark parameters
//! are tuned so the Olimex-device stall-time percentages land in the
//! bands of Table IV; see EXPERIMENTS.md for measured values.
//!
//! Workloads emit a [`Marker`](emprof_sim::DynOp::Marker) at each phase
//! boundary (`MARKER_REGION_BASE + phase index`), which gives the
//! attribution experiments (Fig. 14 / Table V) their ground-truth region
//! windows.

use emprof_sim::isa::Reg;
use emprof_sim::{DynInst, DynOp, InstructionSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::MARKER_REGION_BASE;

/// Base address of the cold region (shared by all phases; 512 MiB).
pub const COLD_BASE: u64 = 0x4000_0000;
const COLD_BYTES: u64 = 512 << 20;
const HOT_BYTES: u64 = 8 << 10;
/// Line accesses per streaming burst (a scan/copy loop episode).
const STREAM_BURST_LINES: u32 = 24;
/// Instructions between consecutive line accesses inside a burst (the
/// per-element compute of a real scan loop; keeps consecutive miss dips
/// separated in the signal).
const STREAM_SPACING_INSTS: u64 = 500;

/// One execution phase (a "region" in the attribution experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Region name (e.g. a function name for Table V).
    pub name: &'static str,
    /// Dynamic instructions in this phase.
    pub instructions: u64,
    /// First code address of the phase (distinct per phase so regions have
    /// distinct I$ footprints).
    pub code_base: u64,
    /// Code bytes cycled through (drives I$ behaviour).
    pub code_footprint: u64,
    /// Instructions per loop iteration: a taken branch every `loop_body`
    /// instructions gives the region its spectral signature.
    pub loop_body: u64,
    /// One memory operation every `mem_every` instructions.
    pub mem_every: u64,
    /// Warm working-set size in bytes (LLC-capacity-sensitive misses).
    pub warm_bytes: u64,
    /// Warm-set accesses per thousand instructions.
    pub warm_per_kinst: f64,
    /// Cold-excursion accesses per thousand instructions (miss every LLC).
    pub cold_per_kinst: f64,
    /// Fraction of cold excursions that stream sequentially
    /// (prefetchable) rather than jump randomly.
    pub cold_stream_fraction: f64,
    /// Serialize consecutive cold loads through a register dependency
    /// (pointer chasing).
    pub pointer_chase: bool,
    /// Fraction of memory operations that are stores.
    pub store_fraction: f64,
    /// Instructions between a load and its first use (small = stalls
    /// promptly; large = more latency hidden by ILP).
    pub load_use_distance: u64,
}

impl Phase {
    /// A neutral compute-heavy phase to build presets from.
    pub fn base(name: &'static str, instructions: u64) -> Self {
        Phase {
            name,
            instructions,
            code_base: 0x10_0000,
            code_footprint: 16 << 10,
            loop_body: 32,
            mem_every: 4,
            warm_bytes: 128 << 10,
            warm_per_kinst: 0.1,
            cold_per_kinst: 0.0,
            cold_stream_fraction: 0.0,
            pointer_chase: false,
            store_fraction: 0.25,
            load_use_distance: 3,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.instructions == 0 {
            return Err(format!("phase {}: zero instructions", self.name));
        }
        if self.loop_body < 2 || self.mem_every == 0 {
            return Err(format!(
                "phase {}: loop_body must be >= 2 and mem_every nonzero",
                self.name
            ));
        }
        if self.code_footprint < 64 || !self.code_footprint.is_multiple_of(4) {
            return Err(format!("phase {}: bad code footprint", self.name));
        }
        let warm_lines = self.warm_bytes / 64;
        if warm_lines == 0 || !warm_lines.is_power_of_two() {
            return Err(format!(
                "phase {}: warm set must be a power-of-two number of lines, got {} bytes",
                self.name, self.warm_bytes
            ));
        }
        for (field, v) in [
            ("warm_per_kinst", self.warm_per_kinst),
            ("cold_per_kinst", self.cold_per_kinst),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("phase {}: {field} invalid ({v})", self.name));
            }
        }
        // The per-access probabilities must stay below 1.
        let per_access =
            (self.warm_per_kinst + self.cold_per_kinst) * self.mem_every as f64 / 1000.0;
        if per_access >= 1.0 {
            return Err(format!(
                "phase {}: warm+cold rates imply probability {per_access} >= 1",
                self.name
            ));
        }
        if !(0.0..=1.0).contains(&self.cold_stream_fraction)
            || !(0.0..=1.0).contains(&self.store_fraction)
        {
            return Err(format!("phase {}: fractions out of range", self.name));
        }
        if self.load_use_distance == 0 {
            return Err(format!(
                "phase {}: load_use_distance must be >= 1",
                self.name
            ));
        }
        Ok(())
    }
}

/// A complete workload: named phases plus a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (as reported in the tables).
    pub name: &'static str,
    /// Phases executed in order.
    pub phases: Vec<Phase>,
    /// Seed for the generator's randomness.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Total dynamic instructions across phases.
    pub fn instructions(&self) -> u64 {
        self.phases.iter().map(|p| p.instructions).sum()
    }

    /// Rescales every phase length by `factor` (for quick tests vs full
    /// benchmark runs).
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive, got {factor}");
        for p in &mut self.phases {
            p.instructions = ((p.instructions as f64 * factor) as u64).max(1000);
        }
        self
    }

    /// Replaces the seed (distinct seeds give run-to-run variation, e.g.
    /// the two boot runs of Fig. 13).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates every phase.
    ///
    /// # Errors
    ///
    /// Returns the first phase error.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("workload {} has no phases", self.name));
        }
        for p in &self.phases {
            p.validate()?;
        }
        Ok(())
    }

    /// Creates the instruction source for this workload.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn source(&self) -> TraceGen {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid workload spec: {e}"));
        TraceGen::new(self.clone())
    }

    /// The phase index ranges as `(name, start_instruction)` pairs, for
    /// aligning region ground truth.
    pub fn phase_names(&self) -> Vec<&'static str> {
        self.phases.iter().map(|p| p.name).collect()
    }
}

macro_rules! preset {
    ($fn_name:ident, $name:literal, $doc:literal, |$p:ident| $body:expr) => {
        #[doc = $doc]
        pub fn $fn_name() -> WorkloadSpec {
            let mut $p = Phase::base($name, 40_000_000);
            $body;
            WorkloadSpec {
                name: $name,
                phases: vec![$p],
                seed: 0xC0FFEE,
            }
        }
    };
}

impl WorkloadSpec {
    preset!(
        ammp,
        "ammp",
        "Molecular dynamics: mid-size working set with scattered cold reads.",
        |p| {
            p.code_base = 0x11_0000;
            p.code_footprint = 24 << 10;
            p.loop_body = 40;
            p.warm_bytes = 512 << 10;
            p.warm_per_kinst = 0.45;
            p.cold_per_kinst = 0.045;
            p.cold_stream_fraction = 0.2;
            p.load_use_distance = 2;
        }
    );

    preset!(
        bzip2,
        "bzip2",
        "Block-sorting compression: heavy sequential streaming over large buffers.",
        |p| {
            p.code_base = 0x12_0000;
            p.code_footprint = 20 << 10;
            p.loop_body = 18;
            p.warm_bytes = 512 << 10;
            p.warm_per_kinst = 0.25;
            p.cold_per_kinst = 0.06;
            p.cold_stream_fraction = 0.9;
            p.load_use_distance = 6;
            p.store_fraction = 0.3;
        }
    );

    preset!(
        crafty,
        "crafty",
        "Chess search: large code footprint, small data working set.",
        |p| {
            p.code_base = 0x13_0000;
            p.code_footprint = 80 << 10;
            p.loop_body = 70;
            p.warm_bytes = 256 << 10;
            p.warm_per_kinst = 0.10;
            p.cold_per_kinst = 0.02;
            p.load_use_distance = 3;
        }
    );

    preset!(
        equake,
        "equake",
        "FE earthquake simulation: streaming sweeps over large meshes.",
        |p| {
            p.code_base = 0x14_0000;
            p.code_footprint = 16 << 10;
            p.loop_body = 24;
            p.warm_bytes = 512 << 10;
            p.warm_per_kinst = 0.20;
            p.cold_per_kinst = 0.12;
            p.cold_stream_fraction = 0.95;
            p.load_use_distance = 5;
        }
    );

    preset!(
        gzip,
        "gzip",
        "LZ77 compression: small window, modest streaming.",
        |p| {
            p.code_base = 0x15_0000;
            p.code_footprint = 16 << 10;
            p.loop_body = 14;
            p.warm_bytes = 256 << 10;
            p.warm_per_kinst = 0.07;
            p.cold_per_kinst = 0.021;
            p.cold_stream_fraction = 0.8;
            p.load_use_distance = 6;
            p.store_fraction = 0.3;
        }
    );

    preset!(
        mcf,
        "mcf",
        "Network simplex: pointer chasing through a multi-megabyte graph; \
         the only workload whose working set defeats even the Alcatel's \
         1 MiB LLC.",
        |p| {
            p.code_base = 0x16_0000;
            p.code_footprint = 12 << 10;
            p.loop_body = 30;
            p.warm_bytes = 2 << 20;
            p.warm_per_kinst = 0.09;
            p.cold_per_kinst = 0.004;
            p.pointer_chase = true;
            p.load_use_distance = 1;
        }
    );

    preset!(
        twolf,
        "twolf",
        "Place and route: random probes into mid-size tables.",
        |p| {
            p.code_base = 0x18_0000;
            p.code_footprint = 28 << 10;
            p.loop_body = 48;
            p.warm_bytes = 512 << 10;
            p.warm_per_kinst = 0.15;
            p.cold_per_kinst = 0.0;
            p.load_use_distance = 2;
        }
    );

    preset!(
        vortex,
        "vortex",
        "Object database: large code, store-heavy object churn.",
        |p| {
            p.code_base = 0x19_0000;
            p.code_footprint = 64 << 10;
            p.loop_body = 110;
            p.warm_bytes = 256 << 10;
            p.warm_per_kinst = 0.30;
            p.cold_per_kinst = 0.015;
            p.store_fraction = 0.35;
            p.load_use_distance = 3;
        }
    );

    preset!(
        vpr,
        "vpr",
        "FPGA place/route (test input): nearly cache-resident.",
        |p| {
            p.code_base = 0x1A_0000;
            p.code_footprint = 24 << 10;
            p.loop_body = 56;
            p.warm_bytes = 256 << 10;
            p.warm_per_kinst = 0.05;
            p.cold_per_kinst = 0.006;
            p.load_use_distance = 4;
        }
    );

    /// Natural-language parser: the paper's attribution example (Fig. 14,
    /// Table V) with three phases mirroring `read_dictionary`,
    /// `init_randtable`, and `batch_process`. The phases differ in loop
    /// period and miss intensity, so they separate both spectrally and in
    /// the profile: `batch_process` dominates misses and stall time.
    pub fn parser() -> WorkloadSpec {
        let mut read_dictionary = Phase::base("read_dictionary", 10_000_000);
        read_dictionary.code_base = 0x17_0000;
        read_dictionary.code_footprint = 20 << 10;
        read_dictionary.loop_body = 180;
        read_dictionary.mem_every = 6;
        read_dictionary.warm_bytes = 512 << 10;
        read_dictionary.warm_per_kinst = 0.30;
        read_dictionary.cold_per_kinst = 0.03;
        read_dictionary.cold_stream_fraction = 0.7;
        read_dictionary.load_use_distance = 2;

        let mut init_randtable = Phase::base("init_randtable", 6_000_000);
        init_randtable.code_base = 0x17_8000;
        init_randtable.code_footprint = 4 << 10;
        init_randtable.loop_body = 420;
        init_randtable.warm_bytes = 128 << 10;
        init_randtable.warm_per_kinst = 0.0;
        init_randtable.cold_per_kinst = 0.008;
        init_randtable.store_fraction = 0.6;
        init_randtable.load_use_distance = 5;

        let mut batch_process = Phase::base("batch_process", 24_000_000);
        batch_process.code_base = 0x17_C000;
        batch_process.code_footprint = 32 << 10;
        batch_process.loop_body = 90;
        batch_process.mem_every = 3;
        batch_process.warm_bytes = 512 << 10;
        batch_process.warm_per_kinst = 0.80;
        batch_process.cold_per_kinst = 0.10;
        batch_process.cold_stream_fraction = 0.1;
        batch_process.load_use_distance = 2;

        WorkloadSpec {
            name: "parser",
            phases: vec![read_dictionary, init_randtable, batch_process],
            seed: 0xC0FFEE,
        }
    }

    /// The ten SPEC CPU2000 workloads of Tables III/IV, in the paper's
    /// row order.
    pub fn all_spec2000() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::ammp(),
            WorkloadSpec::bzip2(),
            WorkloadSpec::crafty(),
            WorkloadSpec::equake(),
            WorkloadSpec::gzip(),
            WorkloadSpec::mcf(),
            WorkloadSpec::parser(),
            WorkloadSpec::twolf(),
            WorkloadSpec::vortex(),
            WorkloadSpec::vpr(),
        ]
    }
}

/// Address-class roll for one memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddrClass {
    Hot,
    Warm,
    Cold,
}

/// The trace generator: turns a [`WorkloadSpec`] into a dynamic
/// instruction stream for the simulator.
#[derive(Debug, Clone)]
pub struct TraceGen {
    spec: WorkloadSpec,
    rng: StdRng,
    phase_idx: usize,
    /// A copy of the current phase, taken at its marker.
    phase: Phase,
    /// [`TraceGen::pick_class`]'s cumulative roll cut-points for the
    /// current phase: stream burst, cold, warm.
    cuts: [f64; 3],
    inst_in_phase: u64,
    /// `inst_in_phase % loop_body` and `inst_in_phase % mem_every`,
    /// advanced with every instruction instead of divided out.
    loop_pos: u64,
    mem_pos: u64,
    marker_pending: bool,
    hot_counter: u64,
    stream_addr: u64,
    /// Full-coverage warm-set cursor (bit-reversal permutation index).
    warm_idx: u64,
    /// Remaining line accesses in the current streaming burst.
    stream_burst_left: u32,
    /// Instructions until the next in-burst stream access.
    stream_cooldown: u64,
    /// Code-locality state: byte offset of the loop currently executing.
    loop_offset: u64,
    /// Loop iterations remaining before moving to another loop.
    dwell_left: u64,
    /// The last ALU destination's index into the twelve ALU registers,
    /// always below 12 (so it advances and offsets by compare-and-wrap,
    /// not by a remainder on the generator's serial path).
    alu_rot: u8,
    load_rot: u8,
    /// (instruction index due, register) for the next load-use.
    pending_use: Option<(u64, Reg)>,
    last_cold_load: Option<Reg>,
    last_mem_was_cold: bool,
    total_emitted: u64,
}

/// Register carrying a stable base address (never written by the
/// generator, so always ready).
const BASE_REG: Reg = Reg(31);

/// `(rot + by) % 12` for an ALU register index `rot < 12` and `by < 12`.
fn alu_reg_after(rot: u8, by: u8) -> u8 {
    let next = rot + by;
    if next >= 12 {
        next - 12
    } else {
        next
    }
}

/// The cumulative roll cut-points of [`TraceGen::pick_class`] for a phase.
fn roll_cuts(p: &Phase) -> [f64; 3] {
    let per_access = p.mem_every as f64 / 1000.0;
    let cold_total = p.cold_per_kinst * per_access;
    // Streaming cold traffic arrives in scan-loop bursts (a stable
    // load site walking sequential lines — what a stride prefetcher
    // can learn); random cold excursions arrive individually.
    let stream_trigger = cold_total * p.cold_stream_fraction / STREAM_BURST_LINES as f64;
    let cold_rand = cold_total * (1.0 - p.cold_stream_fraction);
    let warm_p = p.warm_per_kinst * per_access;
    [
        stream_trigger,
        stream_trigger + cold_rand,
        stream_trigger + cold_rand + warm_p,
    ]
}

impl TraceGen {
    fn new(spec: WorkloadSpec) -> Self {
        let seed = spec.seed;
        let phase = spec.phases[0];
        TraceGen {
            spec,
            rng: StdRng::seed_from_u64(seed),
            phase_idx: 0,
            phase,
            cuts: roll_cuts(&phase),
            inst_in_phase: 0,
            loop_pos: 0,
            mem_pos: 0,
            marker_pending: true,
            hot_counter: 0,
            stream_addr: COLD_BASE,
            warm_idx: 0,
            stream_burst_left: 0,
            stream_cooldown: 0,
            loop_offset: 0,
            dwell_left: 0,
            alu_rot: 0,
            load_rot: 0,
            pending_use: None,
            last_cold_load: None,
            last_mem_was_cold: false,
            total_emitted: 0,
        }
    }

    /// Total dynamic instructions emitted so far (markers excluded).
    pub fn emitted(&self) -> u64 {
        self.total_emitted
    }

    /// Counts one emitted instruction, advancing the in-phase positions.
    fn advance(&mut self) {
        self.inst_in_phase += 1;
        self.total_emitted += 1;
        self.loop_pos += 1;
        if self.loop_pos == self.phase.loop_body {
            self.loop_pos = 0;
        }
        self.mem_pos += 1;
        if self.mem_pos == self.phase.mem_every {
            self.mem_pos = 0;
        }
    }

    fn next_alu_dst(&mut self) -> Reg {
        self.alu_rot = alu_reg_after(self.alu_rot, 1);
        Reg(1 + self.alu_rot)
    }

    fn next_load_dst(&mut self) -> Reg {
        self.load_rot = (self.load_rot + 1) % 8;
        Reg(16 + self.load_rot)
    }

    fn pick_class(&mut self) -> AddrClass {
        let roll: f64 = self.rng.gen();
        if roll < self.cuts[0] {
            self.stream_burst_left = STREAM_BURST_LINES;
            self.stream_cooldown = 0;
            AddrClass::Hot
        } else if roll < self.cuts[1] {
            AddrClass::Cold
        } else if roll < self.cuts[2] {
            AddrClass::Warm
        } else {
            AddrClass::Hot
        }
    }

    fn address_for(&mut self, class: AddrClass) -> u64 {
        match class {
            AddrClass::Hot => {
                self.hot_counter = self.hot_counter.wrapping_add(1);
                // Hot set lives just above the phase's warm set.
                let hot_base = 0x2000_0000 + self.phase_idx as u64 * 0x100_0000;
                hot_base + (self.hot_counter * 64) % HOT_BYTES
            }
            AddrClass::Warm => {
                // Full-coverage bit-reversal permutation over the warm
                // set: every line is touched once per cycle of the set
                // (so the set actually fits or thrashes the LLC by
                // capacity, the Table IV device effect), while
                // consecutive addresses jump irregularly (defeating the
                // stride prefetcher, unlike a plain sweep).
                let warm_base = 0x3000_0000 + self.phase_idx as u64 * 0x400_0000;
                let lines = self.phase.warm_bytes / 64;
                let k = lines.trailing_zeros();
                let idx = self.warm_idx & (lines - 1);
                self.warm_idx = self.warm_idx.wrapping_add(1);
                let line = if k == 0 {
                    0
                } else {
                    idx.reverse_bits() >> (64 - k)
                };
                warm_base + line * 64
            }
            AddrClass::Cold => {
                let lines = COLD_BYTES / 64;
                COLD_BASE + (self.rng.gen::<u64>() % lines) * 64
            }
        }
    }

    #[inline(always)]
    fn gen_mem_op(&mut self) -> DynOp {
        let class = self.pick_class();
        let addr = self.address_for(class);
        // Stores target the hot set only: a store miss drains through the
        // write buffer without stalling the core (no EM-visible event),
        // so miss-generating traffic is modeled as loads — the access
        // class the paper's stall accounting actually observes.
        let is_store = class == AddrClass::Hot && self.rng.gen::<f64>() < self.phase.store_fraction;
        if is_store {
            let data = Reg(1 + self.alu_rot);
            self.last_mem_was_cold = false;
            DynOp::Store {
                srcs: [Some(data), Some(BASE_REG)],
                addr,
            }
        } else {
            let dst = self.next_load_dst();
            // Pointer chasing: a cold load immediately following another
            // cold load depends on its value.
            let addr_src =
                if self.phase.pointer_chase && class == AddrClass::Cold && self.last_mem_was_cold {
                    self.last_cold_load
                } else {
                    Some(BASE_REG)
                };
            if class == AddrClass::Cold {
                self.last_cold_load = Some(dst);
                self.last_mem_was_cold = true;
            } else {
                self.last_mem_was_cold = false;
            }
            self.pending_use = Some((self.inst_in_phase + self.phase.load_use_distance, dst));
            DynOp::Load {
                dst,
                addr_src,
                addr,
            }
        }
    }

    fn gen_alu(&mut self) -> DynOp {
        let dst = self.next_alu_dst();
        // Consume a due load result, creating the load-use dependency.
        let use_src = match self.pending_use {
            Some((due, reg)) if self.inst_in_phase >= due => {
                self.pending_use = None;
                Some(reg)
            }
            _ => None,
        };
        let other = Reg(1 + alu_reg_after(self.alu_rot, 5));
        DynOp::Alu {
            dst: Some(dst),
            srcs: [use_src.or(Some(other)), None],
        }
    }

    /// Hands the next instruction of the stream to `push`, or returns
    /// `false` after the last phase: the one emitter behind both
    /// [`InstructionSource`] methods, so a block holds exactly the
    /// instructions, and makes exactly the RNG draws, of as many
    /// [`InstructionSource::next_inst`] calls. Each kind of instruction
    /// is pushed where it is made, so a block is written in place rather
    /// than through one instruction assembled for every kind.
    #[inline(always)]
    fn emit(&mut self, push: &mut impl FnMut(DynInst)) -> bool {
        loop {
            if self.phase_idx >= self.spec.phases.len() {
                return false;
            }
            if self.marker_pending {
                self.marker_pending = false;
                push(DynInst {
                    pc: self.phase.code_base,
                    op: DynOp::Marker(MARKER_REGION_BASE + self.phase_idx as u32),
                });
                return true;
            }
            if self.inst_in_phase >= self.phase.instructions {
                self.phase_idx += 1;
                if let Some(&next) = self.spec.phases.get(self.phase_idx) {
                    self.phase = next;
                    self.cuts = roll_cuts(&next);
                }
                self.inst_in_phase = 0;
                self.loop_pos = 0;
                self.mem_pos = 0;
                self.marker_pending = true;
                self.pending_use = None;
                self.loop_offset = 0;
                self.dwell_left = 0;
                self.warm_idx = 0;
                continue;
            }
            let i = self.inst_in_phase;
            let last_in_loop = self.loop_pos == self.phase.loop_body - 1;
            // In-burst streaming: emit the next line access of the scan
            // loop once its per-element compute has elapsed. The load
            // site PC is stable so the stride prefetcher can train on it.
            if self.stream_burst_left > 0 {
                if self.stream_cooldown == 0 && !last_in_loop {
                    self.stream_burst_left -= 1;
                    self.stream_cooldown = STREAM_SPACING_INSTS;
                    self.stream_addr += 64;
                    if self.stream_addr >= COLD_BASE + COLD_BYTES {
                        self.stream_addr = COLD_BASE;
                    }
                    let dst = self.next_load_dst();
                    self.pending_use = Some((i + self.phase.load_use_distance, dst));
                    self.advance();
                    push(DynInst {
                        pc: self.phase.code_base + 8,
                        op: DynOp::Load {
                            dst,
                            addr_src: Some(BASE_REG),
                            addr: self.stream_addr,
                        },
                    });
                    return true;
                }
                self.stream_cooldown = self.stream_cooldown.saturating_sub(1);
            }
            // Code locality: execution sits in one loop of the footprint
            // for a while (dwell), then moves to another loop — the way
            // real code covers a large text segment, rather than sweeping
            // it linearly (which would thrash the I$ unrealistically).
            if self.loop_pos == 0 {
                let p = &self.phase;
                if self.dwell_left == 0 {
                    let n_loops = p.code_footprint / (4 * p.loop_body);
                    if n_loops > 1 {
                        self.loop_offset = (self.rng.gen::<u64>() % n_loops) * 4 * p.loop_body;
                    }
                    self.dwell_left = 16 + self.rng.gen::<u64>() % 49; // 16..=64
                } else {
                    self.dwell_left -= 1;
                }
            }
            // The loop offset is a whole loop inside the footprint, so only
            // a loop longer than the footprint (offset 0) ever wraps.
            let (within, footprint) = (self.loop_pos * 4, self.phase.code_footprint);
            let offset = if within < footprint {
                self.loop_offset + within
            } else {
                within % footprint
            };
            let pc = self.phase.code_base + offset;
            if last_in_loop {
                let op = DynOp::Branch {
                    srcs: [Some(Reg(1 + self.alu_rot)), None],
                    taken: true,
                };
                self.advance();
                push(DynInst { pc, op });
            } else if self.mem_pos == 0 {
                let op = self.gen_mem_op();
                self.advance();
                push(DynInst { pc, op });
            } else {
                let op = self.gen_alu();
                self.advance();
                push(DynInst { pc, op });
            }
            return true;
        }
    }
}

impl InstructionSource for TraceGen {
    fn next_inst(&mut self) -> Option<DynInst> {
        let mut next = None;
        self.emit(&mut |inst| next = Some(inst));
        next
    }

    fn fill(&mut self, out: &mut Vec<DynInst>, max: usize) {
        out.reserve(max);
        for _ in 0..max {
            if !self.emit(&mut |inst| out.push(inst)) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(spec: WorkloadSpec) -> Vec<DynInst> {
        let mut src = spec.source();
        let mut v = Vec::new();
        while let Some(i) = src.next_inst() {
            v.push(i);
        }
        v
    }

    #[test]
    fn fill_yields_the_next_inst_stream_at_every_block_size() {
        let mut specs: Vec<WorkloadSpec> = WorkloadSpec::all_spec2000()
            .into_iter()
            .map(|spec| spec.scaled(0.0003))
            .collect();
        specs.push(crate::boot::boot_sequence(3, 0.001));
        for spec in specs {
            let want = drain(spec.clone());
            for block in [1, 2, 7, 256, 4096] {
                let mut src = spec.source();
                let mut reference = spec.source();
                let mut got = Vec::new();
                let mut straddled = false;
                loop {
                    let start = got.len();
                    src.fill(&mut got, block);
                    let filled = &got[start..];
                    assert!(filled.len() <= block);
                    straddled |= filled
                        .iter()
                        .skip(1)
                        .any(|i| matches!(i.op, DynOp::Marker(_)));
                    // The same RNG draws and positions as that many
                    // `next_inst` calls, and one more that found the end
                    // when the block came back short.
                    let ended = filled.len() < block;
                    for _ in filled {
                        reference.next_inst();
                    }
                    if ended {
                        assert_eq!(reference.next_inst(), None);
                    }
                    assert_eq!(format!("{src:?}"), format!("{reference:?}"));
                    if ended {
                        break;
                    }
                }
                assert!(got == want, "{} at block {block}", spec.name);
                assert_eq!(src.next_inst(), None);
                if spec.phases.len() > 1 && block >= 7 {
                    assert!(
                        straddled,
                        "{} at block {block}: no block crosses a phase",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn all_presets_validate() {
        for w in WorkloadSpec::all_spec2000() {
            w.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn emits_requested_instruction_count() {
        let spec = WorkloadSpec::gzip().scaled(0.01); // 40k insts
        let insts = drain(spec.clone());
        let non_marker = insts
            .iter()
            .filter(|i| !matches!(i.op, DynOp::Marker(_)))
            .count() as u64;
        assert_eq!(non_marker, spec.instructions());
    }

    #[test]
    fn markers_bracket_phases() {
        let spec = WorkloadSpec::parser().scaled(0.01);
        let insts = drain(spec);
        let markers: Vec<u32> = insts
            .iter()
            .filter_map(|i| match i.op {
                DynOp::Marker(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(
            markers,
            vec![
                MARKER_REGION_BASE,
                MARKER_REGION_BASE + 1,
                MARKER_REGION_BASE + 2
            ]
        );
    }

    #[test]
    fn memory_rate_matches_mem_every() {
        let spec = WorkloadSpec::twolf().scaled(0.02);
        let insts = drain(spec.clone());
        let mem = insts.iter().filter(|i| i.op.is_mem()).count() as f64;
        let total = insts.len() as f64;
        let expected = 1.0 / spec.phases[0].mem_every as f64;
        // Loop-end branches occasionally displace a memory slot.
        assert!(
            (mem / total - expected).abs() < 0.05,
            "mem fraction {} vs expected {expected}",
            mem / total
        );
    }

    #[test]
    fn cold_rate_close_to_configured() {
        let spec = WorkloadSpec::equake().scaled(0.25); // 1M insts
        let cold_per_kinst = spec.phases[0].cold_per_kinst;
        let insts = drain(spec);
        let cold = insts
            .iter()
            .filter(|i| match i.op {
                DynOp::Load { addr, .. } | DynOp::Store { addr, .. } => addr >= COLD_BASE,
                _ => false,
            })
            .count() as f64;
        let kinsts = insts.len() as f64 / 1000.0;
        let rate = cold / kinsts;
        assert!(
            (rate - cold_per_kinst).abs() < cold_per_kinst * 0.35,
            "cold rate {rate} vs configured {cold_per_kinst}"
        );
    }

    #[test]
    fn streaming_cold_addresses_are_sequential() {
        let spec = WorkloadSpec::bzip2().scaled(0.1);
        let insts = drain(spec);
        // Stores advance the stream cursor too, so check all cold accesses.
        let cold_accesses: Vec<u64> = insts
            .iter()
            .filter_map(|i| match i.op {
                DynOp::Load { addr, .. } | DynOp::Store { addr, .. } if addr >= COLD_BASE => {
                    Some(addr)
                }
                _ => None,
            })
            .collect();
        assert!(cold_accesses.len() > 10);
        let sequential = cold_accesses
            .windows(2)
            .filter(|w| w[1] == w[0] + 64)
            .count() as f64;
        // 90% of cold accesses stream; random excursions dilute the pairs.
        assert!(
            sequential / (cold_accesses.len() - 1) as f64 > 0.6,
            "sequential fraction too low"
        );
    }

    #[test]
    fn pointer_chase_creates_load_dependencies() {
        let mut spec = WorkloadSpec::mcf().scaled(0.1);
        // Force frequent cold accesses so chains occur.
        spec.phases[0].cold_per_kinst = 100.0;
        spec.phases[0].store_fraction = 0.0;
        let insts = drain(spec);
        let chained = insts
            .iter()
            .filter(|i| match i.op {
                DynOp::Load { addr_src, .. } => addr_src != Some(BASE_REG),
                _ => false,
            })
            .count();
        assert!(chained > 10, "expected chained cold loads, got {chained}");
    }

    #[test]
    fn pc_stays_within_code_footprint() {
        let spec = WorkloadSpec::crafty().scaled(0.02);
        let p = spec.phases[0];
        let insts = drain(spec);
        for i in &insts {
            assert!(i.pc >= p.code_base);
            assert!(i.pc < p.code_base + p.code_footprint);
        }
    }

    #[test]
    fn loop_longer_than_its_footprint_wraps_inside_it() {
        let mut p = Phase::base("wrap", 2_000);
        p.code_footprint = 64;
        p.loop_body = 40;
        let spec = WorkloadSpec {
            name: "wrap",
            phases: vec![p],
            seed: 3,
        };
        // The phase marker comes first; no cold traffic, so no bursts.
        for (i, inst) in drain(spec).iter().skip(1).enumerate() {
            let i = i as u64;
            assert_eq!(inst.pc, p.code_base + (i % 40) * 4 % 64, "instruction {i}");
        }
    }

    #[test]
    fn branch_every_loop_body() {
        let spec = WorkloadSpec::gzip().scaled(0.01);
        let lb = spec.phases[0].loop_body as usize;
        let insts = drain(spec);
        let non_marker: Vec<&DynInst> = insts
            .iter()
            .filter(|i| !matches!(i.op, DynOp::Marker(_)))
            .collect();
        for (idx, inst) in non_marker.iter().enumerate() {
            if idx % lb == lb - 1 {
                assert!(
                    matches!(inst.op, DynOp::Branch { taken: true, .. }),
                    "expected branch at {idx}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a = drain(WorkloadSpec::ammp().scaled(0.01));
        let b = drain(WorkloadSpec::ammp().scaled(0.01));
        assert_eq!(a, b);
        let c = drain(WorkloadSpec::ammp().scaled(0.01).with_seed(99));
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_rates_that_exceed_probability_one() {
        let mut spec = WorkloadSpec::ammp();
        spec.phases[0].warm_per_kinst = 300.0;
        spec.phases[0].mem_every = 4;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn scaled_keeps_phase_structure() {
        let spec = WorkloadSpec::parser().scaled(0.5);
        assert_eq!(spec.phases.len(), 3);
        assert_eq!(spec.phases[0].instructions, 5_000_000);
    }
}
