//! The in-order superscalar timing pipeline and the top-level simulator.
//!
//! Models the processor class the paper targets (Section II-B): a simple
//! in-order superscalar core, as found in IoT and hand-held devices, that
//! can dispatch multiple instructions per cycle and keep multiple memory
//! requests in flight, but fully stalls once the instruction at the head
//! of the window depends on an outstanding miss or resources run out.
//!
//! Each simulated cycle produces one power sample (see
//! [`crate::power::PowerModel`]) and fully-stalled cycles are aggregated
//! into ground-truth [`StallInterval`]s — the two traces the paper's
//! enhanced SESC emits for EMPROF validation.

use emprof_dram::CasTrace;
use emprof_obs as obs;

use crate::bpred::BimodalPredictor;
use crate::device::DeviceModel;
use crate::ground_truth::{GroundTruth, MissRecord, StallCause, StallInterval};
use crate::memory::{MemorySystem, OutstandingSummary};
use crate::power::{CycleActivity, PowerTrace, PowerTraceBuilder};
use crate::source::{DynInst, DynOp, InstructionSource};

/// Aggregate counters of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions retired (markers excluded).
    pub instructions: u64,
    /// Fully-stalled cycles (no instruction issued).
    pub stall_cycles: u64,
    /// Fully-stalled cycles attributable to LLC misses.
    pub llc_stall_cycles: u64,
    /// Demand LLC misses.
    pub llc_misses: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// LLC misses that collided with DRAM refresh.
    pub refresh_collisions: u64,
    /// Lines prefetched into the LLC.
    pub prefetches: u64,
    /// Branch mispredictions (always 0 without a configured predictor).
    pub branch_mispredicts: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of execution time spent fully stalled on LLC misses —
    /// the "Miss Latency (%Total Time)" column of Table IV.
    pub fn llc_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.llc_stall_cycles as f64 / self.cycles as f64
        }
    }
}

/// Flushes end-of-run simulator statistics into the telemetry registry:
/// per-level cache hit/miss counters, DRAM refresh collisions, and the
/// cycle/instruction totals.
fn flush_sim_metrics(stats: &SimStats, mem: &crate::memory::MemStats) {
    if !obs::is_enabled() {
        return;
    }
    obs::counter_add!("sim.cycles", stats.cycles);
    obs::counter_add!("sim.instructions", stats.instructions);
    obs::counter_add!("sim.stall_cycles", stats.stall_cycles);
    obs::counter_add!(
        "sim.cache.l1d.hit",
        mem.data_accesses.saturating_sub(mem.l1d_misses)
    );
    obs::counter_add!("sim.cache.l1d.miss", mem.l1d_misses);
    obs::counter_add!(
        "sim.cache.l1i.hit",
        mem.instr_accesses.saturating_sub(mem.l1i_misses)
    );
    obs::counter_add!("sim.cache.l1i.miss", mem.l1i_misses);
    obs::counter_add!(
        "sim.cache.llc.hit",
        mem.llc_accesses.saturating_sub(mem.llc_misses)
    );
    obs::counter_add!("sim.cache.llc.miss", mem.llc_misses);
    obs::counter_add!("sim.dram.refresh_collision", mem.refresh_collisions);
    obs::counter_add!("sim.llc.prefetch", mem.prefetches);
}

/// Everything one simulation produces.
#[derive(Debug, PartialEq)]
pub struct SimResult {
    /// Per-cycle power trace (the side-channel signal source).
    pub power: PowerTrace,
    /// Ground-truth miss and stall events.
    pub ground_truth: GroundTruth,
    /// Memory-side CAS/refresh activity (for the Fig. 10 dual-probe
    /// experiment).
    pub cas_trace: CasTrace,
    /// Aggregate counters.
    pub stats: SimStats,
}

/// Default simulation-cycle guard; hitting it almost always means a
/// livelocked workload rather than a legitimately long run.
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// Panics unless cycle `now` is inside the guard.
fn check_cycle_guard(now: u64, max_cycles: u64) {
    assert!(
        now < max_cycles,
        "simulation exceeded {max_cycles} cycles — livelocked workload?"
    );
}

/// Cycle-accurate simulator for one [`DeviceModel`].
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Simulator {
    device: DeviceModel,
    max_cycles: u64,
    seed: u64,
}

impl Simulator {
    /// Creates a simulator for a device.
    ///
    /// # Panics
    ///
    /// Panics if the device fails [`DeviceModel::validate`].
    pub fn new(device: DeviceModel) -> Self {
        device
            .validate()
            .unwrap_or_else(|e| panic!("invalid device model: {e}"));
        Simulator {
            device,
            max_cycles: DEFAULT_MAX_CYCLES,
            seed: 0xE0_E0_E0,
        }
    }

    /// Overrides the runaway-cycle guard.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Overrides the seed used by random replacement.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Runs a dynamic instruction stream to completion.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the cycle guard (see
    /// [`Simulator::with_max_cycles`]).
    pub fn run<S: InstructionSource>(&self, mut source: S) -> SimResult {
        Pipeline::new(&self.device, self.seed).run(&mut source, self.max_cycles)
    }

    /// [`Simulator::run`] by the cycle-stepping specification loop.
    #[cfg(test)]
    fn run_stepping<S: InstructionSource>(&self, mut source: S) -> SimResult {
        Pipeline::new(&self.device, self.seed).run_stepping(&mut source, self.max_cycles)
    }
}

/// What kind of miss, if any, is responsible for a blockage (internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum MissKind {
    /// An LLC miss (to memory); `refresh` marks a refresh collision.
    Llc {
        /// Whether the memory access collided with DRAM refresh.
        refresh: bool,
    },
    /// An L1 miss that hit in the LLC.
    L1,
    /// Not a miss (compute dependency, branch bubble, ...).
    #[default]
    None,
}

impl MissKind {
    /// The cause of a stall on the misses in flight (the ones holding
    /// the MSHRs or the store buffer's lines).
    fn from_summary(s: OutstandingSummary) -> MissKind {
        if s.llc_miss {
            MissKind::Llc { refresh: s.refresh }
        } else if s.l1_miss {
            MissKind::L1
        } else {
            MissKind::None
        }
    }

    fn from_access(info: &crate::memory::AccessInfo) -> MissKind {
        if info.llc_miss {
            MissKind::Llc {
                refresh: info.refresh_collision,
            }
        } else if info.llc_hit {
            MissKind::L1
        } else {
            MissKind::None
        }
    }

    /// Combines two causes, preferring the more severe (LLC > L1 > none).
    fn worst(self, other: MissKind) -> MissKind {
        match (self, other) {
            (MissKind::Llc { refresh: a }, MissKind::Llc { refresh: b }) => {
                MissKind::Llc { refresh: a || b }
            }
            (k @ MissKind::Llc { .. }, _) | (_, k @ MissKind::Llc { .. }) => k,
            (MissKind::L1, _) | (_, MissKind::L1) => MissKind::L1,
            _ => MissKind::None,
        }
    }
}

/// Why the head of the fetch queue could not issue this cycle (internal).
enum IssueBlock {
    /// Source operand not ready yet.
    Dependency,
    /// A structural resource (MSHR, store buffer, window, memory port) is
    /// busy.
    Structural,
}

/// One in-flight (issued, not yet completed) instruction.
#[derive(Debug, Clone, Copy, Default)]
struct InFlight {
    complete_cycle: u64,
    kind: MissKind,
}

/// The in-order completion window: a ring of `limit` entries, stored in
/// a power-of-two number of slots (none when the device has no window).
struct Window {
    slots: Box<[InFlight]>,
    mask: usize,
    head: usize,
    len: usize,
    /// The device's `inflight_window`; `usize::MAX` when it has none.
    limit: usize,
}

impl Window {
    fn new(limit: Option<usize>) -> Self {
        let slots = limit.map_or(0, usize::next_power_of_two);
        Window {
            slots: vec![InFlight::default(); slots].into_boxed_slice(),
            mask: slots.wrapping_sub(1),
            head: 0,
            len: 0,
            limit: limit.unwrap_or(usize::MAX),
        }
    }

    fn front(&self) -> Option<InFlight> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    fn is_full(&self) -> bool {
        self.len >= self.limit
    }

    fn pop_front(&mut self) {
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Appends an entry; a device without a window keeps none. The issue
    /// loop never pushes into a full window.
    fn push_back(&mut self, entry: InFlight) {
        if !self.slots.is_empty() {
            self.slots[(self.head + self.len) & self.mask] = entry;
            self.len += 1;
        }
    }
}

/// Instructions pulled from the source at once, when fetch finds none
/// pulled ahead.
const FETCH_BLOCK: usize = 256;

struct Pipeline<'d> {
    device: &'d DeviceModel,
    mem: MemorySystem,
    /// Instructions pulled from the source a block at a time: the fetch
    /// queue is `block[head..tail]`, and `block[tail..]` waits for fetch
    /// (its first entry is the one an I$ miss holds back).
    block: Vec<DynInst>,
    head: usize,
    tail: usize,
    /// The source appended fewer instructions than asked for: it has
    /// ended and is not pulled again.
    source_ended: bool,
    /// Device fields read on every cycle.
    width: u32,
    fetch_queue: usize,
    l1i_line_mask: u64,
    reg_ready: [u64; crate::isa::NUM_REGS],
    /// What produced each register's pending value (attributes dependency
    /// stalls to the right miss kind).
    reg_source: [MissKind; crate::isa::NUM_REGS],
    /// In-order completion window (only maintained when the device has
    /// one).
    inflight: Window,
    fetch_blocked_until: u64,
    /// Why fetch is blocked (for attributing queue-empty stalls).
    fetch_block_kind: MissKind,
    current_fetch_line: Option<u64>,
    /// Fetch wanted an instruction and the source had none left.
    source_done: bool,
    /// Ready cycles of the buffered stores.
    store_buffer: Vec<u64>,
    /// Earliest entry of `store_buffer` (`u64::MAX` when empty), so the
    /// buffer is only scanned on the cycles where a store drains.
    store_buffer_next: u64,
    bpred: Option<BimodalPredictor>,
    power: PowerTraceBuilder,
    gt: GroundTruth,
    stats: SimStats,
    /// The blockage cause observed during this cycle's issue attempt.
    cycle_block: MissKind,
    /// Open stall run: (start_cycle, saw_llc, saw_refresh, saw_l1).
    open_stall: Option<(u64, bool, bool, bool)>,
}

impl<'d> Pipeline<'d> {
    fn new(device: &'d DeviceModel, seed: u64) -> Self {
        Pipeline {
            device,
            mem: MemorySystem::new(device, seed),
            block: Vec::with_capacity(device.fetch_queue + FETCH_BLOCK),
            head: 0,
            tail: 0,
            source_ended: false,
            width: device.width as u32,
            fetch_queue: device.fetch_queue,
            l1i_line_mask: !(device.l1i.line_bytes - 1),
            reg_ready: [0; crate::isa::NUM_REGS],
            reg_source: [MissKind::None; crate::isa::NUM_REGS],
            inflight: Window::new(device.inflight_window),
            fetch_blocked_until: 0,
            fetch_block_kind: MissKind::None,
            current_fetch_line: None,
            source_done: false,
            store_buffer: Vec::with_capacity(device.store_buffer),
            store_buffer_next: u64::MAX,
            bpred: device.branch_predictor.map(BimodalPredictor::new),
            power: PowerTraceBuilder::new(device.power),
            gt: GroundTruth::new(),
            stats: SimStats::default(),
            cycle_block: MissKind::None,
            open_stall: None,
        }
    }

    /// Simulates cycles until the source is drained and every
    /// outstanding operation has completed, jumping over frozen
    /// stretches: a frozen cycle repeats until [`Pipeline::next_change`],
    /// so those cycles are recorded in bulk, bit-identically to stepping
    /// them (see `run_stepping`).
    fn run(mut self, source: &mut dyn InstructionSource, max_cycles: u64) -> SimResult {
        let _run_span = obs::span!("sim.run");
        let mut now: u64 = 0;
        loop {
            check_cycle_guard(now, max_cycles);
            let frozen = self.step(source, now);
            now += 1;
            if self.finished() {
                break;
            }
            if frozen {
                // Clamped so the guard trips at the cycle stepping would.
                let until = self.next_change(now).min(max_cycles);
                self.power.record_repeat((until - now) as usize);
                self.stats.stall_cycles += until - now;
                now = until;
            }
        }
        self.finish(now)
    }

    /// The executable specification of [`Pipeline::run`]: the same
    /// cycles, each one stepped.
    #[cfg(test)]
    fn run_stepping(mut self, source: &mut dyn InstructionSource, max_cycles: u64) -> SimResult {
        let mut now: u64 = 0;
        loop {
            check_cycle_guard(now, max_cycles);
            self.step(source, now);
            now += 1;
            if self.finished() {
                break;
            }
        }
        self.finish(now)
    }

    /// Simulates cycle `now`. Returns whether the cycle was frozen:
    /// nothing issued, no marker was popped and fetch did not move, so
    /// no state changed and every later cycle repeats this one (an idle
    /// power sample, one more stalled cycle, the same stall attribution)
    /// until [`Pipeline::next_change`].
    fn step(&mut self, source: &mut dyn InstructionSource, now: u64) -> bool {
        self.mem.retire_completed(now);
        self.retire(now);
        self.drain_store_buffer(now);

        let mut activity = CycleActivity::default();
        let head = self.head;
        let issued = self.issue(now, &mut activity);
        // Issue pops every instruction and marker it handles; an idle
        // fetch is one `fetch` returns from before touching the source,
        // the I$ or the queue.
        let issue_idle = self.head == head;
        let fetch_idle = self.source_done
            || now < self.fetch_blocked_until
            || self.tail - self.head >= self.fetch_queue;
        if !self.source_done {
            self.source_done = self.fetch(source, now, &mut activity);
        }
        self.track_stall(now, issued);
        self.power.record(&activity);
        issue_idle && fetch_idle
    }

    /// The source is drained and nothing is queued, buffered or in flight.
    fn finished(&self) -> bool {
        self.source_done
            && self.head == self.tail
            && self.store_buffer.is_empty()
            && self.inflight.len == 0
            && self.mem.next_completion().is_none()
    }

    /// The earliest cycle from `now` on at which a pipeline frozen in
    /// cycle `now - 1` can act differently: the window head completes, a
    /// miss completes, a buffered store drains, a fetch block ends, or a
    /// source operand of the fetch-queue head becomes ready. Candidates
    /// already in the past gate nothing and are ignored. `u64::MAX` when
    /// nothing is pending (a livelock, which the cycle guard reports).
    fn next_change(&self, now: u64) -> u64 {
        let head_srcs = if self.head < self.tail {
            self.block[self.head].op.srcs()
        } else {
            [None, None]
        };
        [
            self.inflight.front().map(|f| f.complete_cycle),
            self.mem.next_completion(),
            Some(self.store_buffer_next),
            (!self.source_done).then_some(self.fetch_blocked_until),
        ]
        .into_iter()
        .flatten()
        .chain(
            head_srcs
                .into_iter()
                .flatten()
                .map(|r| self.reg_ready[r.0 as usize]),
        )
        .filter(|&cycle| cycle >= now)
        .min()
        .unwrap_or(u64::MAX)
    }

    /// Drops the buffered stores whose lines have arrived, scanning the
    /// buffer only once its earliest entry is due.
    fn drain_store_buffer(&mut self, now: u64) {
        if now < self.store_buffer_next {
            return;
        }
        self.store_buffer.retain(|&ready| ready > now);
        self.store_buffer_next = self.store_buffer.iter().copied().min().unwrap_or(u64::MAX);
    }

    /// Closes the trailing stall run and assembles the result of a run
    /// that ended after `now` cycles.
    fn finish(mut self, now: u64) -> SimResult {
        // Close a trailing stall run, if any.
        if let Some((start, llc, refresh, l1)) = self.open_stall.take() {
            self.push_stall(start, now, llc, refresh, l1);
        }
        let mem_stats = self.mem.stats();
        self.stats.cycles = now;
        self.stats.llc_misses = mem_stats.llc_misses;
        self.stats.l1d_misses = mem_stats.l1d_misses;
        self.stats.l1i_misses = mem_stats.l1i_misses;
        self.stats.refresh_collisions = mem_stats.refresh_collisions;
        self.stats.prefetches = mem_stats.prefetches;
        self.stats.llc_stall_cycles = self.gt.llc_stall_cycles();
        flush_sim_metrics(&self.stats, &mem_stats);
        SimResult {
            power: self.power.finish(self.device.clock_hz),
            ground_truth: self.gt,
            cas_trace: self.mem.into_cas_trace(),
            stats: self.stats,
        }
    }

    /// Retires completed instructions from the in-order window.
    fn retire(&mut self, now: u64) {
        while self
            .inflight
            .front()
            .is_some_and(|head| head.complete_cycle <= now)
        {
            self.inflight.pop_front();
        }
    }

    /// Issues up to `width` instructions in order; returns how many issued.
    fn issue(&mut self, now: u64, activity: &mut CycleActivity) -> u32 {
        self.cycle_block = MissKind::None;
        let mut issued = 0u32;
        let mut mem_ops = 0u32;
        while issued < self.width {
            if self.head == self.tail {
                // Queue empty: if we are draining behind incomplete work,
                // the stall belongs to the window head; otherwise to
                // whatever blocked fetch (e.g. an I$ miss).
                let blocked_on = self
                    .inflight
                    .front()
                    .map_or(self.fetch_block_kind, |f| f.kind);
                self.cycle_block = self.cycle_block.worst(blocked_on);
                break;
            }
            let inst = self.block[self.head];
            // Markers are free and invisible to timing.
            if let DynOp::Marker(id) = inst.op {
                self.gt.push_marker(id, now);
                self.head += 1;
                continue;
            }
            // In-order completion: no issue past a full window; the stall
            // belongs to whatever the window head is waiting on.
            if self.inflight.is_full() {
                let head = self.inflight.front().expect("window full implies nonempty");
                self.cycle_block = self.cycle_block.worst(head.kind);
                break;
            }
            match self.try_issue(&inst, now, mem_ops, activity) {
                Ok(used_mem_port) => {
                    self.head += 1;
                    self.stats.instructions += 1;
                    issued += 1;
                    if used_mem_port {
                        mem_ops += 1;
                    }
                }
                Err(IssueBlock::Dependency) | Err(IssueBlock::Structural) => break,
            }
        }
        issued
    }

    /// Attempts to issue one instruction; `Ok(true)` means a memory port
    /// was consumed.
    fn try_issue(
        &mut self,
        inst: &DynInst,
        now: u64,
        mem_ops: u32,
        activity: &mut CycleActivity,
    ) -> Result<bool, IssueBlock> {
        let [a, b] = inst.op.srcs();
        self.wait_for(a, now)?;
        self.wait_for(b, now)?;
        match inst.op {
            DynOp::Alu { dst, .. } => {
                if let Some(d) = dst {
                    self.set_ready(d, now + 1, MissKind::None);
                }
                self.push_inflight(now + 1, MissKind::None);
                activity.alu_issued += 1;
                Ok(false)
            }
            DynOp::Mul { dst, .. } => {
                self.set_ready(dst, now + 3, MissKind::None);
                self.push_inflight(now + 3, MissKind::None);
                activity.mul_issued += 1;
                Ok(false)
            }
            DynOp::Branch { .. } => {
                // Branch resolution itself is a single-cycle ALU-class op;
                // the taken-branch fetch bubble is charged at fetch time.
                self.push_inflight(now + 1, MissKind::None);
                activity.alu_issued += 1;
                Ok(false)
            }
            DynOp::Nop => {
                self.push_inflight(now + 1, MissKind::None);
                activity.alu_issued += 1;
                Ok(false)
            }
            DynOp::Load { dst, addr, .. } => {
                if mem_ops >= 1 {
                    return Err(IssueBlock::Structural);
                }
                let Ok(info) = self.mem.access_data(inst.pc, addr, false, now) else {
                    return Err(self.blocked_on_outstanding(now));
                };
                self.record_mem_access(inst.pc, addr, now, &info, activity);
                let kind = MissKind::from_access(&info);
                let ready = info.ready_cycle.max(now + 1);
                self.set_ready(dst, ready, kind);
                self.push_inflight(ready, kind);
                activity.mem_issued += 1;
                Ok(true)
            }
            DynOp::Store { addr, .. } => {
                if mem_ops >= 1 {
                    return Err(IssueBlock::Structural);
                }
                if self.store_buffer.len() >= self.device.store_buffer {
                    return Err(self.blocked_on_outstanding(now));
                }
                let Ok(info) = self.mem.access_data(inst.pc, addr, true, now) else {
                    return Err(self.blocked_on_outstanding(now));
                };
                self.record_mem_access(inst.pc, addr, now, &info, activity);
                // The store retires into the buffer (it completes
                // immediately from the window's point of view); the buffer
                // entry drains when the line arrives.
                let ready = info.ready_cycle.max(now + 1);
                self.store_buffer.push(ready);
                self.store_buffer_next = self.store_buffer_next.min(ready);
                self.push_inflight(now + 1, MissKind::None);
                activity.mem_issued += 1;
                Ok(true)
            }
            DynOp::Marker(_) => unreachable!("markers handled by the issue loop"),
        }
    }

    /// Blocks issue on a source register whose value is not ready at
    /// `now`.
    fn wait_for(&mut self, src: Option<crate::isa::Reg>, now: u64) -> Result<(), IssueBlock> {
        if let Some(src) = src {
            if self.reg_ready[src.0 as usize] > now {
                // Attribute the dependency stall to whatever produced the
                // pending value (a missing load, or plain compute).
                let kind = self.reg_source[src.0 as usize];
                self.cycle_block = self.cycle_block.worst(kind);
                return Err(IssueBlock::Dependency);
            }
        }
        Ok(())
    }

    /// A structural stall (MSHRs or store buffer full), caused by the
    /// misses in flight.
    fn blocked_on_outstanding(&mut self, now: u64) -> IssueBlock {
        let kind = MissKind::from_summary(self.mem.outstanding_summary(now));
        self.cycle_block = self.cycle_block.worst(kind);
        IssueBlock::Structural
    }

    fn push_inflight(&mut self, complete_cycle: u64, kind: MissKind) {
        self.inflight.push_back(InFlight {
            complete_cycle,
            kind,
        });
    }

    fn record_mem_access(
        &mut self,
        pc: u64,
        addr: u64,
        now: u64,
        info: &crate::memory::AccessInfo,
        activity: &mut CycleActivity,
    ) {
        if info.llc_accessed {
            activity.llc_accesses += 1;
        }
        if info.llc_miss && !info.merged {
            self.gt.push_miss(MissRecord {
                line_addr: addr & !(self.device.llc.line_bytes - 1),
                pc,
                is_instr: false,
                detect_cycle: now,
                complete_cycle: info.ready_cycle,
                refresh_collision: info.refresh_collision,
            });
        }
    }

    fn set_ready(&mut self, reg: crate::isa::Reg, cycle: u64, kind: MissKind) {
        if reg != crate::isa::Reg::ZERO {
            self.reg_ready[reg.0 as usize] = self.reg_ready[reg.0 as usize].max(cycle);
            self.reg_source[reg.0 as usize] = kind;
        }
    }

    /// Fetches up to `width` instructions; returns `true` when the source
    /// is exhausted.
    fn fetch(
        &mut self,
        source: &mut dyn InstructionSource,
        now: u64,
        activity: &mut CycleActivity,
    ) -> bool {
        if now < self.fetch_blocked_until {
            return false;
        }
        for _ in 0..self.width {
            if self.tail - self.head >= self.fetch_queue {
                break;
            }
            if self.tail == self.block.len() && !self.refill(source) {
                return true;
            }
            let inst = self.block[self.tail];
            let line = inst.pc & self.l1i_line_mask;
            if self.current_fetch_line != Some(line) {
                let info = self.mem.access_instr(inst.pc, now);
                if info.llc_accessed {
                    activity.llc_accesses += 1;
                }
                if info.llc_miss && !info.merged {
                    self.gt.push_miss(MissRecord {
                        line_addr: line,
                        pc: inst.pc,
                        is_instr: true,
                        detect_cycle: now,
                        complete_cycle: info.ready_cycle,
                        refresh_collision: info.refresh_collision,
                    });
                }
                if info.ready_cycle > now {
                    // I$ miss (or slow path): fetch resumes with this
                    // instruction when the line arrives.
                    self.fetch_blocked_until = info.ready_cycle;
                    self.fetch_block_kind = MissKind::from_access(&info);
                    break;
                }
                self.current_fetch_line = Some(line);
            }
            activity.fetched += 1;
            self.tail += 1;
            if let DynOp::Branch { taken, .. } = inst.op {
                let bubble = match self.bpred.as_mut() {
                    Some(bp) => {
                        // Predicted path: a correct taken prediction still
                        // redirects for one cycle (BTB turnaround); a
                        // misprediction pays the full refill.
                        let correct = bp.update(inst.pc, taken);
                        if !correct {
                            self.stats.branch_mispredicts += 1;
                            Some(
                                1 + self.device.branch_penalty
                                    + self
                                        .device
                                        .branch_predictor
                                        .expect("predictor configured")
                                        .mispredict_penalty,
                            )
                        } else if taken {
                            Some(1)
                        } else {
                            None
                        }
                    }
                    // No predictor: every taken branch pays the redirect.
                    None => taken.then_some(1 + self.device.branch_penalty),
                };
                if let Some(cycles) = bubble {
                    // A branch bubble is not a miss-caused blockage.
                    self.fetch_blocked_until = now + cycles;
                    self.fetch_block_kind = MissKind::None;
                    self.current_fetch_line = None;
                    break;
                }
            }
        }
        false
    }

    /// Pulls the next block from the source once everything pulled has
    /// been fetched, moving the fetch queue to the front of the buffer
    /// first. Returns `false` when the source has no instruction left; an
    /// ended source is not pulled again.
    fn refill(&mut self, source: &mut dyn InstructionSource) -> bool {
        if self.source_ended {
            return false;
        }
        self.block.drain(..self.head);
        self.tail -= self.head;
        self.head = 0;
        source.fill(&mut self.block, FETCH_BLOCK);
        let pulled = self.block.len() - self.tail;
        self.source_ended = pulled < FETCH_BLOCK;
        pulled > 0
    }

    fn track_stall(&mut self, now: u64, issued: u32) {
        if issued == 0 {
            self.stats.stall_cycles += 1;
            // Attribution comes from what actually blocked issue this
            // cycle, so branch bubbles during an unrelated outstanding
            // miss stay classified as `Other` rather than polluting the
            // LLC stall accounting.
            let (is_llc, is_refresh, is_l1) = match self.cycle_block {
                MissKind::Llc { refresh } => (true, refresh, false),
                MissKind::L1 => (false, false, true),
                MissKind::None => (false, false, false),
            };
            match &mut self.open_stall {
                Some((_, llc, refresh, l1)) => {
                    *llc |= is_llc;
                    *refresh |= is_refresh;
                    *l1 |= is_l1;
                }
                None => {
                    self.open_stall = Some((now, is_llc, is_refresh, is_l1));
                }
            }
        } else if let Some((start, llc, refresh, l1)) = self.open_stall.take() {
            self.push_stall(start, now, llc, refresh, l1);
        }
    }

    fn push_stall(&mut self, start: u64, end: u64, llc: bool, refresh: bool, l1: bool) {
        let cause = if llc {
            StallCause::LlcMiss { refresh }
        } else if l1 {
            StallCause::LlcHit
        } else {
            StallCause::Other
        };
        self.gt.push_stall(StallInterval {
            start_cycle: start,
            end_cycle: end,
            cause,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Inst, Program, Reg};
    use crate::source::IterSource;
    use crate::Interpreter;

    /// A blank loop (no memory accesses) of `n` iterations.
    fn blank_loop(n: i64) -> Program {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), n));
        let top = b.label();
        b.push(Inst::Addi(Reg(1), Reg(1), -1));
        b.push(Inst::Bne(Reg(1), Reg::ZERO, top));
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    /// Loads walking `lines` distinct cache lines, `reps` passes.
    fn array_walk(lines: i64, reps: i64) -> Program {
        let mut b = Program::builder();
        let base = Reg(1);
        let i = Reg(2);
        let limit = Reg(3);
        let addr = Reg(4);
        let val = Reg(5);
        let rep = Reg(6);
        b.push(Inst::Li(base, 0x100_0000));
        b.push(Inst::Li(rep, reps));
        let rep_top = b.label();
        b.push(Inst::Li(i, 0));
        b.push(Inst::Li(limit, lines));
        let top = b.label();
        b.push(Inst::Slli(addr, i, 6)); // i * 64
        b.push(Inst::Add(addr, addr, base));
        b.push(Inst::Ld(val, addr, 0));
        b.push(Inst::Addi(i, i, 1));
        b.push(Inst::Blt(i, limit, top));
        b.push(Inst::Addi(rep, rep, -1));
        b.push(Inst::Bne(rep, Reg::ZERO, rep_top));
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    fn sim() -> Simulator {
        Simulator::new(DeviceModel::sesc_like()).with_max_cycles(100_000_000)
    }

    fn no_refresh_sim() -> Simulator {
        let mut d = DeviceModel::sesc_like();
        d.dram.refresh = emprof_dram::RefreshConfig::disabled();
        Simulator::new(d).with_max_cycles(100_000_000)
    }

    /// Demand data-side LLC misses (the cold fetch of the tiny code
    /// footprint adds a couple of instruction-side misses that the tables
    /// in the paper also exclude by isolating the measured section).
    fn data_misses(r: &SimResult) -> usize {
        r.ground_truth
            .misses()
            .iter()
            .filter(|m| !m.is_instr)
            .count()
    }

    #[test]
    fn blank_loop_has_high_ipc_and_no_llc_misses() {
        let r = sim().run(Interpreter::new(&blank_loop(10_000)));
        assert_eq!(data_misses(&r), 0);
        assert!(
            r.stats.ipc() > 0.5,
            "blank loop should keep the core busy, ipc={}",
            r.stats.ipc()
        );
        // At most the cold code-fetch stall; nothing from the loop body.
        assert!(r.ground_truth.llc_stall_count() <= 1);
    }

    #[test]
    fn power_trace_length_equals_cycles() {
        let r = sim().run(Interpreter::new(&blank_loop(1000)));
        assert_eq!(r.power.len() as u64, r.stats.cycles);
    }

    #[test]
    fn cold_array_walk_misses_once_per_line() {
        let lines = 512;
        let r = no_refresh_sim().run(Interpreter::new(&array_walk(lines, 1)));
        // Every line is cold: one LLC miss per line (32 KiB walk fits LLC).
        assert_eq!(data_misses(&r) as i64, lines);
    }

    #[test]
    fn second_pass_hits_when_working_set_fits() {
        let lines = 256; // 16 KiB, fits both L1D (32 KiB) and LLC
        let r = no_refresh_sim().run(Interpreter::new(&array_walk(lines, 3)));
        assert_eq!(data_misses(&r) as i64, lines);
    }

    #[test]
    fn llc_misses_produce_long_stalls() {
        let r = no_refresh_sim().run(Interpreter::new(&array_walk(512, 1)));
        let stalls: Vec<_> = r.ground_truth.llc_stalls().collect();
        assert!(!stalls.is_empty());
        let avg: f64 =
            stalls.iter().map(|s| s.duration() as f64).sum::<f64>() / stalls.len() as f64;
        // LLC miss latency is ~300 cycles; sequential dependent-ish walk
        // stalls for a large fraction of it.
        assert!(avg > 50.0, "average LLC stall {avg} cycles is too short");
    }

    #[test]
    fn stall_cycles_show_up_as_low_power() {
        let r = no_refresh_sim().run(Interpreter::new(&array_walk(512, 1)));
        let samples = r.power.samples();
        let base = DeviceModel::sesc_like().power.base as f32;
        // Inside a known stall interval the power sits at the base level.
        let stall = r
            .ground_truth
            .llc_stalls()
            .find(|s| s.duration() > 20)
            .expect("a long stall exists");
        let mid = ((stall.start_cycle + stall.end_cycle) / 2) as usize;
        assert!((samples[mid] - base).abs() < 1e-6);
        // And a busy cycle is well above it.
        let max = samples.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 2.0 * base);
    }

    #[test]
    fn stall_count_at_most_miss_count() {
        let r = no_refresh_sim().run(Interpreter::new(&array_walk(1024, 1)));
        assert!(
            r.ground_truth.llc_stall_count() <= r.ground_truth.llc_miss_count(),
            "MLP can only merge stalls, never split them"
        );
    }

    #[test]
    fn markers_record_cycles() {
        let mut b = Program::builder();
        b.push(Inst::Marker(1));
        b.push(Inst::Li(Reg(1), 100));
        let top = b.label();
        b.push(Inst::Addi(Reg(1), Reg(1), -1));
        b.push(Inst::Bne(Reg(1), Reg::ZERO, top));
        b.push(Inst::Marker(2));
        b.push(Inst::Halt);
        let r = sim().run(Interpreter::new(&b.build().unwrap()));
        let w = r
            .ground_truth
            .marker_window(1, 2)
            .expect("both markers hit");
        assert!(w.1 > w.0);
        assert!(w.1 - w.0 >= 100, "window spans the loop");
    }

    #[test]
    fn stats_are_consistent() {
        let r = no_refresh_sim().run(Interpreter::new(&array_walk(256, 2)));
        assert!(r.stats.stall_cycles <= r.stats.cycles);
        assert!(r.stats.llc_stall_cycles <= r.stats.stall_cycles);
        assert_eq!(r.stats.llc_stall_cycles, r.ground_truth.llc_stall_cycles());
        assert!(r.stats.instructions > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let r = no_refresh_sim().run(Interpreter::new(&array_walk(128, 2)));
            (
                r.stats.cycles,
                r.stats.llc_misses,
                r.power.samples().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn cycle_guard_trips() {
        let sim = Simulator::new(DeviceModel::sesc_like()).with_max_cycles(50);
        sim.run(Interpreter::new(&blank_loop(100_000)));
    }

    /// The panic message of `f`, or `None` if it returns.
    fn panic_message(f: impl FnOnce() -> SimResult) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        )
    }

    /// A cold load followed by a use of its value, then a cold store:
    /// the load collides with the refresh burst at cycle 0 and stalls for
    /// microseconds, and the run ends waiting for the store's line.
    fn refresh_stall_then_store() -> Vec<DynInst> {
        let ops = [
            DynOp::Load {
                dst: Reg(1),
                addr_src: None,
                addr: 0x100_0000,
            },
            DynOp::Alu {
                dst: Some(Reg(2)),
                srcs: [Some(Reg(1)), None],
            },
            DynOp::Store {
                srcs: [Some(Reg(2)), None],
                addr: 0x200_0000,
            },
        ];
        ops.iter()
            .enumerate()
            .map(|(i, &op)| DynInst {
                pc: 0x40_0000 + 4 * i as u64,
                op,
            })
            .collect()
    }

    #[test]
    fn cycle_guard_trips_inside_a_skipped_stall_like_stepping() {
        let stream = refresh_stall_then_store();
        let r = sim().run(IterSource::new(stream.clone().into_iter()));
        let stall = *r
            .ground_truth
            .stalls()
            .iter()
            .max_by_key(|s| s.duration())
            .expect("the run stalls");
        assert!(
            stall.duration() > 1_000,
            "refresh stall too short: {stall:?}"
        );
        for max_cycles in [
            stall.start_cycle + 1,
            (stall.start_cycle + stall.end_cycle) / 2,
        ] {
            let sim = sim().with_max_cycles(max_cycles);
            let source = || IterSource::new(stream.clone().into_iter());
            let jumped = panic_message(|| sim.run(source()));
            let stepped = panic_message(|| sim.run_stepping(source()));
            let expected = format!("simulation exceeded {max_cycles} cycles");
            assert!(
                jumped.as_deref().is_some_and(|m| m.starts_with(&expected)),
                "run: {jumped:?}"
            );
            assert_eq!(jumped, stepped);
        }
    }

    #[test]
    fn an_ended_source_is_never_pulled_again() {
        use std::cell::Cell;
        use std::rc::Rc;
        for len in [
            0,
            3,
            FETCH_BLOCK - 1,
            FETCH_BLOCK,
            FETCH_BLOCK + 1,
            2 * FETCH_BLOCK,
        ] {
            let stream: Vec<DynInst> = (0..len as u64)
                .map(|i| DynInst {
                    pc: 0x40_0000 + 4 * i,
                    op: DynOp::Alu {
                        dst: Some(Reg(1 + (i % 8) as u8)),
                        srcs: [Some(Reg(1 + ((i + 3) % 8) as u8)), None],
                    },
                })
                .collect();
            for stepping in [false, true] {
                // Yields the stream, one `None`, then instructions again,
                // counting every pull after the `None`.
                let past_end = Rc::new(Cell::new(0));
                let mut pulls = 0;
                let (insts, counter) = (stream.clone(), Rc::clone(&past_end));
                let source = IterSource::new(std::iter::from_fn(move || {
                    pulls += 1;
                    match pulls.cmp(&(insts.len() + 1)) {
                        std::cmp::Ordering::Less => Some(insts[pulls - 1]),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => {
                            counter.set(counter.get() + 1);
                            Some(DynInst {
                                pc: 0,
                                op: DynOp::Nop,
                            })
                        }
                    }
                }));
                let r = if stepping {
                    sim().run_stepping(source)
                } else {
                    sim().run(source)
                };
                assert_eq!(past_end.get(), 0, "pulled past the end, {len} instructions");
                assert_eq!(r.stats.instructions, len as u64);
            }
        }
    }

    #[test]
    fn the_source_ends_when_fetch_next_finds_it_empty() {
        // A stream ending in a branch: taken, its redirect bubble delays
        // the fetch that finds the stream over, and so the end of the
        // run, past the cycle the pipeline drains in.
        let device = DeviceModel::sesc_like();
        let cycles = |taken: bool| {
            let stream = (0..40u64).map(|i| DynInst {
                pc: 0x40_0000 + 4 * i,
                op: if i == 39 {
                    DynOp::Branch {
                        srcs: [None, None],
                        taken,
                    }
                } else {
                    DynOp::Nop
                },
            });
            let sim = Simulator::new(device.clone());
            let (jumped, stepped) = (
                sim.run(IterSource::new(stream.clone())),
                sim.run_stepping(IterSource::new(stream)),
            );
            assert_eq!(jumped, stepped);
            jumped.stats.cycles
        };
        assert!(cycles(true) > cycles(false));
    }

    #[test]
    fn power_covers_a_run_that_ends_stalled() {
        let stream = refresh_stall_then_store();
        for r in [
            sim().run(IterSource::new(stream.clone().into_iter())),
            sim().run_stepping(IterSource::new(stream.clone().into_iter())),
        ] {
            let last = r.ground_truth.stalls().last().expect("a trailing stall");
            assert_eq!(
                last.end_cycle, r.stats.cycles,
                "the run ends inside a stall"
            );
            assert!(last.duration() > 100, "the store drains for a miss latency");
            assert_eq!(r.power.len() as u64, r.stats.cycles);
        }
    }

    mod skip_equals_step {
        //! `Simulator::run` jumps over frozen cycles; the property is that
        //! its whole result equals the cycle-stepping loop's, bit for bit.

        use super::*;
        use crate::bpred::BpredConfig;
        use emprof_dram::RefreshConfig;
        use proptest::prelude::*;

        const PRESETS: [fn() -> DeviceModel; 5] = [
            DeviceModel::sesc_like,
            DeviceModel::mlp_capable,
            DeviceModel::olimex,
            DeviceModel::alcatel,
            DeviceModel::samsung,
        ];

        /// A preset with refresh on or off and, optionally, a branch
        /// predictor (which every preset leaves off), so that
        /// mispredictions occur.
        fn device(preset: usize, refresh: bool, bpred: bool) -> DeviceModel {
            let mut d = PRESETS[preset]();
            if !refresh {
                d.dram.refresh = RefreshConfig::disabled();
            }
            if bpred {
                d.branch_predictor = Some(BpredConfig::default());
            }
            d
        }

        /// Runs both loops and compares everything they return.
        fn assert_skip_equals_step<S: InstructionSource>(
            sim: &Simulator,
            source: impl Fn() -> S,
        ) -> Result<(), TestCaseError> {
            let jumped = sim.run(source());
            let stepped = sim.run_stepping(source());
            prop_assert_eq!(jumped.stats, stepped.stats);
            let bits = |r: &SimResult| -> Vec<u32> {
                r.power.samples().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert!(bits(&jumped) == bits(&stepped), "power traces differ");
            prop_assert!(
                jumped.ground_truth == stepped.ground_truth,
                "ground truth differs"
            );
            prop_assert!(jumped.cas_trace == stepped.cas_trace, "CAS traces differ");
            prop_assert!(jumped == stepped);
            Ok(())
        }

        /// One chunk of a generated instruction stream.
        #[derive(Debug, Clone)]
        enum Shape {
            /// Loads whose address register is the previous load's result.
            PointerChase { len: usize, stride: u64 },
            /// Independent loads walking never-touched lines.
            ColdStride { len: usize, stride: u64 },
            /// Stores to one hot line or to cold lines; long bursts fill
            /// the store buffer.
            StoreBurst { len: usize, cold: bool },
            /// Multiplies, each depending on the last.
            MulChain { len: usize },
            /// A load of a hot line and a use of its value.
            LoadUse,
            /// A loop-back branch, taken or not per iteration.
            Branches { taken: Vec<bool> },
            /// A simulator marker.
            Marker(u32),
            /// A load of a cold code line, then a jump to it, so the fetch
            /// merges into the data miss in flight.
            JumpToLoadedCode,
            /// Independent ALU operations and no-ops.
            Alu { len: usize },
        }

        /// Draws a shape from raw generated numbers (the vendored
        /// proptest has no `prop_oneof`): `kind` picks the variant, `len`
        /// its length, `stride` its line stride and `bits` its flags.
        fn shape((kind, len, stride, bits): (u8, usize, u64, u32)) -> Shape {
            let stride = stride * 64;
            match kind {
                0 => Shape::PointerChase { len, stride },
                1 => Shape::ColdStride { len, stride },
                2 => Shape::StoreBurst {
                    len,
                    cold: bits & 1 == 1,
                },
                3 => Shape::MulChain { len },
                4 => Shape::LoadUse,
                5 => Shape::Branches {
                    taken: (0..len).map(|k| bits >> k & 1 == 1).collect(),
                },
                6 => Shape::Marker(bits % 4),
                7 => Shape::JumpToLoadedCode,
                _ => Shape::Alu { len },
            }
        }

        /// Expands shapes into one stream, fetched from sequential PCs
        /// except where a branch is taken.
        struct Stream {
            insts: Vec<DynInst>,
            pc: u64,
            cold_data: u64,
            cold_code: u64,
        }

        /// A line every load or store hits after its first miss.
        const HOT: u64 = 0x8000;

        impl Stream {
            fn build(shapes: &[Shape]) -> Vec<DynInst> {
                let mut s = Stream {
                    insts: Vec::new(),
                    pc: 0x40_0000,
                    cold_data: 0x1000_0000,
                    cold_code: 0x80_0000,
                };
                for shape in shapes {
                    s.expand(shape);
                }
                s.insts
            }

            fn push(&mut self, op: DynOp) {
                self.insts.push(DynInst { pc: self.pc, op });
                self.pc += 4;
            }

            fn load(&mut self, dst: u8, addr_src: Option<u8>, addr: u64) {
                let (dst, addr_src) = (Reg(dst), addr_src.map(Reg));
                self.push(DynOp::Load {
                    dst,
                    addr_src,
                    addr,
                });
            }

            fn alu(&mut self, dst: u8, src: u8) {
                let (dst, srcs) = (Some(Reg(dst)), [Some(Reg(src)), None]);
                self.push(DynOp::Alu { dst, srcs });
            }

            fn branch(&mut self, src: Option<u8>, taken: bool) {
                let srcs = [src.map(Reg), None];
                self.push(DynOp::Branch { srcs, taken });
            }

            fn cold_line(&mut self, stride: u64) -> u64 {
                self.cold_data += stride;
                self.cold_data
            }

            fn expand(&mut self, shape: &Shape) {
                match *shape {
                    Shape::PointerChase { len, stride } => {
                        for _ in 0..len {
                            let addr = self.cold_line(stride);
                            self.load(1, Some(1), addr);
                        }
                    }
                    Shape::ColdStride { len, stride } => {
                        for k in 0..len {
                            let addr = self.cold_line(stride);
                            self.load(2 + (k % 4) as u8, None, addr);
                        }
                    }
                    Shape::StoreBurst { len, cold } => {
                        for k in 0..len as u64 {
                            let addr = if cold {
                                self.cold_line(4096)
                            } else {
                                HOT + 8 * k
                            };
                            let srcs = [Some(Reg(6)), Some(Reg(2))];
                            self.push(DynOp::Store { srcs, addr });
                        }
                    }
                    Shape::MulChain { len } => {
                        for _ in 0..len {
                            let srcs = [Some(Reg(7)), Some(Reg(8))];
                            self.push(DynOp::Mul { dst: Reg(7), srcs });
                        }
                    }
                    Shape::LoadUse => {
                        self.load(9, None, HOT);
                        self.alu(10, 9);
                    }
                    Shape::Branches { ref taken } => {
                        let top = self.pc;
                        for &t in taken {
                            self.alu(11, 11);
                            self.branch(Some(11), t);
                            if t {
                                self.pc = top;
                            }
                        }
                        self.pc = top + 8;
                    }
                    Shape::Marker(id) => self.push(DynOp::Marker(id)),
                    Shape::JumpToLoadedCode => {
                        self.cold_code += 4096;
                        let target = self.cold_code;
                        self.load(12, None, target);
                        self.branch(None, true);
                        self.pc = target;
                    }
                    Shape::Alu { len } => {
                        for k in 0..len {
                            if k % 5 == 4 {
                                self.push(DynOp::Nop);
                            } else {
                                self.alu(13 + (k % 3) as u8, 16);
                            }
                        }
                    }
                }
            }
        }

        /// The microbenchmark's shape: a blank loop, a marked section of
        /// misses `stride_pages` pages apart separated by a delay loop
        /// (with a multiply in the address computation), and a second
        /// blank loop.
        fn microbench(blank: i64, misses: i64, delay: i64, stride_pages: i64) -> Program {
            let (base, i, inner, addr, val, k) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
            let mut b = Program::builder();
            b.push(Inst::Li(base, 0x100_0000));
            b.push(Inst::Li(k, stride_pages << 12));
            let blank_loop = |b: &mut crate::isa::ProgramBuilder| {
                b.push(Inst::Li(i, blank));
                let top = b.label();
                b.push(Inst::Addi(i, i, -1));
                b.push(Inst::Bne(i, Reg::ZERO, top));
            };
            blank_loop(&mut b);
            b.push(Inst::Marker(1));
            b.push(Inst::Li(i, misses));
            let miss_top = b.label();
            b.push(Inst::Mul(addr, i, k));
            b.push(Inst::Add(addr, addr, base));
            b.push(Inst::Ld(val, addr, 0));
            b.push(Inst::St(val, addr, 8));
            b.push(Inst::Li(inner, delay));
            let delay_top = b.label();
            b.push(Inst::Addi(inner, inner, -1));
            b.push(Inst::Bne(inner, Reg::ZERO, delay_top));
            b.push(Inst::Addi(i, i, -1));
            b.push(Inst::Bne(i, Reg::ZERO, miss_top));
            b.push(Inst::Marker(2));
            blank_loop(&mut b);
            b.push(Inst::Halt);
            b.build().unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn generated_streams(
                preset in 0usize..PRESETS.len(),
                refresh in 0u8..2,
                bpred in 0u8..2,
                seed in 0u64..4,
                raw in prop::collection::vec((0u8..9, 1usize..16, 1u64..130, any::<u32>()), 1..40),
            ) {
                let shapes: Vec<Shape> = raw.into_iter().map(shape).collect();
                let sim = Simulator::new(device(preset, refresh == 1, bpred == 1))
                    .with_seed(seed)
                    .with_max_cycles(20_000_000);
                let stream = Stream::build(&shapes);
                assert_skip_equals_step(&sim, || IterSource::new(stream.clone().into_iter()))?;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn microbenchmark_programs(
                preset in 0usize..PRESETS.len(),
                refresh in 0u8..2,
                seed in 0u64..4,
                blank in 1i64..200,
                misses in 1i64..40,
                delay in 1i64..30,
                stride_pages in 1i64..9,
            ) {
                let sim = Simulator::new(device(preset, refresh == 1, false))
                    .with_seed(seed)
                    .with_max_cycles(20_000_000);
                let program = microbench(blank, misses, delay, stride_pages);
                assert_skip_equals_step(&sim, || Interpreter::new(&program))?;
            }
        }
    }
}
