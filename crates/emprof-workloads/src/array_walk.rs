//! The array-walk application of Section III-B (Figs. 2 and 4).
//!
//! "A small application was created that performs loads from different
//! cache lines in an array. The size of the array can be changed in order
//! to produce cache misses in different levels of the cache hierarchy."
//!
//! Each load's value is consumed immediately by an ALU instruction, so the
//! pipeline stalls for the full access latency — making the L1-miss/LLC-hit
//! stall (brief, Fig. 2a) and the LLC-miss stall (long, Fig. 2b) cleanly
//! visible in the power signal.

use emprof_sim::isa::{Inst, Program, ProgramError, Reg};

/// Which cache level the walk is sized to miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissLevel {
    /// Array fits in the L1 D$: no misses after warm-up.
    L1Resident,
    /// Array exceeds L1 but fits the LLC: L1 misses that hit the LLC
    /// (Fig. 2a's brief stalls).
    LlcHit,
    /// Array exceeds the LLC: every pass misses to memory (Fig. 2b's long
    /// stalls).
    LlcMiss,
}

/// Configuration of the array walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayWalkConfig {
    /// Array size in bytes (walked in 64-byte strides).
    pub array_bytes: u64,
    /// Number of passes over the array.
    pub passes: i64,
    /// Base address of the array.
    pub base: u64,
    /// Iterations of a small compute loop between elements, separating
    /// consecutive stalls in the captured signal (the real application's
    /// per-element work).
    pub work_iters: i64,
}

impl ArrayWalkConfig {
    /// Sizes the array to produce misses at the requested level for the
    /// given cache capacities.
    pub fn for_level(level: MissLevel, l1_bytes: u64, llc_bytes: u64) -> Self {
        let array_bytes = match level {
            MissLevel::L1Resident => l1_bytes / 2,
            MissLevel::LlcHit => (l1_bytes * 4).min(llc_bytes / 2),
            MissLevel::LlcMiss => llc_bytes * 4,
        };
        ArrayWalkConfig {
            array_bytes,
            passes: 3,
            base: 0x2000_0000,
            work_iters: 40,
        }
    }

    /// Number of cache lines walked per pass.
    pub fn lines(&self) -> u64 {
        self.array_bytes / 64
    }

    /// Builds the walk program: `passes` passes of dependent loads over
    /// `lines()` distinct cache lines.
    ///
    /// # Errors
    ///
    /// Propagates [`ProgramError`] from assembly.
    pub fn build(&self) -> Result<Program, ProgramError> {
        let mut b = Program::builder();
        let base = Reg(1);
        let i = Reg(2);
        let limit = Reg(3);
        let addr = Reg(4);
        let val = Reg(5);
        let sink = Reg(6);
        let pass = Reg(7);

        b.push(Inst::Li(base, self.base as i64));
        b.push(Inst::Li(pass, self.passes));
        let pass_top = b.label();
        b.push(Inst::Li(i, 0));
        b.push(Inst::Li(limit, self.lines() as i64));
        let top = b.label();
        b.push(Inst::Slli(addr, i, 6));
        b.push(Inst::Add(addr, addr, base));
        b.push(Inst::Ld(val, addr, 0));
        // Immediate use: the pipeline must wait for the load.
        b.push(Inst::Add(sink, val, val));
        // Per-element work, so consecutive stalls are separated in the
        // signal (otherwise back-to-back misses blur into one long dip).
        // The body carries real ALU activity so the loop's signal level
        // sits clearly above the stall floor.
        let work = Reg(8);
        let (a, c, d) = (Reg(9), Reg(10), Reg(11));
        b.push(Inst::Li(work, self.work_iters));
        let work_top = b.label();
        b.push(Inst::Addi(work, work, -1));
        b.push(Inst::Xor(a, c, d));
        b.push(Inst::Add(c, c, a));
        b.push(Inst::Sub(d, d, a));
        b.push(Inst::Xor(a, c, d));
        b.push(Inst::Add(c, c, a));
        b.push(Inst::Bne(work, Reg::ZERO, work_top));
        b.push(Inst::Addi(i, i, 1));
        b.push(Inst::Blt(i, limit, top));
        b.push(Inst::Addi(pass, pass, -1));
        b.push(Inst::Bne(pass, Reg::ZERO, pass_top));
        b.push(Inst::Halt);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_sim::{DeviceModel, Interpreter, Simulator, StallCause};

    fn run(level: MissLevel) -> emprof_sim::SimResult {
        let mut device = DeviceModel::sesc_like();
        device.dram.refresh = emprof_dram::RefreshConfig::disabled();
        let cfg = ArrayWalkConfig::for_level(level, device.l1d.size_bytes, device.llc.size_bytes);
        let program = cfg.build().unwrap();
        Simulator::new(device)
            .with_max_cycles(400_000_000)
            .run(Interpreter::new(&program))
    }

    #[test]
    fn l1_resident_walk_stops_missing() {
        let r = run(MissLevel::L1Resident);
        // Only the cold pass misses; later passes hit L1.
        let lines = (DeviceModel::sesc_like().l1d.size_bytes / 2) / 64;
        assert!(r.stats.l1d_misses <= lines + 16);
    }

    #[test]
    fn llc_hit_walk_misses_l1_but_not_llc() {
        let r = run(MissLevel::LlcHit);
        let lines = ArrayWalkConfig::for_level(MissLevel::LlcHit, 32 << 10, 256 << 10).lines();
        // L1 misses on every pass (array 4x L1), LLC misses only cold.
        assert!(r.stats.l1d_misses > 2 * lines, "l1d {}", r.stats.l1d_misses);
        assert!(
            r.stats.llc_misses < lines + 32,
            "llc {} vs lines {lines}",
            r.stats.llc_misses
        );
        // The brief stalls are LlcHit-class (Fig. 2a).
        let hit_stalls = r
            .ground_truth
            .stalls()
            .iter()
            .filter(|s| s.cause == StallCause::LlcHit)
            .count();
        assert!(hit_stalls > 0, "expected brief LLC-hit stalls");
    }

    #[test]
    fn llc_miss_walk_misses_every_pass() {
        let r = run(MissLevel::LlcMiss);
        let lines = ArrayWalkConfig::for_level(MissLevel::LlcMiss, 32 << 10, 256 << 10).lines();
        // 3 passes over 4x the LLC: essentially every access misses.
        assert!(
            r.stats.llc_misses > 2 * lines,
            "llc misses {} vs {} lines/pass",
            r.stats.llc_misses,
            lines
        );
    }

    #[test]
    fn miss_stalls_are_order_of_magnitude_longer_than_hit_stalls() {
        // The Fig. 2 contrast: LLC-hit stalls are brief, LLC-miss stalls
        // an order of magnitude longer.
        let hit_run = run(MissLevel::LlcHit);
        let miss_run = run(MissLevel::LlcMiss);
        let avg = |r: &emprof_sim::SimResult, want_llc: bool| -> f64 {
            let v: Vec<u64> = r
                .ground_truth
                .stalls()
                .iter()
                .filter(|s| match s.cause {
                    StallCause::LlcMiss { .. } => want_llc,
                    StallCause::LlcHit => !want_llc,
                    StallCause::Other => false,
                })
                .map(|s| s.duration())
                .collect();
            v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
        };
        let hit_stall = avg(&hit_run, false);
        let miss_stall = avg(&miss_run, true);
        assert!(
            miss_stall > 5.0 * hit_stall,
            "miss stalls ({miss_stall}) should dwarf hit stalls ({hit_stall})"
        );
    }
}
