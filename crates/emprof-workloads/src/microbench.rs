//! The engineered TM/CM microbenchmark (Fig. 6 of the paper).
//!
//! Generates a known number of LLC misses (`TM`) in groups of `CM`
//! consecutive misses, each group separated by a micro function call; the
//! whole miss section is bracketed by tight blank loops whose stable
//! signal lets the harness isolate the section, and every page is touched
//! once up front "to avoid encountering page faults later".
//!
//! The access pattern "accesses cache-block-aligned array elements (so
//! that each access is to a different cache block), with randomization
//! designed to defeat any stride-based pre-fetching" — implemented with an
//! in-program 64-bit LCG whose outputs pick a random page and a random
//! line within the page.

use emprof_sim::isa::{Inst, Program, ProgramError, Reg};

use crate::{MARKER_MISS_END, MARKER_MISS_START};

/// Parameters of the microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicrobenchConfig {
    /// Total LLC misses to generate (`TM`).
    pub total_misses: u64,
    /// Consecutive misses per group (`CM`).
    pub consecutive_misses: u64,
    /// Array pages used (each 4 KiB); must be a power of two and large
    /// enough that random accesses almost never hit a cached line.
    pub pages: u64,
    /// Iterations of each identifier blank loop.
    pub blank_iters: i64,
    /// Iterations of the micro function's compute loop between groups.
    pub micro_function_iters: i64,
    /// Iterations of the per-access delay loop modeling the cost of the
    /// paper's two `rand()` calls; keeps consecutive miss dips separated
    /// in the captured signal.
    pub address_compute_iters: i64,
    /// Seed of the in-program address generator.
    pub seed: u64,
}

/// Page size assumed by the address arithmetic.
pub const PAGE_BYTES: u64 = 4096;
/// Cache-line size assumed by the address arithmetic.
pub const LINE_BYTES: u64 = 64;
/// Base address of the microbenchmark's array.
pub const ARRAY_BASE: u64 = 0x1000_0000;

impl MicrobenchConfig {
    /// A Table II/III configuration: `TM` total misses in groups of `CM`,
    /// with a 16 MiB array (4096 pages) that dwarfs every device's LLC.
    pub fn new(total_misses: u64, consecutive_misses: u64) -> Self {
        MicrobenchConfig {
            total_misses,
            consecutive_misses,
            pages: 4096,
            blank_iters: 40_000,
            micro_function_iters: 400,
            address_compute_iters: 40,
            seed: 0x5EED_5EED,
        }
    }

    /// The four TM/CM points of Tables II and III.
    pub fn paper_points() -> Vec<MicrobenchConfig> {
        vec![
            MicrobenchConfig::new(256, 1),
            MicrobenchConfig::new(256, 5),
            MicrobenchConfig::new(1024, 10),
            MicrobenchConfig::new(4096, 50),
        ]
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message for a zero TM/CM, a non-power-of-two page count,
    /// or an array too small to defeat the cache.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_misses == 0 {
            return Err("total misses must be nonzero".into());
        }
        if self.consecutive_misses == 0 || self.consecutive_misses > self.total_misses {
            return Err(format!(
                "CM ({}) must be in 1..=TM ({})",
                self.consecutive_misses, self.total_misses
            ));
        }
        if !self.pages.is_power_of_two() {
            return Err(format!("pages ({}) must be a power of two", self.pages));
        }
        if self.pages * PAGE_BYTES < 8 << 20 {
            return Err(format!(
                "array of {} pages is too small to reliably miss a 1 MiB LLC",
                self.pages
            ));
        }
        if self.blank_iters <= 0
            || self.micro_function_iters <= 0
            || self.address_compute_iters <= 0
        {
            return Err("loop iteration counts must be positive".into());
        }
        Ok(())
    }

    /// Builds the microbenchmark program.
    ///
    /// Layout (mirroring the pseudocode of Fig. 6):
    ///
    /// 1. page-touch loop over every page,
    /// 2. blank identifier loop, then [`MARKER_MISS_START`],
    /// 3. `TM/CM` groups of `CM` random cache-block loads, each group
    ///    followed by the micro function's compute loop (a trailing
    ///    partial group covers `TM % CM`),
    /// 4. [`MARKER_MISS_END`], then the closing blank identifier loop.
    ///
    /// # Errors
    ///
    /// Propagates [`ProgramError`] from program assembly (and validates
    /// the configuration first, reported as `ProgramError`-compatible
    /// panics — configuration errors are caught by
    /// [`MicrobenchConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MicrobenchConfig::validate`].
    pub fn build(&self) -> Result<Program, ProgramError> {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid microbenchmark configuration: {e}"));
        let mut b = Program::builder();

        // Register allocation.
        let base = Reg(1); // array base
        let lcg = Reg(2); // LCG state
        let lcg_mul = Reg(3); // LCG multiplier constant
        let tmp = Reg(4); // scratch: page/line extraction
        let addr = Reg(5); // effective address
        let val = Reg(6); // load destination (value unused, as in the paper)
        let i = Reg(7); // loop counters
        let limit = Reg(8);
        let inner = Reg(9);

        b.push(Inst::Li(base, ARRAY_BASE as i64));
        b.push(Inst::Li(lcg, self.seed as i64));
        b.push(Inst::Li(lcg_mul, 6364136223846793005u64 as i64));

        // --- 1. page touch: load cache_line_0 of every page ---
        b.push(Inst::Li(i, 0));
        b.push(Inst::Li(limit, self.pages as i64));
        let touch_top = b.label();
        b.push(Inst::Slli(addr, i, 12)); // page * 4096
        b.push(Inst::Add(addr, addr, base));
        b.push(Inst::Ld(val, addr, 0));
        b.push(Inst::Addi(i, i, 1));
        b.push(Inst::Blt(i, limit, touch_top));

        // --- 2. first identifier blank loop ---
        b.push(Inst::Li(i, self.blank_iters));
        let blank1 = b.label();
        b.push(Inst::Addi(i, i, -1));
        b.push(Inst::Bne(i, Reg::ZERO, blank1));
        b.push(Inst::Marker(MARKER_MISS_START));

        // --- 3. miss groups ---
        // Two nested loops replace Fig. 6's `num_accesses % CM` check
        // (the mini-ISA has no division): the outer loop runs `TM/CM`
        // groups, the inner loop performs `CM` randomized loads, and the
        // micro function call sits between groups. A trailing partial
        // group covers `TM % CM`. Keeping this a loop (rather than
        // unrolling) matches the paper's tiny code footprint, so the
        // section produces data misses only.
        let full_groups = self.total_misses / self.consecutive_misses;
        let remainder = self.total_misses % self.consecutive_misses;
        let page_mask = (self.pages - 1) as i64;
        let line_mask = (PAGE_BYTES / LINE_BYTES - 1) as i64;
        let outer = Reg(10);

        let emit_group_loop =
            |b: &mut emprof_sim::isa::ProgramBuilder, groups: u64, per_group: u64| {
                if groups == 0 || per_group == 0 {
                    return;
                }
                b.push(Inst::Li(outer, groups as i64));
                let outer_top = b.label();
                b.push(Inst::Li(i, per_group as i64));
                let group_top = b.label();
                // LCG step: state = state * MUL + 1 — the stand-in for the
                // paper's rand() calls.
                b.push(Inst::Mul(lcg, lcg, lcg_mul));
                b.push(Inst::Addi(lcg, lcg, 1));
                // page = (state >> 33) & (pages - 1), in bytes: << 12.
                b.push(Inst::Srli(tmp, lcg, 33));
                b.push(Inst::Andi(tmp, tmp, page_mask));
                b.push(Inst::Slli(addr, tmp, 12));
                // line = (state >> 17) & (lines/page - 1), in bytes: << 6.
                b.push(Inst::Srli(tmp, lcg, 17));
                b.push(Inst::Andi(tmp, tmp, line_mask));
                b.push(Inst::Slli(tmp, tmp, 6));
                b.push(Inst::Add(addr, addr, tmp));
                b.push(Inst::Add(addr, addr, base));
                b.push(Inst::Ld(val, addr, 0));
                // Address-computation delay: models the real cost of the two
                // rand() library calls between accesses, which is what keeps
                // consecutive dips separated in the captured signal (Fig. 7b).
                b.push(Inst::Li(inner, self.address_compute_iters));
                let delay_top = b.label();
                b.push(Inst::Addi(inner, inner, -1));
                b.push(Inst::Bne(inner, Reg::ZERO, delay_top));
                b.push(Inst::Addi(i, i, -1));
                b.push(Inst::Bne(i, Reg::ZERO, group_top));
                // Micro function call: a short compute loop separating groups.
                b.push(Inst::Li(inner, self.micro_function_iters));
                let micro_top = b.label();
                b.push(Inst::Addi(inner, inner, -1));
                b.push(Inst::Bne(inner, Reg::ZERO, micro_top));
                b.push(Inst::Addi(outer, outer, -1));
                b.push(Inst::Bne(outer, Reg::ZERO, outer_top));
            };
        emit_group_loop(&mut b, full_groups, self.consecutive_misses);
        emit_group_loop(&mut b, u64::from(remainder > 0), remainder);

        b.push(Inst::Marker(MARKER_MISS_END));

        // --- 4. closing identifier blank loop ---
        b.push(Inst::Li(i, self.blank_iters));
        let blank2 = b.label();
        b.push(Inst::Addi(i, i, -1));
        b.push(Inst::Bne(i, Reg::ZERO, blank2));
        b.push(Inst::Halt);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_sim::{DeviceModel, Interpreter, Simulator};

    fn run_on(config: MicrobenchConfig, mut device: DeviceModel) -> emprof_sim::SimResult {
        // Refresh off for exact counting tests.
        device.dram.refresh = emprof_dram::RefreshConfig::disabled();
        let program = config.build().unwrap();
        Simulator::new(device)
            .with_max_cycles(200_000_000)
            .run(Interpreter::new(&program))
    }

    #[test]
    fn paper_points_are_valid() {
        for p in MicrobenchConfig::paper_points() {
            p.validate().unwrap();
        }
    }

    #[test]
    fn generates_close_to_tm_misses_in_window() {
        let config = MicrobenchConfig::new(256, 1);
        let r = run_on(config, DeviceModel::sesc_like());
        let window = r
            .ground_truth
            .marker_window(MARKER_MISS_START, MARKER_MISS_END)
            .expect("markers present");
        let data_misses = r
            .ground_truth
            .misses_in_window(window)
            .filter(|m| !m.is_instr)
            .count() as i64;
        // Random accesses into a 16 MiB array: collisions with cached
        // lines are rare but possible; the paper's own Table IV reports
        // 254-258 for TM=256.
        assert!(
            (data_misses - 256).abs() <= 8,
            "expected ~256 misses, got {data_misses}"
        );
    }

    #[test]
    fn misses_come_in_cm_groups() {
        let config = MicrobenchConfig::new(100, 10);
        let r = run_on(config, DeviceModel::olimex());
        let window = r
            .ground_truth
            .marker_window(MARKER_MISS_START, MARKER_MISS_END)
            .unwrap();
        let misses: Vec<_> = r
            .ground_truth
            .misses_in_window(window)
            .filter(|m| !m.is_instr)
            .collect();
        assert!((misses.len() as i64 - 100).abs() <= 4);
        // Group boundaries: gaps between consecutive misses within a group
        // are much smaller than gaps across the micro-function call.
        let gaps: Vec<u64> = misses
            .windows(2)
            .map(|w| w[1].detect_cycle - w[0].detect_cycle)
            .collect();
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let big_gaps = gaps.iter().filter(|&&g| g > median * 2).count() as i64;
        // ~9 inter-group gaps for 10 groups.
        assert!(
            (big_gaps - 9).abs() <= 3,
            "expected ~9 inter-group gaps, got {big_gaps}"
        );
    }

    #[test]
    fn page_touch_happens_before_markers() {
        let config = MicrobenchConfig::new(64, 1);
        let r = run_on(config, DeviceModel::sesc_like());
        let (start, _) = r
            .ground_truth
            .marker_window(MARKER_MISS_START, MARKER_MISS_END)
            .unwrap();
        // Page touches are all before the first marker: plenty of misses
        // exist before the window.
        let before = r
            .ground_truth
            .misses()
            .iter()
            .filter(|m| !m.is_instr && m.detect_cycle < start)
            .count();
        assert!(
            before as u64 >= config.pages / 2,
            "page touch should miss ~once per page, saw {before}"
        );
    }

    #[test]
    fn blank_loops_are_stall_free() {
        let config = MicrobenchConfig::new(64, 1);
        let r = run_on(config, DeviceModel::sesc_like());
        let (start, end) = r
            .ground_truth
            .marker_window(MARKER_MISS_START, MARKER_MISS_END)
            .unwrap();
        // The stretch just before `start` is the first blank loop: no LLC
        // stalls should begin in its second half.
        let blank_window = (start.saturating_sub(4000), start);
        let stalls = r.ground_truth.llc_stalls_in_window(blank_window).count();
        assert_eq!(stalls, 0, "blank loop contains LLC stalls");
        assert!(end > start);
    }

    #[test]
    fn remainder_group_is_emitted() {
        // TM=256, CM=5: 51 full groups + remainder of 1.
        let config = MicrobenchConfig::new(256, 5);
        let r = run_on(config, DeviceModel::sesc_like());
        let window = r
            .ground_truth
            .marker_window(MARKER_MISS_START, MARKER_MISS_END)
            .unwrap();
        let n = r
            .ground_truth
            .misses_in_window(window)
            .filter(|m| !m.is_instr)
            .count() as i64;
        assert!((n - 256).abs() <= 8, "got {n}");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(MicrobenchConfig::new(0, 1).validate().is_err());
        assert!(MicrobenchConfig::new(10, 20).validate().is_err());
        let mut c = MicrobenchConfig::new(256, 1);
        c.pages = 1000;
        assert!(c.validate().is_err());
        c.pages = 256; // 1 MiB: too small
        assert!(c.validate().is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let config = MicrobenchConfig::new(64, 4);
        let a = run_on(config, DeviceModel::sesc_like());
        let b = run_on(config, DeviceModel::sesc_like());
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.llc_misses, b.stats.llc_misses);
    }
}
