//! Property-based tests on the simulator and DRAM substrates.

use emprof::dram::{DramConfig, MemoryController, RefreshConfig};
use emprof::sim::cache::{Cache, CacheConfig, Replacement};
use emprof::sim::isa::{Inst, Program, Reg};
use emprof::sim::{DeviceModel, InstructionSource, Interpreter, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cache never reports more lines resident than its capacity: after
    /// any access sequence, the number of distinct addresses that probe as
    /// hits is bounded by the line count.
    #[test]
    fn cache_capacity_is_respected(
        addrs in prop::collection::vec(0u64..1_000_000, 1..400),
        ways in 1usize..8,
    ) {
        let config = CacheConfig {
            size_bytes: 64 * 16 * ways as u64, // 16 sets
            ways,
            line_bytes: 64,
            replacement: Replacement::Random,
        };
        let mut cache = Cache::new(config, 1);
        for &a in &addrs {
            cache.access(a, false);
        }
        let mut resident = std::collections::HashSet::new();
        for &a in &addrs {
            if cache.probe(a) {
                resident.insert(a / 64);
            }
        }
        prop_assert!(resident.len() as u64 <= 16 * ways as u64);
    }

    /// Hits plus misses always equals accesses, and a repeated address is
    /// a hit immediately after being accessed.
    #[test]
    fn cache_accounting_is_exact(
        addrs in prop::collection::vec(0u64..100_000, 1..300),
    ) {
        let mut cache = Cache::new(CacheConfig::new(8192, 4), 9);
        for &a in &addrs {
            cache.access(a, false);
            prop_assert!(cache.probe(a), "line must be resident right after access");
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    }

    /// DRAM completion times are monotone non-decreasing along a request
    /// stream (no request completes before an earlier one to the same
    /// bank), and every latency is positive and bounded.
    #[test]
    fn dram_latencies_are_sane(
        addrs in prop::collection::vec(0u64..(64u64 << 20), 1..200),
        spacing in 1.0f64..500.0,
    ) {
        let config = DramConfig {
            refresh: RefreshConfig::disabled(),
            ..DramConfig::h5tq2g63bfr()
        };
        let worst = config.worst_case_access_ns();
        let mut mem = MemoryController::new(config);
        let mut now = 0.0;
        for &a in &addrs {
            let r = mem.access(a, now, false);
            let latency = r.complete_ns - now;
            prop_assert!(latency > 0.0);
            // A request can wait behind at most the full queue of earlier
            // requests on its bank.
            prop_assert!(latency <= worst * addrs.len() as f64 + 1.0);
            now += spacing;
        }
        prop_assert_eq!(mem.access_count(), addrs.len() as u64);
    }

    /// The interpreter computes the same register state as a direct
    /// evaluation of a random straight-line ALU program.
    #[test]
    fn interpreter_matches_reference_alu(
        ops in prop::collection::vec((0u8..6, 1u8..8, 1u8..8, 1u8..8, -100i64..100), 1..60),
    ) {
        let mut b = Program::builder();
        for r in 1..8u8 {
            b.push(Inst::Li(Reg(r), r as i64 * 7));
        }
        for &(op, d, a, x, imm) in &ops {
            let (d, a, x) = (Reg(d), Reg(a), Reg(x));
            b.push(match op {
                0 => Inst::Add(d, a, x),
                1 => Inst::Sub(d, a, x),
                2 => Inst::Xor(d, a, x),
                3 => Inst::And(d, a, x),
                4 => Inst::Or(d, a, x),
                _ => Inst::Addi(d, a, imm),
            });
        }
        b.push(Inst::Halt);
        let program = b.build().unwrap();
        let mut interp = Interpreter::new(&program);
        while interp.next_inst().is_some() {}

        // Reference evaluation.
        let mut regs = [0u64; 32];
        for r in 1..8u8 {
            regs[r as usize] = r as u64 * 7;
        }
        for &(op, d, a, x, imm) in &ops {
            let (av, xv) = (regs[a as usize], regs[x as usize]);
            regs[d as usize] = match op {
                0 => av.wrapping_add(xv),
                1 => av.wrapping_sub(xv),
                2 => av ^ xv,
                3 => av & xv,
                4 => av | xv,
                _ => av.wrapping_add(imm as u64),
            };
        }
        for r in 0..32u8 {
            prop_assert_eq!(interp.reg(Reg(r)), regs[r as usize], "register r{}", r);
        }
    }

    /// Simulator invariants hold for arbitrary small load/compute
    /// programs: power-trace length equals cycle count, stall cycles never
    /// exceed total cycles, and stall intervals are disjoint and ordered.
    #[test]
    fn simulator_invariants(
        loads in prop::collection::vec(0u64..(8u64 << 20), 1..40),
        compute in 1i64..200,
    ) {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), 0x100_0000));
        for (i, &off) in loads.iter().enumerate() {
            b.push(Inst::Li(Reg(2), (off / 64 * 64) as i64));
            b.push(Inst::Add(Reg(2), Reg(2), Reg(1)));
            b.push(Inst::Ld(Reg(3 + (i % 4) as u8), Reg(2), 0));
            b.push(Inst::Li(Reg(10), compute));
            let top = b.label();
            b.push(Inst::Addi(Reg(10), Reg(10), -1));
            b.push(Inst::Bne(Reg(10), Reg::ZERO, top));
        }
        b.push(Inst::Halt);
        let program = b.build().unwrap();
        let result = Simulator::new(DeviceModel::olimex())
            .with_max_cycles(50_000_000)
            .run(Interpreter::new(&program));

        prop_assert_eq!(result.power.len() as u64, result.stats.cycles);
        prop_assert!(result.stats.stall_cycles <= result.stats.cycles);
        prop_assert!(result.stats.llc_stall_cycles <= result.stats.stall_cycles);
        for pair in result.ground_truth.stalls().windows(2) {
            prop_assert!(pair[0].end_cycle <= pair[1].start_cycle);
        }
        for m in result.ground_truth.misses() {
            prop_assert!(m.complete_cycle > m.detect_cycle);
        }
    }
}
