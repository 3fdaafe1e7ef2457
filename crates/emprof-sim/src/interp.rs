//! Functional interpreter for mini-ISA [`Program`]s.
//!
//! Executes instruction semantics (register file, sparse data memory,
//! branch resolution) and exposes the resulting dynamic stream through
//! [`InstructionSource`] for the timing pipeline to consume.

use std::collections::HashMap;

use crate::isa::{Inst, Program, Reg, NUM_REGS};
use crate::source::{DynInst, DynOp, InstructionSource};

/// Byte-addressable sparse memory backed by 4 KiB pages.
///
/// Pages materialize on first write; reads of untouched memory return
/// zero. The engineered workloads touch up to tens of megabytes, far less
/// than would justify a flat allocation.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

const PAGE_SIZE: usize = 4096;

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Reads a little-endian 64-bit word; unaligned access is allowed.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian 64-bit word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr + i as u64, b);
        }
    }

    fn read_u8(&self, addr: u64) -> u8 {
        let page = addr / PAGE_SIZE as u64;
        let off = (addr % PAGE_SIZE as u64) as usize;
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        let page = addr / PAGE_SIZE as u64;
        let off = (addr % PAGE_SIZE as u64) as usize;
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))[off] = value;
    }

    /// Number of materialized pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Functional executor of one [`Program`].
///
/// Yields each executed instruction (with addresses and branch outcomes
/// resolved) until `Halt`; also enforces an instruction budget so a buggy
/// workload cannot hang the simulator.
///
/// # Example
///
/// ```
/// use emprof_sim::isa::{Inst, Program, Reg};
/// use emprof_sim::{Interpreter, InstructionSource};
///
/// let mut b = Program::builder();
/// b.push(Inst::Li(Reg(1), 7));
/// b.push(Inst::St(Reg(1), Reg::ZERO, 0x100));
/// b.push(Inst::Ld(Reg(2), Reg::ZERO, 0x100));
/// b.push(Inst::Halt);
/// let p = b.build()?;
/// let mut interp = Interpreter::new(&p);
/// while interp.next_inst().is_some() {}
/// assert_eq!(interp.reg(Reg(2)), 7);
/// # Ok::<(), emprof_sim::isa::ProgramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    program: Program,
    regs: [u64; NUM_REGS],
    memory: SparseMemory,
    pos: usize,
    halted: bool,
    executed: u64,
    budget: u64,
}

/// Default dynamic-instruction budget: generous for every bundled workload
/// while still catching runaway loops.
pub const DEFAULT_INST_BUDGET: u64 = 2_000_000_000;

impl Interpreter {
    /// Creates an interpreter positioned at the program's first
    /// instruction.
    pub fn new(program: &Program) -> Self {
        Interpreter {
            program: program.clone(),
            regs: [0; NUM_REGS],
            memory: SparseMemory::new(),
            pos: 0,
            halted: false,
            executed: 0,
            budget: DEFAULT_INST_BUDGET,
        }
    }

    /// Replaces the instruction budget (see [`DEFAULT_INST_BUDGET`]).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Current value of a register.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
    }

    /// The data memory (for post-run inspection).
    pub fn memory(&self) -> &SparseMemory {
        &self.memory
    }

    /// Dynamic instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    fn set_reg(&mut self, reg: Reg, value: u64) {
        if reg != Reg::ZERO {
            self.regs[reg.0 as usize] = value;
        }
    }

    fn step(&mut self) -> Option<DynInst> {
        if self.halted {
            return None;
        }
        let inst = match self.program.inst(self.pos) {
            Some(i) => i,
            None => {
                // Validated programs always end in Halt, but a trace cut
                // short is treated as termination, not a panic.
                self.halted = true;
                return None;
            }
        };
        if matches!(inst, Inst::Halt) {
            self.halted = true;
            return None;
        }
        assert!(
            self.executed < self.budget,
            "instruction budget ({}) exhausted at position {} — runaway loop?",
            self.budget,
            self.pos
        );
        self.executed += 1;
        let pc = self.program.pc_of(self.pos);
        let mut next = self.pos + 1;
        let r = |reg: Reg, regs: &[u64; NUM_REGS]| regs[reg.0 as usize];

        let two = |a: Reg, b: Reg| [Some(a), Some(b)];
        let op = match inst {
            Inst::Add(d, a, b) => {
                self.set_reg(d, r(a, &self.regs).wrapping_add(r(b, &self.regs)));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: two(a, b),
                }
            }
            Inst::Sub(d, a, b) => {
                self.set_reg(d, r(a, &self.regs).wrapping_sub(r(b, &self.regs)));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: two(a, b),
                }
            }
            Inst::Mul(d, a, b) => {
                self.set_reg(d, r(a, &self.regs).wrapping_mul(r(b, &self.regs)));
                DynOp::Mul {
                    dst: d,
                    srcs: two(a, b),
                }
            }
            Inst::And(d, a, b) => {
                self.set_reg(d, r(a, &self.regs) & r(b, &self.regs));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: two(a, b),
                }
            }
            Inst::Or(d, a, b) => {
                self.set_reg(d, r(a, &self.regs) | r(b, &self.regs));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: two(a, b),
                }
            }
            Inst::Xor(d, a, b) => {
                self.set_reg(d, r(a, &self.regs) ^ r(b, &self.regs));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: two(a, b),
                }
            }
            Inst::Sll(d, a, b) => {
                self.set_reg(d, r(a, &self.regs) << (r(b, &self.regs) & 63));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: two(a, b),
                }
            }
            Inst::Srl(d, a, b) => {
                self.set_reg(d, r(a, &self.regs) >> (r(b, &self.regs) & 63));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: two(a, b),
                }
            }
            Inst::Addi(d, a, imm) => {
                self.set_reg(d, r(a, &self.regs).wrapping_add(imm as u64));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: [Some(a), None],
                }
            }
            Inst::Andi(d, a, imm) => {
                self.set_reg(d, r(a, &self.regs) & imm as u64);
                DynOp::Alu {
                    dst: Some(d),
                    srcs: [Some(a), None],
                }
            }
            Inst::Slli(d, a, imm) => {
                self.set_reg(d, r(a, &self.regs) << (imm & 63));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: [Some(a), None],
                }
            }
            Inst::Srli(d, a, imm) => {
                self.set_reg(d, r(a, &self.regs) >> (imm & 63));
                DynOp::Alu {
                    dst: Some(d),
                    srcs: [Some(a), None],
                }
            }
            Inst::Li(d, imm) => {
                self.set_reg(d, imm as u64);
                DynOp::Alu {
                    dst: Some(d),
                    srcs: [None, None],
                }
            }
            Inst::Ld(d, base, off) => {
                let addr = r(base, &self.regs).wrapping_add(off as u64);
                let value = self.memory.read_u64(addr);
                self.set_reg(d, value);
                DynOp::Load {
                    dst: d,
                    addr_src: Some(base),
                    addr,
                }
            }
            Inst::St(s, base, off) => {
                let addr = r(base, &self.regs).wrapping_add(off as u64);
                self.memory.write_u64(addr, r(s, &self.regs));
                DynOp::Store {
                    srcs: two(s, base),
                    addr,
                }
            }
            Inst::Beq(a, b, l) => {
                let taken = r(a, &self.regs) == r(b, &self.regs);
                if taken {
                    next = self.program.resolve(l);
                }
                DynOp::Branch {
                    srcs: two(a, b),
                    taken,
                }
            }
            Inst::Bne(a, b, l) => {
                let taken = r(a, &self.regs) != r(b, &self.regs);
                if taken {
                    next = self.program.resolve(l);
                }
                DynOp::Branch {
                    srcs: two(a, b),
                    taken,
                }
            }
            Inst::Blt(a, b, l) => {
                let taken = (r(a, &self.regs) as i64) < (r(b, &self.regs) as i64);
                if taken {
                    next = self.program.resolve(l);
                }
                DynOp::Branch {
                    srcs: two(a, b),
                    taken,
                }
            }
            Inst::Bge(a, b, l) => {
                let taken = (r(a, &self.regs) as i64) >= (r(b, &self.regs) as i64);
                if taken {
                    next = self.program.resolve(l);
                }
                DynOp::Branch {
                    srcs: two(a, b),
                    taken,
                }
            }
            Inst::J(l) => {
                next = self.program.resolve(l);
                DynOp::Branch {
                    srcs: [None, None],
                    taken: true,
                }
            }
            Inst::Nop => DynOp::Nop,
            Inst::Marker(id) => DynOp::Marker(id),
            Inst::Halt => unreachable!("halt handled before decode"),
        };
        self.pos = next;
        Some(DynInst { pc, op })
    }
}

impl InstructionSource for Interpreter {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Inst;

    fn run(program: &Program) -> Interpreter {
        let mut interp = Interpreter::new(program);
        while interp.next_inst().is_some() {}
        interp
    }

    #[test]
    fn arithmetic_semantics() {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), 6));
        b.push(Inst::Li(Reg(2), 7));
        b.push(Inst::Mul(Reg(3), Reg(1), Reg(2)));
        b.push(Inst::Add(Reg(4), Reg(3), Reg(1)));
        b.push(Inst::Sub(Reg(5), Reg(3), Reg(2)));
        b.push(Inst::Xor(Reg(6), Reg(1), Reg(2)));
        b.push(Inst::Slli(Reg(7), Reg(1), 4));
        b.push(Inst::Halt);
        let i = run(&b.build().unwrap());
        assert_eq!(i.reg(Reg(3)), 42);
        assert_eq!(i.reg(Reg(4)), 48);
        assert_eq!(i.reg(Reg(5)), 35);
        assert_eq!(i.reg(Reg(6)), 1);
        assert_eq!(i.reg(Reg(7)), 96);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg::ZERO, 99));
        b.push(Inst::Add(Reg(1), Reg::ZERO, Reg::ZERO));
        b.push(Inst::Halt);
        let i = run(&b.build().unwrap());
        assert_eq!(i.reg(Reg::ZERO), 0);
        assert_eq!(i.reg(Reg(1)), 0);
    }

    #[test]
    fn memory_round_trip() {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), 0xDEAD));
        b.push(Inst::Li(Reg(2), 0x2000));
        b.push(Inst::St(Reg(1), Reg(2), 16));
        b.push(Inst::Ld(Reg(3), Reg(2), 16));
        b.push(Inst::Halt);
        let i = run(&b.build().unwrap());
        assert_eq!(i.reg(Reg(3)), 0xDEAD);
    }

    #[test]
    fn loads_report_effective_address() {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), 0x8000));
        b.push(Inst::Ld(Reg(2), Reg(1), 0x40));
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        let mut interp = Interpreter::new(&p);
        interp.next_inst(); // li
        let load = interp.next_inst().unwrap();
        match load.op {
            DynOp::Load { addr, .. } => assert_eq!(addr, 0x8040),
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn loop_executes_expected_count() {
        let n = 100;
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), n));
        let top = b.label();
        b.push(Inst::Addi(Reg(1), Reg(1), -1));
        b.push(Inst::Bne(Reg(1), Reg::ZERO, top));
        b.push(Inst::Halt);
        let i = run(&b.build().unwrap());
        // 1 li + n * (addi + bne)
        assert_eq!(i.executed(), 1 + 2 * n as u64);
    }

    #[test]
    fn branch_outcomes_are_resolved() {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), 1));
        let skip = b.forward_label();
        b.push(Inst::Beq(Reg(1), Reg::ZERO, skip)); // not taken
        b.push(Inst::Li(Reg(2), 5));
        b.bind(skip);
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        let mut interp = Interpreter::new(&p);
        interp.next_inst();
        let br = interp.next_inst().unwrap();
        assert!(matches!(br.op, DynOp::Branch { taken: false, .. }));
        while interp.next_inst().is_some() {}
        assert_eq!(interp.reg(Reg(2)), 5);
    }

    #[test]
    fn reading_unwritten_memory_is_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read_u64(0xABCD_EF01), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn unaligned_word_access() {
        let mut mem = SparseMemory::new();
        mem.write_u64(PAGE_SIZE as u64 - 3, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(PAGE_SIZE as u64 - 3), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2); // straddles a page boundary
    }

    #[test]
    fn markers_pass_through() {
        let mut b = Program::builder();
        b.push(Inst::Marker(42));
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        let mut interp = Interpreter::new(&p);
        assert!(matches!(interp.next_inst().unwrap().op, DynOp::Marker(42)));
    }

    #[test]
    #[should_panic(expected = "instruction budget")]
    fn runaway_loop_trips_budget() {
        let mut b = Program::builder();
        let top = b.label();
        b.push(Inst::J(top));
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        let mut interp = Interpreter::new(&p).with_budget(1000);
        while interp.next_inst().is_some() {}
    }

    #[test]
    fn pc_advances_by_four() {
        let mut b = Program::builder();
        b.push(Inst::Nop);
        b.push(Inst::Nop);
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        let mut interp = Interpreter::new(&p);
        let a = interp.next_inst().unwrap().pc;
        let b2 = interp.next_inst().unwrap().pc;
        assert_eq!(b2, a + 4);
    }
}
