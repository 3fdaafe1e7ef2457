//! The mini load/store ISA executed by the [`crate::Interpreter`].
//!
//! The engineered microbenchmarks of the paper (Fig. 6) compute their own
//! access patterns at run time (an in-program pseudo-random generator picks
//! a page and cache line per access), so they must execute on a *real*
//! instruction set with real register values — a statistical trace
//! generator cannot express them faithfully. This module defines a small
//! RISC-style ISA with just enough coverage for those workloads: integer
//! ALU operations, loads/stores, conditional branches, plus two simulator
//! pseudo-instructions ([`Inst::Marker`] and [`Inst::Halt`]).

use std::fmt;

/// A register name, `Reg(0)` through `Reg(31)`. `Reg(0)` reads as zero and
/// ignores writes, like RISC-V's `x0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

impl Reg {
    /// The hard-wired zero register.
    pub const ZERO: Reg = Reg(0);

    /// Whether this is a valid register name.
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < NUM_REGS
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A branch/jump target produced by [`ProgramBuilder::label`] or
/// [`ProgramBuilder::forward_label`].
///
/// Labels are indices into the builder's label table; [`ProgramBuilder::build`]
/// resolves them to instruction positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// One mini-ISA instruction.
///
/// Three-register forms are `op(dst, src1, src2)`; immediate forms are
/// `op(dst, src, imm)`. Memory operands are `(reg, base, offset)` with the
/// effective address `regs[base] + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `dst = src1 + src2`
    Add(Reg, Reg, Reg),
    /// `dst = src1 - src2`
    Sub(Reg, Reg, Reg),
    /// `dst = src1 * src2` (multi-cycle latency in the pipeline)
    Mul(Reg, Reg, Reg),
    /// `dst = src1 & src2`
    And(Reg, Reg, Reg),
    /// `dst = src1 | src2`
    Or(Reg, Reg, Reg),
    /// `dst = src1 ^ src2`
    Xor(Reg, Reg, Reg),
    /// `dst = src1 << (src2 & 63)`
    Sll(Reg, Reg, Reg),
    /// `dst = src1 >> (src2 & 63)` (logical)
    Srl(Reg, Reg, Reg),
    /// `dst = src + imm`
    Addi(Reg, Reg, i64),
    /// `dst = src & imm`
    Andi(Reg, Reg, i64),
    /// `dst = src << imm` (imm masked to 63)
    Slli(Reg, Reg, u8),
    /// `dst = src >> imm` (logical, imm masked to 63)
    Srli(Reg, Reg, u8),
    /// `dst = imm` (pseudo-instruction; executes as one ALU op)
    Li(Reg, i64),
    /// `dst = mem[base + offset]` (64-bit load)
    Ld(Reg, Reg, i64),
    /// `mem[base + offset] = src` (64-bit store)
    St(Reg, Reg, i64),
    /// Branch to `target` if `src1 == src2`
    Beq(Reg, Reg, Label),
    /// Branch to `target` if `src1 != src2`
    Bne(Reg, Reg, Label),
    /// Branch to `target` if `src1 < src2` (signed)
    Blt(Reg, Reg, Label),
    /// Branch to `target` if `src1 >= src2` (signed)
    Bge(Reg, Reg, Label),
    /// Unconditional jump to `target`
    J(Label),
    /// No operation.
    Nop,
    /// Simulator pseudo-instruction: records the current cycle under the
    /// given marker ID in the ground truth, with zero timing cost. The
    /// microbenchmark brackets its miss-generating section with markers so
    /// the harness can isolate that section in the signal, mirroring how
    /// the paper isolates it between two recognizable "blank loops".
    Marker(u32),
    /// Stops execution.
    Halt,
}

impl Inst {
    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        use Inst::*;
        match *self {
            Add(d, ..)
            | Sub(d, ..)
            | Mul(d, ..)
            | And(d, ..)
            | Or(d, ..)
            | Xor(d, ..)
            | Sll(d, ..)
            | Srl(d, ..)
            | Addi(d, ..)
            | Andi(d, ..)
            | Slli(d, ..)
            | Srli(d, ..)
            | Li(d, ..)
            | Ld(d, ..) => Some(d),
            _ => None,
        }
    }

    /// The source registers read by this instruction.
    pub fn srcs(&self) -> Vec<Reg> {
        use Inst::*;
        match *self {
            Add(_, a, b)
            | Sub(_, a, b)
            | Mul(_, a, b)
            | And(_, a, b)
            | Or(_, a, b)
            | Xor(_, a, b)
            | Sll(_, a, b)
            | Srl(_, a, b) => vec![a, b],
            Addi(_, a, _) | Andi(_, a, _) | Slli(_, a, _) | Srli(_, a, _) | Ld(_, a, _) => {
                vec![a]
            }
            St(s, a, _) => vec![s, a],
            Beq(a, b, _) | Bne(a, b, _) | Blt(a, b, _) | Bge(a, b, _) => vec![a, b],
            Li(..) | J(..) | Nop | Marker(..) | Halt => vec![],
        }
    }
}

/// Errors detected when building or validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch references a label that was never bound to a position.
    UnboundLabel(usize),
    /// An instruction names a register outside `r0..r31`.
    InvalidRegister {
        /// Instruction index.
        index: usize,
        /// The offending register.
        reg: Reg,
    },
    /// The program has no `Halt`, so execution would run off the end.
    MissingHalt,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel(i) => write!(f, "label {i} was never bound"),
            ProgramError::InvalidRegister { index, reg } => {
                write!(f, "instruction {index} names invalid register {reg}")
            }
            ProgramError::MissingHalt => write!(f, "program has no halt instruction"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An executable mini-ISA program with all labels resolved.
///
/// Construct through [`Program::builder`]. Instruction `i` nominally lives
/// at byte address `base_pc + 4 * i`; the base defaults to `0x1_0000` and
/// can be relocated with [`ProgramBuilder::base_pc`] so that different
/// code regions (e.g. the three *parser* functions of Table V) occupy
/// distinct instruction-cache footprints.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
    targets: Vec<usize>, // resolved label table
    base_pc: u64,
}

impl Program {
    /// Starts building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::new()
    }

    /// The instruction at position `index`.
    pub fn inst(&self, index: usize) -> Option<Inst> {
        self.insts.get(index).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The byte address of instruction `index`.
    pub fn pc_of(&self, index: usize) -> u64 {
        self.base_pc + 4 * index as u64
    }

    /// Resolves a label to its instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this program.
    pub fn resolve(&self, label: Label) -> usize {
        self.targets[label.0]
    }
}

/// Incremental [`Program`] constructor with label support.
///
/// # Example
///
/// ```
/// use emprof_sim::isa::{Inst, Program, Reg};
///
/// let mut b = Program::builder();
/// let counter = Reg(1);
/// b.push(Inst::Li(counter, 5));
/// let top = b.label();                       // bind a label here
/// b.push(Inst::Addi(counter, counter, -1));
/// b.push(Inst::Bne(counter, Reg::ZERO, top)); // loop back
/// b.push(Inst::Halt);
/// let program = b.build()?;
/// assert_eq!(program.len(), 4);
/// # Ok::<(), emprof_sim::isa::ProgramError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    targets: Vec<Option<usize>>,
    base_pc: u64,
}

impl ProgramBuilder {
    /// Creates an empty builder with the default base PC.
    pub fn new() -> Self {
        ProgramBuilder {
            insts: Vec::new(),
            targets: Vec::new(),
            base_pc: 0x1_0000,
        }
    }

    /// Sets the byte address of the first instruction.
    pub fn base_pc(&mut self, pc: u64) -> &mut Self {
        self.base_pc = pc;
        self
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Creates a label bound to the *next* instruction to be pushed.
    pub fn label(&mut self) -> Label {
        self.targets.push(Some(self.insts.len()));
        Label(self.targets.len() - 1)
    }

    /// Creates an unbound label for a forward branch; bind it later with
    /// [`ProgramBuilder::bind`].
    pub fn forward_label(&mut self) -> Label {
        self.targets.push(None);
        Label(self.targets.len() - 1)
    }

    /// Binds a forward label to the next instruction to be pushed.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (rebinding is almost certainly
    /// a builder bug).
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let slot = &mut self.targets[label.0];
        assert!(slot.is_none(), "label {} bound twice", label.0);
        *slot = Some(self.insts.len());
        self
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no instructions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Validates and finalizes the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if a label is unbound or out of range, a
    /// register is invalid, or the program lacks a `Halt`.
    pub fn build(&self) -> Result<Program, ProgramError> {
        let mut targets = Vec::with_capacity(self.targets.len());
        for (i, t) in self.targets.iter().enumerate() {
            match t {
                Some(pos) => targets.push(*pos),
                None => return Err(ProgramError::UnboundLabel(i)),
            }
        }
        for (index, inst) in self.insts.iter().enumerate() {
            for reg in inst.srcs().into_iter().chain(inst.dst()) {
                if !reg.is_valid() {
                    return Err(ProgramError::InvalidRegister { index, reg });
                }
            }
        }
        if !self.insts.iter().any(|i| matches!(i, Inst::Halt)) {
            return Err(ProgramError::MissingHalt);
        }
        Ok(Program {
            insts: self.insts.clone(),
            targets,
            base_pc: self.base_pc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_loop() {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(1), 3));
        let top = b.label();
        b.push(Inst::Addi(Reg(1), Reg(1), -1));
        b.push(Inst::Bne(Reg(1), Reg::ZERO, top));
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.resolve(top), 1);
    }

    #[test]
    fn forward_label_binds() {
        let mut b = Program::builder();
        let end = b.forward_label();
        b.push(Inst::Beq(Reg::ZERO, Reg::ZERO, end));
        b.push(Inst::Nop);
        b.bind(end);
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.resolve(end), 2);
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = Program::builder();
        let end = b.forward_label();
        b.push(Inst::J(end));
        b.push(Inst::Halt);
        assert_eq!(b.build().unwrap_err(), ProgramError::UnboundLabel(0));
    }

    #[test]
    fn invalid_register_is_error() {
        let mut b = Program::builder();
        b.push(Inst::Li(Reg(40), 1));
        b.push(Inst::Halt);
        assert!(matches!(
            b.build().unwrap_err(),
            ProgramError::InvalidRegister { index: 0, .. }
        ));
    }

    #[test]
    fn missing_halt_is_error() {
        let mut b = Program::builder();
        b.push(Inst::Nop);
        assert_eq!(b.build().unwrap_err(), ProgramError::MissingHalt);
    }

    #[test]
    fn pc_layout() {
        let mut b = Program::builder();
        b.base_pc(0x4000);
        b.push(Inst::Nop);
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.pc_of(0), 0x4000);
        assert_eq!(p.pc_of(1), 0x4004);
    }

    #[test]
    fn dst_and_srcs_extraction() {
        let i = Inst::Add(Reg(3), Reg(1), Reg(2));
        assert_eq!(i.dst(), Some(Reg(3)));
        assert_eq!(i.srcs(), vec![Reg(1), Reg(2)]);

        let s = Inst::St(Reg(5), Reg(6), 8);
        assert_eq!(s.dst(), None);
        assert_eq!(s.srcs(), vec![Reg(5), Reg(6)]);

        let m = Inst::Marker(7);
        assert_eq!(m.dst(), None);
        assert!(m.srcs().is_empty());
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_label_panics() {
        let mut b = Program::builder();
        let l = b.label();
        b.bind(l);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProgramError::InvalidRegister {
            index: 3,
            reg: Reg(99),
        };
        assert!(e.to_string().contains("r99"));
    }
}
