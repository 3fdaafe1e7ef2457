//! The dynamic-instruction interface between programs and the pipeline.
//!
//! The simulator is *functional-first*: instruction semantics (register
//! values, computed addresses, branch outcomes) are resolved by an
//! [`InstructionSource`] before timing simulation, and the pipeline then
//! charges cycles to the resulting dynamic instruction stream. This is the
//! standard decoupled-simulator structure (SESC works the same way) and it
//! lets the SPEC-like workload generators feed the pipeline synthetic
//! streams through the very same interface the real interpreter uses.

use crate::isa::Reg;

/// Execution class of a dynamic instruction, with its operands resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynOp {
    /// Single-cycle integer operation.
    Alu {
        /// Destination register, if any.
        dst: Option<Reg>,
        /// Source registers (unused slots are `None`).
        srcs: [Option<Reg>; 2],
    },
    /// Multi-cycle integer multiply.
    Mul {
        /// Destination register.
        dst: Reg,
        /// Source registers.
        srcs: [Option<Reg>; 2],
    },
    /// A load from the resolved effective address.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address register the load depends on (drives pointer-chasing
        /// serialization).
        addr_src: Option<Reg>,
        /// Resolved effective address.
        addr: u64,
    },
    /// A store to the resolved effective address.
    Store {
        /// Data and address source registers.
        srcs: [Option<Reg>; 2],
        /// Resolved effective address.
        addr: u64,
    },
    /// A resolved conditional or unconditional branch.
    Branch {
        /// Source registers compared by the branch.
        srcs: [Option<Reg>; 2],
        /// Whether the branch was taken (taken branches cost a fetch
        /// bubble in the in-order pipeline).
        taken: bool,
    },
    /// Zero-cost simulator marker (see [`crate::isa::Inst::Marker`]).
    Marker(u32),
    /// No operation (occupies an issue slot).
    Nop,
}

impl DynOp {
    /// Destination register written by this operation.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            DynOp::Alu { dst, .. } => dst,
            DynOp::Mul { dst, .. } => Some(dst),
            DynOp::Load { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Source registers this operation must wait for.
    pub fn srcs(&self) -> [Option<Reg>; 2] {
        match *self {
            DynOp::Alu { srcs, .. } | DynOp::Mul { srcs, .. } => srcs,
            DynOp::Load { addr_src, .. } => [addr_src, None],
            DynOp::Store { srcs, .. } => srcs,
            DynOp::Branch { srcs, .. } => srcs,
            DynOp::Marker(_) | DynOp::Nop => [None, None],
        }
    }

    /// Whether this operation accesses data memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, DynOp::Load { .. } | DynOp::Store { .. })
    }
}

/// One dynamic (executed) instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// The byte address the instruction was fetched from; drives the
    /// instruction-cache model.
    pub pc: u64,
    /// The resolved operation.
    pub op: DynOp,
}

/// A stream of dynamic instructions for the pipeline to time.
///
/// Implementations: [`crate::Interpreter`] (real mini-ISA execution) and
/// the trace generators in the workloads crate.
///
/// A stream must not depend on when it is pulled: the pipeline reads it
/// ahead of fetch, a block at a time through [`InstructionSource::fill`],
/// so the `n`-th instruction has to be the same whatever cycle it is
/// asked for in. Once a source has returned `None`, the pipeline never
/// pulls it again.
pub trait InstructionSource {
    /// Produces the next dynamic instruction, or `None` when the program
    /// has halted.
    fn next_inst(&mut self) -> Option<DynInst>;

    /// Appends the next `max` instructions of the stream to `out`, or
    /// fewer when it ends: appending fewer than `max` means the stream
    /// has ended. Never pulls past the end.
    ///
    /// Equal to calling [`InstructionSource::next_inst`] until it returns
    /// `None` or `max` instructions are appended, which is what the
    /// provided method does; a source overrides it only to produce the
    /// same instructions faster.
    fn fill(&mut self, out: &mut Vec<DynInst>, max: usize) {
        for _ in 0..max {
            match self.next_inst() {
                Some(inst) => out.push(inst),
                None => return,
            }
        }
    }
}

/// Adapts any iterator of [`DynInst`] into an [`InstructionSource`];
/// convenient for tests and synthetic traces.
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    iter: I,
}

impl<I: Iterator<Item = DynInst>> IterSource<I> {
    /// Wraps an iterator.
    pub fn new(iter: I) -> Self {
        IterSource { iter }
    }
}

impl<I: Iterator<Item = DynInst>> InstructionSource for IterSource<I> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.iter.next()
    }
}

impl<I: Iterator<Item = DynInst>> From<I> for IterSource<I> {
    fn from(iter: I) -> Self {
        IterSource::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynop_dst_and_srcs() {
        let load = DynOp::Load {
            dst: Reg(5),
            addr_src: Some(Reg(3)),
            addr: 0x100,
        };
        assert_eq!(load.dst(), Some(Reg(5)));
        assert_eq!(load.srcs(), [Some(Reg(3)), None]);
        assert!(load.is_mem());

        let alu = DynOp::Alu {
            dst: Some(Reg(1)),
            srcs: [Some(Reg(2)), Some(Reg(3))],
        };
        assert!(!alu.is_mem());
        assert_eq!(alu.dst(), Some(Reg(1)));

        let branch = DynOp::Branch {
            srcs: [Some(Reg(1)), None],
            taken: true,
        };
        assert_eq!(branch.dst(), None);
    }

    #[test]
    fn iter_source_drains() {
        let insts = vec![
            DynInst {
                pc: 0,
                op: DynOp::Nop,
            },
            DynInst {
                pc: 4,
                op: DynOp::Nop,
            },
        ];
        let mut src = IterSource::new(insts.into_iter());
        assert!(src.next_inst().is_some());
        assert!(src.next_inst().is_some());
        assert!(src.next_inst().is_none());
    }
}
