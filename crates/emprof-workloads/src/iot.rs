//! IoT application kernels, as real mini-ISA programs.
//!
//! The paper motivates EMPROF with embedded, hand-held and IoT devices:
//! real-time code that changes behaviour under profiling overhead and
//! hardware too small to host a profiler. These kernels model the
//! memory-behaviour classes such firmware actually contains, so the
//! examples and benches can exercise EMPROF on IoT-shaped work rather
//! than only on SPEC lookalikes:
//!
//! * [`sensor_filter`] — a fixed-point FIR over a small circular buffer:
//!   cache-resident, nearly stall-free (the healthy baseline),
//! * [`block_transfer`] — buffer-to-buffer copy of fresh data (a radio or
//!   camera DMA consumer): streaming misses a prefetcher can hide,
//! * [`table_crypto`] — a table-driven cipher round over an S-box sized
//!   against the LLC: random lookups that defeat prefetching (the paper's
//!   microbenchmark pattern, occurring in real firmware).

use emprof_sim::isa::{Inst, Program, ProgramError, Reg};

/// Marker bracketing the kernels' measured section.
pub const MARKER_KERNEL_START: u32 = 20;
/// Marker ending the kernels' measured section.
pub const MARKER_KERNEL_END: u32 = 21;

/// A fixed-point FIR filter over a circular sample buffer.
///
/// `taps` filter taps over a `buffer_len`-sample window, `samples`
/// outputs produced. Everything fits the L1, so a profile of this kernel
/// should be nearly stall-free — the control case.
///
/// # Errors
///
/// Propagates [`ProgramError`] from assembly.
pub fn sensor_filter(taps: i64, buffer_len: i64, samples: i64) -> Result<Program, ProgramError> {
    let mut b = Program::builder();
    let buf = Reg(1); // sample buffer base
    let coeff = Reg(2); // coefficient table base
    let acc = Reg(3);
    let i = Reg(4);
    let j = Reg(5);
    let addr = Reg(6);
    let v = Reg(7);
    let c = Reg(8);
    let nsamp = Reg(9);
    let idx = Reg(10);
    let mask = Reg(11);

    b.push(Inst::Li(buf, 0x10_0000));
    b.push(Inst::Li(coeff, 0x11_0000));
    b.push(Inst::Li(mask, buffer_len - 1));
    b.push(Inst::Li(nsamp, samples));
    b.push(Inst::Marker(MARKER_KERNEL_START));
    let outer = b.label();
    b.push(Inst::Li(acc, 0));
    b.push(Inst::Li(j, 0));
    b.push(Inst::Li(i, taps));
    let inner = b.label();
    // v = buf[(nsamp + j) & mask]; c = coeff[j]; acc += v * c
    b.push(Inst::Add(idx, nsamp, j));
    b.push(Inst::And(idx, idx, mask));
    b.push(Inst::Slli(addr, idx, 3));
    b.push(Inst::Add(addr, addr, buf));
    b.push(Inst::Ld(v, addr, 0));
    b.push(Inst::Slli(addr, j, 3));
    b.push(Inst::Add(addr, addr, coeff));
    b.push(Inst::Ld(c, addr, 0));
    b.push(Inst::Mul(v, v, c));
    b.push(Inst::Add(acc, acc, v));
    b.push(Inst::Addi(j, j, 1));
    b.push(Inst::Addi(i, i, -1));
    b.push(Inst::Bne(i, Reg::ZERO, inner));
    // Store the output sample back into the buffer.
    b.push(Inst::And(idx, nsamp, mask));
    b.push(Inst::Slli(addr, idx, 3));
    b.push(Inst::Add(addr, addr, buf));
    b.push(Inst::St(acc, addr, 0));
    b.push(Inst::Addi(nsamp, nsamp, -1));
    b.push(Inst::Bne(nsamp, Reg::ZERO, outer));
    b.push(Inst::Marker(MARKER_KERNEL_END));
    b.push(Inst::Halt);
    b.build()
}

/// A block transfer: copy `blocks` fresh 4 KiB buffers (as a radio/camera
/// pipeline does), reading cold data and writing a reused destination.
///
/// # Errors
///
/// Propagates [`ProgramError`] from assembly.
pub fn block_transfer(blocks: i64) -> Result<Program, ProgramError> {
    let mut b = Program::builder();
    let src = Reg(1);
    let dst = Reg(2);
    let i = Reg(3);
    let blk = Reg(4);
    let v = Reg(5);
    let saddr = Reg(6);
    let daddr = Reg(7);

    b.push(Inst::Li(src, 0x4000_0000)); // cold region: fresh data
    b.push(Inst::Li(dst, 0x20_0000)); // warm destination
    b.push(Inst::Li(blk, blocks));
    b.push(Inst::Add(saddr, src, Reg::ZERO));
    b.push(Inst::Add(daddr, dst, Reg::ZERO));
    b.push(Inst::Addi(src, src, 4096));
    b.push(Inst::Marker(MARKER_KERNEL_START));
    let per_block = b.label();
    b.push(Inst::Li(i, 4096 / 8));
    let word = b.label();
    b.push(Inst::Ld(v, saddr, 0));
    b.push(Inst::St(v, daddr, 0));
    b.push(Inst::Addi(saddr, saddr, 8));
    b.push(Inst::Addi(daddr, daddr, 8));
    b.push(Inst::Addi(i, i, -1));
    b.push(Inst::Bne(i, Reg::ZERO, word));
    // Next block: fresh source page, same destination buffer.
    b.push(Inst::Add(saddr, src, Reg::ZERO));
    b.push(Inst::Add(daddr, dst, Reg::ZERO));
    b.push(Inst::Addi(src, src, 4096));
    b.push(Inst::Addi(blk, blk, -1));
    b.push(Inst::Bne(blk, Reg::ZERO, per_block));
    b.push(Inst::Marker(MARKER_KERNEL_END));
    b.push(Inst::Halt);
    b.build()
}

/// A table-driven cipher round: `lookups` dependent S-box probes into a
/// `table_bytes` table (power of two), with `work_iters` iterations of
/// mixing compute per lookup (the rest of the cipher round). With the
/// table sized beyond the LLC, every probe is a random miss — and each
/// lookup's address depends on the previous lookup's value, the
/// pointer-chase pattern that defeats every prefetcher.
///
/// # Errors
///
/// Propagates [`ProgramError`] from assembly.
///
/// # Panics
///
/// Panics unless `table_bytes` is a power of two and `work_iters > 0`.
pub fn table_crypto(
    lookups: i64,
    table_bytes: u64,
    work_iters: i64,
) -> Result<Program, ProgramError> {
    assert!(
        table_bytes.is_power_of_two(),
        "table size must be a power of two, got {table_bytes}"
    );
    assert!(work_iters > 0, "work_iters must be positive");
    let mut b = Program::builder();
    let table = Reg(1);
    let state = Reg(2);
    let lcg_mul = Reg(3);
    let n = Reg(4);
    let addr = Reg(5);
    let v = Reg(6);
    let mask = Reg(7);

    b.push(Inst::Li(table, 0x30_0000));
    b.push(Inst::Li(state, 0x0BAD_CAFE));
    b.push(Inst::Li(lcg_mul, 6364136223846793005u64 as i64));
    b.push(Inst::Li(mask, (table_bytes - 1) as i64 & !63));
    b.push(Inst::Li(n, lookups));
    b.push(Inst::Marker(MARKER_KERNEL_START));
    let round = b.label();
    // state = state * M + 1; mix in the loaded value so the chain depends
    // on memory (true pointer chasing).
    b.push(Inst::Mul(state, state, lcg_mul));
    b.push(Inst::Addi(state, state, 1));
    b.push(Inst::Srli(addr, state, 17));
    b.push(Inst::And(addr, addr, mask));
    b.push(Inst::Add(addr, addr, table));
    b.push(Inst::Ld(v, addr, 0));
    b.push(Inst::Xor(state, state, v));
    // The rest of the cipher round: dependent mixing compute, which also
    // separates consecutive lookup stalls in the captured signal.
    let w = Reg(8);
    b.push(Inst::Li(w, work_iters));
    let mix = b.label();
    b.push(Inst::Addi(w, w, -1));
    b.push(Inst::Bne(w, Reg::ZERO, mix));
    b.push(Inst::Addi(n, n, -1));
    b.push(Inst::Bne(n, Reg::ZERO, round));
    b.push(Inst::Marker(MARKER_KERNEL_END));
    b.push(Inst::Halt);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_sim::{DeviceModel, Interpreter, Simulator};

    fn run(program: Program) -> emprof_sim::SimResult {
        let mut device = DeviceModel::olimex();
        device.dram.refresh = emprof_dram::RefreshConfig::disabled();
        Simulator::new(device)
            .with_max_cycles(200_000_000)
            .run(Interpreter::new(&program))
    }

    fn kernel_misses(r: &emprof_sim::SimResult) -> usize {
        let w = r
            .ground_truth
            .marker_window(MARKER_KERNEL_START, MARKER_KERNEL_END)
            .expect("kernel markers present");
        r.ground_truth
            .misses_in_window(w)
            .filter(|m| !m.is_instr)
            .count()
    }

    #[test]
    fn sensor_filter_is_cache_resident() {
        let r = run(sensor_filter(16, 64, 2000).unwrap());
        // 16 taps * 2000 samples = 32k loads; only the cold touches miss.
        assert!(
            kernel_misses(&r) < 40,
            "filter kernel missed {} times",
            kernel_misses(&r)
        );
        assert!(r.stats.instructions > 30_000 * 2);
    }

    #[test]
    fn block_transfer_misses_once_per_source_line() {
        let blocks = 32;
        let r = run(block_transfer(blocks).unwrap());
        let lines = blocks as usize * 4096 / 64;
        let misses = kernel_misses(&r);
        // Source lines are fresh (one miss each); the 4 KiB destination
        // stays resident.
        assert!(
            misses >= lines && misses < lines + lines / 4,
            "copy kernel: {misses} misses for {lines} fresh lines"
        );
    }

    #[test]
    fn table_crypto_misses_when_table_exceeds_llc() {
        let r = run(table_crypto(512, 8 << 20, 40).unwrap());
        let misses = kernel_misses(&r);
        assert!(
            misses > 480,
            "big-table crypto should miss on ~every lookup, got {misses}"
        );
    }

    #[test]
    fn table_crypto_hits_when_table_fits_l1() {
        let r = run(table_crypto(4096, 16 << 10, 40).unwrap());
        let misses = kernel_misses(&r);
        // 16 KiB = 256 lines: only the cold pass misses.
        assert!(misses <= 256, "small-table crypto missed {misses} times");
    }

    #[test]
    fn crypto_chain_depends_on_memory() {
        // The loaded value feeds the next address: with a zero-filled
        // memory the xor is a no-op, but the dependency must still exist
        // structurally — verify by checking the dynamic stream.
        use emprof_sim::{DynOp, InstructionSource};
        let program = table_crypto(4, 1 << 20, 40).unwrap();
        let mut interp = Interpreter::new(&program);
        let mut saw_load = false;
        while let Some(inst) = interp.next_inst() {
            if let DynOp::Load { .. } = inst.op {
                saw_load = true;
            }
        }
        assert!(saw_load);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn crypto_rejects_odd_table() {
        let _ = table_crypto(10, 1000, 40);
    }
}
