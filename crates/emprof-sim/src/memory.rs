//! The memory hierarchy: L1 I$/D$, unified LLC, MSHRs, prefetcher, DRAM.
//!
//! Ties the cache models, the stride prefetcher, and the DRAM controller
//! into the two access paths the pipeline uses (instruction fetch and
//! data), tracking outstanding misses so that concurrent misses overlap
//! (MLP, Fig. 3a) and repeated accesses to an in-flight line merge instead
//! of double-counting.

use emprof_dram::{CasTrace, MemoryController};

use crate::cache::Cache;
use crate::device::DeviceModel;
use crate::prefetch::StridePrefetcher;

/// Where an access was satisfied and when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// Cycle at which the requested data is available.
    pub ready_cycle: u64,
    /// Satisfied directly by the L1.
    pub l1_hit: bool,
    /// L1 miss that hit the LLC.
    pub llc_hit: bool,
    /// L1 miss that also missed the LLC (went to DRAM). When set and the
    /// line was not already in flight, the caller records a ground-truth
    /// miss.
    pub llc_miss: bool,
    /// The DRAM access collided with refresh (only meaningful with
    /// `llc_miss`).
    pub refresh_collision: bool,
    /// The LLC was looked up (for the power model).
    pub llc_accessed: bool,
    /// The access merged into an already-outstanding miss for the same
    /// line (no new miss event).
    pub merged: bool,
}

/// Error returned when a data miss cannot allocate an MSHR; the pipeline
/// must stall issue and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFull;

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    line: u64,
    ready_cycle: u64,
    llc_miss: bool,
    refresh: bool,
    is_instr: bool,
}

/// Summary of in-flight misses at some cycle, for stall attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutstandingSummary {
    /// Any LLC miss (instruction or data) in flight.
    pub llc_miss: bool,
    /// Any in-flight LLC miss that collided with refresh.
    pub refresh: bool,
    /// Any L1 miss (LLC hit) in flight.
    pub l1_miss: bool,
}

/// Aggregate hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Data accesses issued to the hierarchy.
    pub data_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// Instruction-line fetches issued to the hierarchy.
    pub instr_accesses: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// LLC lookups.
    pub llc_accesses: u64,
    /// Demand LLC misses (merged accesses not double-counted).
    pub llc_misses: u64,
    /// LLC misses that collided with DRAM refresh.
    pub refresh_collisions: u64,
    /// Prefetch lines inserted into the LLC.
    pub prefetches: u64,
}

/// The full memory system of one simulated device.
pub struct MemorySystem {
    l1i: Cache,
    l1d: Cache,
    llc: Cache,
    dram: MemoryController,
    prefetcher: Option<StridePrefetcher>,
    outstanding: Vec<Outstanding>,
    /// Earliest `ready_cycle` in `outstanding` (`u64::MAX` when empty),
    /// so that retiring is a compare on every cycle and a scan only on
    /// the cycles where some miss actually completes.
    next_ready: u64,
    mshrs: usize,
    l1_hit_latency: u64,
    llc_hit_latency: u64,
    mem_overhead_ns: f64,
    clock_hz: f64,
    stats: MemStats,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("outstanding", &self.outstanding.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Builds the hierarchy for a device. `seed` drives the random
    /// replacement policies.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry in the device is invalid (already
    /// guarded by [`DeviceModel::validate`] in the simulator).
    pub fn new(device: &DeviceModel, seed: u64) -> Self {
        MemorySystem {
            l1i: Cache::new(device.l1i, seed ^ 0x1111),
            l1d: Cache::new(device.l1d, seed ^ 0x2222),
            llc: Cache::new(device.llc, seed ^ 0x3333),
            dram: MemoryController::new(device.dram.clone()),
            prefetcher: device.prefetcher.map(StridePrefetcher::new),
            outstanding: Vec::new(),
            next_ready: u64::MAX,
            mshrs: device.mshrs,
            l1_hit_latency: device.l1_hit_latency,
            llc_hit_latency: device.llc_hit_latency,
            mem_overhead_ns: device.mem_overhead_ns,
            clock_hz: device.clock_hz,
            stats: MemStats::default(),
        }
    }

    fn cycles_to_ns(&self, cycle: u64) -> f64 {
        cycle as f64 / self.clock_hz * 1e9
    }

    fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.clock_hz / 1e9).ceil() as u64
    }

    /// Drops completed misses, freeing their MSHRs. Call once per cycle
    /// before issuing. Only scans the in-flight misses once the earliest
    /// of them is due.
    pub fn retire_completed(&mut self, now: u64) {
        if now < self.next_ready {
            return;
        }
        self.outstanding.retain(|o| o.ready_cycle > now);
        self.next_ready = self
            .outstanding
            .iter()
            .map(|o| o.ready_cycle)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Summarizes in-flight misses for stall attribution.
    pub fn outstanding_summary(&self, now: u64) -> OutstandingSummary {
        let mut s = OutstandingSummary::default();
        for o in &self.outstanding {
            if o.ready_cycle > now {
                if o.llc_miss {
                    s.llc_miss = true;
                    s.refresh |= o.refresh;
                } else {
                    s.l1_miss = true;
                }
            }
        }
        s
    }

    /// Number of data MSHRs currently allocated.
    fn data_mshrs_in_use(&self) -> usize {
        self.outstanding.iter().filter(|o| !o.is_instr).count()
    }

    /// Issues a data access (load or store) at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when the access misses the L1, does not merge
    /// with an in-flight line, and all MSHRs are busy — the pipeline must
    /// stall and retry.
    pub fn access_data(
        &mut self,
        pc: u64,
        addr: u64,
        is_write: bool,
        now: u64,
    ) -> Result<AccessInfo, MshrFull> {
        let line = self.l1d.line_of(addr);
        // Merge with an in-flight miss first: the line may already be on
        // its way, and its tag is already installed in the caches.
        if let Some(o) = self.outstanding.iter().find(|o| o.line == line) {
            self.stats.data_accesses += 1;
            return Ok(AccessInfo {
                ready_cycle: o.ready_cycle.max(now + self.l1_hit_latency),
                l1_hit: false,
                llc_hit: !o.llc_miss,
                llc_miss: o.llc_miss,
                refresh_collision: o.refresh,
                llc_accessed: false,
                merged: true,
            });
        }
        // MSHR admission check before touching any cache state, so a
        // rejected access leaves no trace and can retry cleanly. Only
        // with every MSHR busy does the L1 need probing first.
        if self.data_mshrs_in_use() >= self.mshrs && !self.l1d.probe(addr) {
            return Err(MshrFull);
        }
        self.stats.data_accesses += 1;
        if self.l1d.access(addr, is_write) {
            return Ok(AccessInfo {
                ready_cycle: now + self.l1_hit_latency,
                l1_hit: true,
                llc_hit: false,
                llc_miss: false,
                refresh_collision: false,
                llc_accessed: false,
                merged: false,
            });
        }
        self.stats.l1d_misses += 1;
        let info = self.fill_from_llc(pc, line, is_write, now, false);
        Ok(info)
    }

    /// Issues an instruction-line fetch at cycle `now`. Instruction misses
    /// block fetch, so at most one is outstanding and no MSHR check is
    /// needed.
    pub fn access_instr(&mut self, pc: u64, now: u64) -> AccessInfo {
        self.stats.instr_accesses += 1;
        let line = self.l1i.line_of(pc);
        if let Some(o) = self.outstanding.iter().find(|o| o.line == line) {
            return AccessInfo {
                ready_cycle: o.ready_cycle.max(now + 1),
                l1_hit: false,
                llc_hit: !o.llc_miss,
                llc_miss: o.llc_miss,
                refresh_collision: o.refresh,
                llc_accessed: false,
                merged: true,
            };
        }
        if self.l1i.access(pc, false) {
            return AccessInfo {
                ready_cycle: now,
                l1_hit: true,
                llc_hit: false,
                llc_miss: false,
                refresh_collision: false,
                llc_accessed: false,
                merged: false,
            };
        }
        self.stats.l1i_misses += 1;
        let info = self.fill_from_llc(pc, line, false, now, true);
        // Sequential next-line instruction prefetch (as on the Cortex-A8):
        // code runs forward, so the line after a demand I$ miss is pulled
        // into the L1I alongside it. This keeps a jump into a cold code
        // region from costing one fetch stall per line — without it,
        // bursts of ~20-cycle LLC-hit fetch stalls blur into dips long
        // enough for EMPROF to misread as LLC misses.
        let next = line + self.l1i.config().line_bytes;
        if !self.l1i.probe(next) {
            self.l1i.insert(next);
            self.llc.insert(next);
        }
        info
    }

    /// Common L1-miss path: look up the (unified) LLC and, on a miss, the
    /// DRAM; installs tags, allocates the outstanding entry, and drives
    /// the prefetcher.
    fn fill_from_llc(
        &mut self,
        pc: u64,
        line: u64,
        is_write: bool,
        now: u64,
        is_instr: bool,
    ) -> AccessInfo {
        self.stats.llc_accesses += 1;
        let llc_hit = self.llc.access(line, is_write);
        let (ready_cycle, llc_miss, refresh) = if llc_hit {
            (now + self.llc_hit_latency, false, false)
        } else {
            self.stats.llc_misses += 1;
            // The demand request reaches DRAM after the LLC lookup and the
            // SoC interconnect; the response crosses the interconnect back.
            let req_ns = self.cycles_to_ns(now + self.llc_hit_latency) + self.mem_overhead_ns / 2.0;
            let result = self.dram.access(line, req_ns, is_write);
            if result.refresh_collision {
                self.stats.refresh_collisions += 1;
            }
            let done_ns = result.complete_ns + self.mem_overhead_ns / 2.0;
            (
                self.ns_to_cycles(done_ns).max(now + 1),
                true,
                result.refresh_collision,
            )
        };
        // The prefetcher watches the L1-miss stream (the classic L2
        // prefetcher placement), so a stream that starts hitting prefetched
        // LLC lines keeps training instead of losing its stride.
        if !is_instr {
            self.run_prefetcher(pc, line, now);
        }
        self.outstanding.push(Outstanding {
            line,
            ready_cycle,
            llc_miss,
            refresh,
            is_instr,
        });
        self.next_ready = self.next_ready.min(ready_cycle);
        AccessInfo {
            ready_cycle,
            l1_hit: false,
            llc_hit,
            llc_miss,
            refresh_collision: refresh,
            llc_accessed: true,
            merged: false,
        }
    }

    /// Feeds a demand miss to the stride prefetcher and installs the
    /// predicted lines.
    ///
    /// Simplification (documented in DESIGN.md): prefetched lines are
    /// installed into the LLC immediately rather than after a modeled
    /// memory round-trip. The demand-visible effect — future accesses to
    /// those lines hit the LLC instead of missing — is preserved, and each
    /// prefetch still generates a DRAM access so the memory-side signal
    /// (Fig. 10) shows the traffic.
    fn run_prefetcher(&mut self, pc: u64, line: u64, now: u64) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        let predicted = pf.observe(pc, line);
        for addr in predicted {
            let pf_line = self.llc.line_of(addr);
            if !self.llc.probe(pf_line) && !self.outstanding.iter().any(|o| o.line == pf_line) {
                self.llc.insert(pf_line);
                self.stats.prefetches += 1;
                let req_ns = self.cycles_to_ns(now) + self.mem_overhead_ns / 2.0;
                self.dram.access(pf_line, req_ns, false);
            }
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Earliest completion among in-flight misses, if any. This is the
    /// cached minimum that gates [`MemorySystem::retire_completed`], so
    /// reading it costs nothing; the pipeline uses it to jump over
    /// fully-stalled stretches to the cycle the next miss completes.
    pub fn next_completion(&self) -> Option<u64> {
        (!self.outstanding.is_empty()).then_some(self.next_ready)
    }

    /// The CAS/refresh activity trace recorded by the DRAM controller.
    pub fn cas_trace(&self) -> &CasTrace {
        self.dram.trace()
    }

    /// Consumes the memory system, returning the DRAM trace.
    pub fn into_cas_trace(self) -> CasTrace {
        self.dram.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_dram::{DramConfig, RefreshConfig};

    fn device_no_refresh() -> DeviceModel {
        let mut d = DeviceModel::mlp_capable(); // 4 MSHRs for merge tests
        d.dram = DramConfig {
            refresh: RefreshConfig::disabled(),
            ..DramConfig::h5tq2g63bfr()
        };
        d
    }

    fn mem() -> MemorySystem {
        MemorySystem::new(&device_no_refresh(), 42)
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = mem();
        // Prime the line.
        m.access_data(0, 0x1000, false, 0).unwrap();
        m.retire_completed(10_000);
        let info = m.access_data(0, 0x1008, false, 10_000).unwrap();
        assert!(info.l1_hit);
        assert_eq!(info.ready_cycle, 10_000 + 2);
    }

    #[test]
    fn cold_access_misses_to_dram() {
        let mut m = mem();
        let info = m.access_data(0, 0x9_0000, false, 100).unwrap();
        assert!(info.llc_miss);
        assert!(!info.l1_hit);
        assert!(info.llc_accessed);
        // Roughly the Olimex ~300-cycle latency band at 1 GHz.
        let lat = info.ready_cycle - 100;
        assert!((200..500).contains(&lat), "latency {lat}");
        assert_eq!(m.stats().llc_misses, 1);
    }

    #[test]
    fn concurrent_misses_to_same_line_merge() {
        let mut m = mem();
        let a = m.access_data(0, 0x5000, false, 0).unwrap();
        let b = m.access_data(4, 0x5010, false, 1).unwrap();
        assert!(!a.merged);
        assert!(b.merged);
        assert_eq!(b.ready_cycle, a.ready_cycle.max(1 + 2));
        // Only one miss counted.
        assert_eq!(m.stats().llc_misses, 1);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut m = mem(); // 4 MSHRs in sesc_like
        for i in 0..4u64 {
            m.access_data(0, 0x10_0000 + i * 4096, false, 0).unwrap();
        }
        assert_eq!(
            m.access_data(0, 0x20_0000, false, 0),
            Err(MshrFull),
            "fifth concurrent miss must be rejected"
        );
        // After completion, MSHRs free up.
        m.retire_completed(1_000_000);
        assert!(m.access_data(0, 0x20_0000, false, 1_000_000).is_ok());
    }

    #[test]
    fn rejected_access_leaves_no_state() {
        let mut m = mem();
        for i in 0..4u64 {
            m.access_data(0, 0x10_0000 + i * 4096, false, 0).unwrap();
        }
        let before = m.stats();
        let _ = m.access_data(0, 0x20_0000, false, 0);
        assert_eq!(m.stats(), before);
    }

    #[test]
    fn llc_hit_after_eviction_from_l1() {
        let mut m = mem();
        // Fill the line, then evict it from L1 by walking 2x L1 capacity
        // within the same LLC set range... simpler: walk 64 KiB (2x L1D).
        m.access_data(0, 0x0, false, 0).unwrap();
        m.retire_completed(1000);
        let mut now = 1000;
        for addr in (0x10_0000u64..0x12_0000).step_by(64) {
            loop {
                m.retire_completed(now);
                match m.access_data(0, addr, false, now) {
                    Ok(info) => {
                        now = info.ready_cycle + 1;
                        break;
                    }
                    Err(MshrFull) => now += 1,
                }
            }
        }
        m.retire_completed(now);
        // 0x0 is gone from L1 (if not evicted this test is vacuous) but
        // may survive in the 256 KiB LLC.
        let info = m.access_data(0, 0x0, false, now).unwrap();
        if !info.l1_hit {
            assert!(info.llc_hit || info.llc_miss);
        }
    }

    #[test]
    fn instruction_misses_tracked_separately() {
        let mut m = mem();
        let info = m.access_instr(0x100_0000, 0);
        assert!(info.llc_miss);
        assert_eq!(m.stats().l1i_misses, 1);
        assert_eq!(m.stats().llc_misses, 1);
        // An instruction miss does not consume data MSHRs.
        for i in 0..4u64 {
            m.access_data(0, 0x10_0000 + i * 4096, false, 0).unwrap();
        }
    }

    #[test]
    fn summary_reflects_outstanding_misses() {
        let mut m = mem();
        assert_eq!(m.outstanding_summary(0), OutstandingSummary::default());
        let info = m.access_data(0, 0x30_0000, false, 0).unwrap();
        let s = m.outstanding_summary(1);
        assert!(s.llc_miss);
        let s_done = m.outstanding_summary(info.ready_cycle);
        assert!(!s_done.llc_miss);
    }

    #[test]
    fn prefetcher_reduces_misses_on_streaming() {
        let run = |prefetch: bool| -> u64 {
            let mut d = device_no_refresh();
            if prefetch {
                d.prefetcher = Some(crate::prefetch::PrefetchConfig::default());
            }
            let mut m = MemorySystem::new(&d, 7);
            let mut now = 0u64;
            for addr in (0u64..2 << 20).step_by(64) {
                loop {
                    m.retire_completed(now);
                    match m.access_data(0x500, addr, false, now) {
                        Ok(info) => {
                            now = info.ready_cycle.max(now + 1);
                            break;
                        }
                        Err(MshrFull) => now += 1,
                    }
                }
            }
            m.stats().llc_misses
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with * 2 < without,
            "prefetcher should at least halve streaming misses: {with} vs {without}"
        );
    }

    #[test]
    fn refresh_collision_reported() {
        let mut d = DeviceModel::sesc_like(); // refresh enabled
        d.mem_overhead_ns = 0.0;
        let mut m = MemorySystem::new(&d, 3);
        // Access timed to land inside the second maintenance burst
        // (70us at 1 GHz = cycle 70_000), accounting for the LLC lookup.
        let info = m.access_data(0, 0x40_0000, false, 70_000).unwrap();
        assert!(info.llc_miss);
        assert!(info.refresh_collision);
        // Latency is in the microseconds: the Fig. 5 stall.
        assert!(info.ready_cycle - 70_000 > 1_500);
        assert_eq!(m.stats().refresh_collisions, 1);
    }

    #[test]
    fn next_completion_tracks_earliest() {
        let mut m = mem();
        assert_eq!(m.next_completion(), None);
        let a = m.access_data(0, 0x50_0000, false, 0).unwrap();
        let b = m.access_data(0, 0x60_0000, false, 5).unwrap();
        let (first, last) = (
            a.ready_cycle.min(b.ready_cycle),
            a.ready_cycle.max(b.ready_cycle),
        );
        assert_eq!(m.next_completion(), Some(first));
        // Retiring before the earliest completion keeps both; at it, the
        // cached minimum moves on to the other miss, then to none.
        m.retire_completed(first - 1);
        assert_eq!(m.next_completion(), Some(first));
        m.retire_completed(first);
        assert_eq!(m.next_completion(), (last > first).then_some(last));
        m.retire_completed(last);
        assert_eq!(m.next_completion(), None);
        assert_eq!(m.outstanding_summary(last), OutstandingSummary::default());
    }
}
