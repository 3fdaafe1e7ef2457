//! Device models: the three evaluation targets of Table I plus the paper's
//! SESC-like simulator configuration.
//!
//! | Device  | Processor                  | Frequency | LLC     | Prefetcher |
//! |---------|----------------------------|-----------|---------|------------|
//! | Alcatel | Snapdragon MSM8909 (A7)    | 1.1 GHz   | 1 MiB   | no         |
//! | Samsung | Snapdragon MSM7625A (A5)   | 800 MHz   | 256 KiB | yes        |
//! | Olimex  | Allwinner A13 (A8)         | 1.008 GHz | 256 KiB | no         |
//!
//! The paper's cross-device findings (Section VI-A) are driven by exactly
//! these parameters: the Alcatel's 4x-larger LLC keeps its miss counts an
//! order of magnitude lower; the Samsung's prefetcher removes some misses
//! the Olimex suffers; and the Olimex's higher clock against a similar
//! memory latency (in ns) makes each miss cost more cycles and hides fewer
//! of them. The phones are multi-core parts, but the workloads are
//! single-threaded and the paper profiles a single core; we model one core.

use emprof_dram::DramConfig;

use crate::bpred::BpredConfig;
use crate::cache::{CacheConfig, Replacement};
use crate::power::PowerModel;
use crate::prefetch::PrefetchConfig;

/// Full configuration of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Human-readable device name (used in reports).
    pub name: &'static str,
    /// Core clock frequency in Hz.
    pub clock_hz: f64,
    /// Superscalar width (instructions fetched/issued per cycle).
    pub width: usize,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified last-level cache geometry.
    pub llc: CacheConfig,
    /// Load-to-use latency on an L1 hit (cycles).
    pub l1_hit_latency: u64,
    /// Additional latency of an LLC hit (cycles).
    pub llc_hit_latency: u64,
    /// Fixed SoC interconnect + memory-controller overhead added to every
    /// DRAM access (ns). Brings total miss latency to the ~300 ns the
    /// paper observes on the Olimex board.
    pub mem_overhead_ns: f64,
    /// Miss-status holding registers: maximum outstanding data-miss lines
    /// (the MLP of Fig. 3a).
    pub mshrs: usize,
    /// In-order completion window: maximum instructions in flight past an
    /// incomplete older instruction. `Some(n)` models the simple cores of
    /// the evaluation devices, which stall within ~n/width cycles of a
    /// load miss regardless of whether the value is used (in-order
    /// writeback); `None` models a scoreboarded core that stalls only on
    /// dependencies and structural hazards (the SESC configuration, which
    /// is what lets some misses produce no stall at all — Fig. 3a).
    pub inflight_window: Option<usize>,
    /// Store buffer entries.
    pub store_buffer: usize,
    /// Fetch-queue capacity in instructions; deeper queues let the core
    /// keep issuing longer into a miss.
    pub fetch_queue: usize,
    /// Extra cycles of fetch bubble after a taken branch (with a
    /// predictor configured, this is the *misprediction* refill instead;
    /// correctly predicted taken branches redirect in one cycle).
    pub branch_penalty: u64,
    /// Optional bimodal branch predictor (an extension beyond the paper's
    /// simple-core model; all presets leave it off — see `ablate_branch_predictor`).
    pub branch_predictor: Option<BpredConfig>,
    /// Hardware prefetcher, if the device has one.
    pub prefetcher: Option<PrefetchConfig>,
    /// DRAM device + controller configuration.
    pub dram: DramConfig,
    /// Power-model weights.
    pub power: PowerModel,
}

impl DeviceModel {
    /// The configuration the paper uses for validation: a 4-wide in-order
    /// processor with two cache levels using random replacement, mimicking
    /// the Olimex A13 board (Section III-B, V-C). The 32-entry in-order
    /// completion window lets the core run a few cycles past a miss
    /// (Section II-B's "averted for ... fewer cycles" on in-order cores)
    /// while still producing a distinct stall for essentially every miss,
    /// and the blocking data cache (one MSHR, like the A8 it mimics)
    /// gives each miss its own stall.
    pub fn sesc_like() -> Self {
        DeviceModel {
            name: "sesc-sim",
            clock_hz: 1.0e9,
            width: 4,
            l1i: cache(32 << 10, 4),
            l1d: cache(32 << 10, 4),
            llc: cache(256 << 10, 8),
            l1_hit_latency: 2,
            llc_hit_latency: 20,
            mem_overhead_ns: 230.0,
            mshrs: 1,
            inflight_window: Some(32),
            store_buffer: 4,
            fetch_queue: 24,
            branch_penalty: 2,
            branch_predictor: None,
            prefetcher: None,
            dram: DramConfig::h5tq2g63bfr(),
            power: PowerModel::default(),
        }
    }

    /// A variant of [`DeviceModel::sesc_like`] with four MSHRs and a
    /// scoreboard-only pipeline (no in-order completion window), used to
    /// reproduce the MLP phenomena of Fig. 3: with several misses in
    /// flight and stalls driven purely by dependencies, overlapped misses
    /// share one stall and some misses produce no individually
    /// attributable stall at all.
    pub fn mlp_capable() -> Self {
        DeviceModel {
            name: "sesc-mlp",
            mshrs: 4,
            inflight_window: None,
            ..DeviceModel::sesc_like()
        }
    }

    /// Olimex A13-OLinuXino-MICRO: Cortex-A8 at 1.008 GHz, 256 KiB LLC,
    /// no prefetcher. The A8's data cache blocks on a miss (hit-under-miss
    /// only), hence a single MSHR — which is why each microbenchmark miss
    /// produces its own distinct dip in Fig. 7.
    pub fn olimex() -> Self {
        DeviceModel {
            name: "olimex",
            clock_hz: 1.008e9,
            width: 2,
            mshrs: 1,
            inflight_window: Some(12),
            fetch_queue: 16,
            ..DeviceModel::sesc_like()
        }
    }

    /// Alcatel Ideal: Cortex-A7 at 1.1 GHz with a 1 MiB LLC and a newer,
    /// faster LPDDR memory system. The large LLC keeps its miss counts an
    /// order of magnitude below the other devices in Table IV, and the
    /// shorter memory latency keeps its stall-time percentages the lowest
    /// of the three.
    pub fn alcatel() -> Self {
        DeviceModel {
            name: "alcatel",
            clock_hz: 1.1e9,
            width: 2,
            llc: cache(1 << 20, 16),
            llc_hit_latency: 25,
            mem_overhead_ns: 75.0,
            mshrs: 1,
            inflight_window: Some(16),
            fetch_queue: 20,
            prefetcher: Some(PrefetchConfig::default()),
            ..DeviceModel::sesc_like()
        }
    }

    /// Samsung Galaxy Centura: Cortex-A5 at 800 MHz, 256 KiB LLC, with a
    /// hardware stride prefetcher (Section VI-A).
    pub fn samsung() -> Self {
        DeviceModel {
            name: "samsung",
            clock_hz: 0.8e9,
            width: 1,
            llc: cache(256 << 10, 8),
            l1i: cache(16 << 10, 4),
            l1d: cache(16 << 10, 4),
            llc_hit_latency: 18,
            mem_overhead_ns: 220.0,
            mshrs: 1,
            inflight_window: Some(8),
            fetch_queue: 12,
            prefetcher: Some(PrefetchConfig::default()),
            ..DeviceModel::sesc_like()
        }
    }

    /// The three physical evaluation devices of Table I.
    pub fn evaluation_devices() -> Vec<DeviceModel> {
        vec![
            DeviceModel::alcatel(),
            DeviceModel::samsung(),
            DeviceModel::olimex(),
        ]
    }

    /// Converts a cycle count on this device to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz * 1e9
    }

    /// Converts nanoseconds to (fractional) cycles on this device.
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.clock_hz / 1e9
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first problem found in any sub-configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 {
            return Err("pipeline width must be nonzero".into());
        }
        if self.mshrs == 0 {
            return Err("at least one MSHR is required".into());
        }
        if self.inflight_window == Some(0) {
            return Err("in-flight window must be nonzero when present".into());
        }
        if self.store_buffer == 0 {
            return Err("store buffer must have at least one entry".into());
        }
        if self.fetch_queue < self.width {
            return Err(format!(
                "fetch queue ({}) must hold at least one fetch group ({})",
                self.fetch_queue, self.width
            ));
        }
        if !(self.clock_hz > 0.0 && self.clock_hz.is_finite()) {
            return Err(format!("clock must be positive, got {}", self.clock_hz));
        }
        if !(self.mem_overhead_ns >= 0.0 && self.mem_overhead_ns.is_finite()) {
            return Err("memory overhead must be non-negative".into());
        }
        if let Some(bp) = &self.branch_predictor {
            bp.validate()
                .map_err(|e| format!("branch predictor: {e}"))?;
        }
        self.l1i.validate().map_err(|e| format!("l1i: {e}"))?;
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        self.llc.validate().map_err(|e| format!("llc: {e}"))?;
        self.dram.validate().map_err(|e| format!("dram: {e}"))?;
        Ok(())
    }

    /// Approximate total LLC-miss latency in cycles on this device
    /// (LLC lookup + interconnect overhead + worst-case DRAM access).
    pub fn nominal_miss_latency_cycles(&self) -> u64 {
        let dram_ns = self.dram.worst_case_access_ns() + self.mem_overhead_ns;
        self.llc_hit_latency + self.ns_to_cycles(dram_ns).ceil() as u64
    }
}

fn cache(size: u64, ways: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: size,
        ways,
        line_bytes: 64,
        replacement: Replacement::Random,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for d in [
            DeviceModel::sesc_like(),
            DeviceModel::olimex(),
            DeviceModel::alcatel(),
            DeviceModel::samsung(),
        ] {
            d.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        }
    }

    #[test]
    fn table1_parameters() {
        assert_eq!(DeviceModel::alcatel().llc.size_bytes, 1 << 20);
        assert_eq!(DeviceModel::samsung().llc.size_bytes, 256 << 10);
        assert_eq!(DeviceModel::olimex().llc.size_bytes, 256 << 10);
        assert!((DeviceModel::olimex().clock_hz - 1.008e9).abs() < 1.0);
        assert!((DeviceModel::samsung().clock_hz - 0.8e9).abs() < 1.0);
        assert!((DeviceModel::alcatel().clock_hz - 1.1e9).abs() < 1.0);
        assert!(DeviceModel::samsung().prefetcher.is_some());
        assert!(DeviceModel::olimex().prefetcher.is_none());
        // The A7 in the Alcatel has a stride prefetcher too; the paper
        // only calls out the Samsung/Olimex contrast (same LLC size).
        assert!(DeviceModel::alcatel().prefetcher.is_some());
    }

    #[test]
    fn olimex_miss_latency_near_300ns() {
        // Section III-C: "The stalls produced by most LLC misses lasts
        // around 300 ns" on the Olimex board.
        let d = DeviceModel::olimex();
        let ns = d.cycles_to_ns(d.nominal_miss_latency_cycles());
        assert!(
            (250.0..400.0).contains(&ns),
            "nominal miss latency {ns} ns outside the paper's band"
        );
    }

    #[test]
    fn cycle_time_conversions_round_trip() {
        let d = DeviceModel::olimex();
        let cycles = 1234u64;
        let back = d.ns_to_cycles(d.cycles_to_ns(cycles));
        assert!((back - cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut d = DeviceModel::sesc_like();
        d.width = 0;
        assert!(d.validate().is_err());

        let mut d = DeviceModel::sesc_like();
        d.mshrs = 0;
        assert!(d.validate().is_err());

        let mut d = DeviceModel::sesc_like();
        d.fetch_queue = 1;
        assert!(d.validate().is_err());
    }

    #[test]
    fn evaluation_devices_order_matches_table1() {
        let names: Vec<_> = DeviceModel::evaluation_devices()
            .iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec!["alcatel", "samsung", "olimex"]);
    }
}
