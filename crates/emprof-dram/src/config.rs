//! DRAM device timing and refresh configuration.

/// Core DDR timing parameters in nanoseconds.
///
/// Only the parameters that shape miss latency at the granularity EMPROF
/// observes are modeled; sub-command bus contention and write-recovery
/// timing are folded into the burst time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Row-to-column delay: ACT to READ/WRITE (ns).
    pub t_rcd: f64,
    /// Row precharge time: PRE to ACT (ns).
    pub t_rp: f64,
    /// CAS latency: READ to first data (ns).
    pub t_cl: f64,
    /// Data burst transfer time for one cache line (ns).
    pub t_burst: f64,
    /// Refresh cycle time: how long one fine-grained refresh blocks the
    /// device (ns).
    pub t_rfc: f64,
    /// Average fine-grained refresh interval (ns).
    pub t_refi: f64,
}

impl DramTiming {
    /// DDR3-1066-class timings approximating the Hynix H5TQ2G63BFR part on
    /// the Olimex A13-OLinuXino-MICRO board (CL7 at 533 MHz I/O clock,
    /// 64-byte line over a 16-bit interface).
    pub fn ddr3_1066() -> Self {
        DramTiming {
            t_rcd: 13.1,
            t_rp: 13.1,
            t_cl: 13.1,
            t_burst: 30.0,
            t_rfc: 160.0,
            t_refi: 7800.0,
        }
    }

    /// Validates that every interval is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("t_rcd", self.t_rcd),
            ("t_rp", self.t_rp),
            ("t_cl", self.t_cl),
            ("t_burst", self.t_burst),
            ("t_rfc", self.t_rfc),
            ("t_refi", self.t_refi),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.t_rfc >= self.t_refi {
            return Err(format!(
                "t_rfc ({}) must be smaller than t_refi ({})",
                self.t_rfc, self.t_refi
            ));
        }
        Ok(())
    }
}

/// Refresh behaviour.
///
/// Two mechanisms are modeled, matching Section III-C of the paper:
///
/// * **Fine-grained auto-refresh** every [`DramTiming::t_refi`], blocking
///   the device for [`DramTiming::t_rfc`] — the JEDEC-mandated behaviour,
///   producing small latency perturbations.
/// * **Maintenance bursts**: the board's controller batches postponed
///   refreshes into a burst of `burst_duration_ns` roughly every
///   `burst_interval_ns`. A miss colliding with the burst observes the
///   paper's 2–3 µs stall; the paper measured these at least every ~70 µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshConfig {
    /// Enables fine-grained (tREFI/tRFC) refresh.
    pub fine_grained: bool,
    /// Enables the maintenance burst.
    pub burst: bool,
    /// Interval between maintenance bursts (ns).
    pub burst_interval_ns: f64,
    /// Duration of one maintenance burst (ns).
    pub burst_duration_ns: f64,
}

impl RefreshConfig {
    /// The behaviour observed on the Olimex board: both mechanisms on,
    /// ~2.5 µs bursts every 70 µs.
    pub fn olimex_observed() -> Self {
        RefreshConfig {
            fine_grained: true,
            burst: true,
            burst_interval_ns: 70_000.0,
            burst_duration_ns: 2_500.0,
        }
    }

    /// Refresh fully disabled — useful for microbenchmark validation where
    /// the expected miss count must not be perturbed.
    pub fn disabled() -> Self {
        RefreshConfig {
            fine_grained: false,
            burst: false,
            burst_interval_ns: 70_000.0,
            burst_duration_ns: 2_500.0,
        }
    }

    /// Validates the burst parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.burst {
            if !(self.burst_interval_ns > 0.0 && self.burst_interval_ns.is_finite()) {
                return Err(format!(
                    "burst_interval_ns must be positive, got {}",
                    self.burst_interval_ns
                ));
            }
            if !(self.burst_duration_ns > 0.0 && self.burst_duration_ns < self.burst_interval_ns) {
                return Err(format!(
                    "burst_duration_ns ({}) must be positive and smaller than the interval ({})",
                    self.burst_duration_ns, self.burst_interval_ns
                ));
            }
        }
        Ok(())
    }
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig::olimex_observed()
    }
}

/// Full DRAM device + controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Command timing.
    pub timing: DramTiming,
    /// Number of banks (DDR3: 8).
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Refresh behaviour.
    pub refresh: RefreshConfig,
}

impl DramConfig {
    /// Configuration approximating the H5TQ2G63BFR DDR3 device on the
    /// Olimex board, including its observed refresh bursts.
    pub fn h5tq2g63bfr() -> Self {
        DramConfig {
            timing: DramTiming::ddr3_1066(),
            banks: 8,
            row_bytes: 2048,
            refresh: RefreshConfig::olimex_observed(),
        }
    }

    /// Validates the full configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.timing.validate()?;
        self.refresh.validate()?;
        if self.banks == 0 {
            return Err("banks must be nonzero".to_string());
        }
        if self.row_bytes == 0 || !self.row_bytes.is_power_of_two() {
            return Err(format!(
                "row_bytes must be a nonzero power of two, got {}",
                self.row_bytes
            ));
        }
        Ok(())
    }

    /// Worst-case random-access latency without refresh interference:
    /// row conflict (precharge + activate + CAS) plus the burst.
    pub fn worst_case_access_ns(&self) -> f64 {
        self.timing.t_rp + self.timing.t_rcd + self.timing.t_cl + self.timing.t_burst
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::h5tq2g63bfr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        DramConfig::default().validate().unwrap();
        DramConfig::h5tq2g63bfr().validate().unwrap();
    }

    #[test]
    fn disabled_refresh_is_valid() {
        RefreshConfig::disabled().validate().unwrap();
    }

    #[test]
    fn rejects_zero_banks() {
        let cfg = DramConfig {
            banks: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_non_power_of_two_rows() {
        let cfg = DramConfig {
            row_bytes: 1000,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_negative_timing() {
        let mut t = DramTiming::ddr3_1066();
        t.t_cl = -1.0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_rfc_longer_than_refi() {
        let mut t = DramTiming::ddr3_1066();
        t.t_rfc = 10_000.0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_burst_longer_than_interval() {
        let mut r = RefreshConfig::olimex_observed();
        r.burst_duration_ns = 80_000.0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn worst_case_latency_is_tens_of_ns() {
        let ns = DramConfig::h5tq2g63bfr().worst_case_access_ns();
        assert!(ns > 40.0 && ns < 120.0, "{ns}");
    }
}
