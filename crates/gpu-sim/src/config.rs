//! Simulator configuration (the paper's Table III).

use std::fmt;

use mem_hier::{CacheConfig, HierarchyConfig, L2Policy};
use tlb::TlbConfig;

/// One reason a [`GpuConfig`] cannot be simulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigViolation {
    /// The offending field, as named in [`GpuConfig`].
    pub field: &'static str,
    /// What is wrong with it.
    pub reason: String,
}

/// A [`GpuConfig`] rejected by [`GpuConfig::validate`], listing every
/// violation found (not just the first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The violations, in [`GpuConfig`] field order.
    pub violations: Vec<ConfigViolation>,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid GPU configuration:")?;
        for v in &self.violations {
            write!(f, "\n  {}: {}", v.field, v.reason)?;
        }
        Ok(())
    }
}

impl std::error::Error for ConfigError {}

/// Full GPU configuration.
///
/// [`GpuConfig::dac23_baseline`] reproduces Table III. Latencies that
/// Table III leaves unspecified (interconnect, L2 data, DRAM, UVM
/// first-touch fault) follow the gem5-gpu defaults used by the paper's
/// cited prior work and are documented in DESIGN.md.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Core clock in MHz (for reporting only; the simulator counts
    /// cycles).
    pub clock_mhz: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Warp instructions issued per SM per cycle (dual GTO scheduler).
    pub issue_width: u32,
    /// Hardware cap on concurrent TBs per SM (Kepler: 16).
    pub max_concurrent_tbs: u8,
    /// Per-SM private L1 data cache.
    pub l1_cache: CacheConfig,
    /// Shared L2 data cache (aggregate across memory partitions).
    pub l2_cache: CacheConfig,
    /// Per-SM private L1 TLB.
    pub l1_tlb: TlbConfig,
    /// Shared L2 TLB.
    pub l2_tlb: TlbConfig,
    /// Number of shared page-table walkers.
    pub walkers: usize,
    /// Base page-table walk latency in cycles (Table III: 500).
    pub walk_latency: u64,
    /// Additional walk cycles per radix level touched (0 = the paper's
    /// flat 500-cycle walks; > 0 makes 2 MiB pages' 3-level walks cheaper
    /// than 4 KiB pages' 4-level walks).
    pub walk_latency_per_level: u64,
    /// L1 data-cache hit latency.
    pub l1_hit_latency: u64,
    /// One-way SM-to-partition interconnect latency.
    pub icnt_latency: u64,
    /// L2 data-cache access latency.
    pub l2_hit_latency: u64,
    /// DRAM access latency beyond L2.
    pub dram_latency: u64,
    /// One-time UVM first-touch (demand-paging) penalty per page.
    pub demand_fault_latency: u64,
    /// Flush per-SM L1 TLBs at each kernel launch (gem5-gpu invalidates
    /// GPU TLBs on launch; also the source of the paper's `nw` cold
    /// misses). The shared L2 TLB is not flushed.
    pub flush_l1_tlb_on_kernel_launch: bool,
    /// Lookups the shared L2 TLB can start per cycle (per slice). L1 TLB
    /// miss floods from all 16 SMs queue on these ports, which is what
    /// turns poor L1 hit rates into execution-time loss.
    pub l2_tlb_ports: usize,
    /// Slices the shared L2 TLB is distributed over (Figure 1 shows it
    /// spread across the memory partitions; 1 = monolithic). Entries are
    /// divided evenly; pages map to slices by VPN.
    pub l2_tlb_slices: usize,
    /// Cycles a granted lookup holds an L2 TLB port. The baseline's 1
    /// models fully pipelined lookups (a slice starts `l2_tlb_ports` new
    /// lookups per cycle regardless of `lookup_latency`); setting it to
    /// the lookup latency models unpipelined ports.
    pub l2_tlb_port_occupancy: u64,
    /// Shared L2 TLB management policy across co-running address spaces
    /// (`Shared` baseline, MASK-style fill tokens, or MIG-style
    /// sub-entry sharing). Irrelevant to solo runs: with one ASID every
    /// policy degenerates to `Shared` behavior.
    pub l2_policy: L2Policy,
}

impl GpuConfig {
    /// The paper's Table III baseline.
    pub fn dac23_baseline() -> Self {
        GpuConfig {
            num_sms: 16,
            clock_mhz: 1400,
            max_threads_per_sm: 2048,
            issue_width: 2,
            max_concurrent_tbs: 16,
            l1_cache: CacheConfig::new(16 * 1024, 4, 128),
            l2_cache: CacheConfig::new(1536 * 1024, 8, 128),
            l1_tlb: TlbConfig::dac23_l1(),
            l2_tlb: TlbConfig::dac23_l2(),
            walkers: 8,
            walk_latency: 500,
            walk_latency_per_level: 0,
            l1_hit_latency: 1,
            icnt_latency: 20,
            l2_hit_latency: 30,
            dram_latency: 200,
            demand_fault_latency: 2000,
            flush_l1_tlb_on_kernel_launch: true,
            l2_tlb_ports: 2,
            l2_tlb_slices: 1,
            l2_tlb_port_occupancy: 1,
            l2_policy: L2Policy::Shared,
        }
    }

    /// The mem-hier view of this configuration, consumed by
    /// [`mem_hier::HierarchyBuilder`] to assemble the translation and
    /// data pipeline.
    pub fn hierarchy(&self) -> HierarchyConfig {
        HierarchyConfig {
            num_sms: self.num_sms,
            l1_cache: self.l1_cache,
            l2_cache: self.l2_cache,
            l2_tlb: self.l2_tlb,
            l2_tlb_slices: self.l2_tlb_slices,
            l2_tlb_ports: self.l2_tlb_ports,
            l2_tlb_port_occupancy: self.l2_tlb_port_occupancy,
            walkers: self.walkers,
            walk_latency: self.walk_latency,
            walk_latency_per_level: self.walk_latency_per_level,
            l1_hit_latency: self.l1_hit_latency,
            icnt_latency: self.icnt_latency,
            l2_hit_latency: self.l2_hit_latency,
            dram_latency: self.dram_latency,
            demand_fault_latency: self.demand_fault_latency,
            l2_policy: self.l2_policy,
        }
    }

    /// The Figure 2 variant with a 256-entry L1 TLB.
    pub fn with_l1_tlb(mut self, l1_tlb: TlbConfig) -> Self {
        self.l1_tlb = l1_tlb;
        self
    }

    /// Swaps the shared L2 TLB multi-tenant policy.
    pub fn with_l2_policy(mut self, policy: L2Policy) -> Self {
        self.l2_policy = policy;
        self
    }

    /// Checks that the simulator can run this configuration, listing
    /// every violation. Each rejected value would otherwise hang the
    /// engine (`issue_width = 0`), report an empty run as `total_cycles
    /// = 0` (`num_sms = 0`, `max_concurrent_tbs = 0`), be silently
    /// clamped to something else (`l2_tlb_ports = 0`,
    /// `l2_tlb_port_occupancy = 0`), or panic deep inside a constructor
    /// (`walkers = 0`, a TLB or cache geometry that does not divide into
    /// sets, `l2_tlb_slices` that leave a slice with such a geometry).
    ///
    /// # Example
    ///
    /// ```
    /// use gpu_sim::GpuConfig;
    ///
    /// assert!(GpuConfig::dac23_baseline().validate().is_ok());
    /// let bad = GpuConfig { issue_width: 0, walkers: 0, ..GpuConfig::dac23_baseline() };
    /// let err = bad.validate().unwrap_err();
    /// let fields: Vec<&str> = err.violations.iter().map(|v| v.field).collect();
    /// assert_eq!(fields, ["issue_width", "walkers"]);
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut violations = Vec::new();
        let mut fail = |field: &'static str, reason: String| {
            violations.push(ConfigViolation { field, reason });
        };
        if self.num_sms == 0 {
            fail(
                "num_sms",
                "must be at least 1 (with no SM no TB ever runs)".into(),
            );
        }
        if self.issue_width == 0 {
            fail(
                "issue_width",
                "must be at least 1 (a zero-width issue stage never retires a warp)".into(),
            );
        }
        if self.max_concurrent_tbs == 0 {
            fail(
                "max_concurrent_tbs",
                "must be at least 1 (no TB could ever be resident)".into(),
            );
        }
        for (field, c) in [("l1_cache", self.l1_cache), ("l2_cache", self.l2_cache)] {
            if let Err(e) = c.check() {
                fail(field, e);
            }
        }
        for (field, t) in [("l1_tlb", self.l1_tlb), ("l2_tlb", self.l2_tlb)] {
            if let Err(e) = t.check() {
                fail(field, e);
            }
        }
        if self.walkers == 0 {
            fail(
                "walkers",
                "must be at least 1 (no page-table walk could complete)".into(),
            );
        }
        if self.l2_tlb_ports == 0 {
            fail(
                "l2_tlb_ports",
                "must be at least 1 (no L2 TLB lookup could start)".into(),
            );
        }
        if self.l2_tlb_slices == 0 {
            fail("l2_tlb_slices", "must be at least 1".into());
        } else if self.l2_tlb.check().is_ok() {
            if let Err(e) = self.l2_tlb.try_sliced(self.l2_tlb_slices) {
                fail(
                    "l2_tlb_slices",
                    format!("{} slices of the L2 TLB: {e}", self.l2_tlb_slices),
                );
            }
        }
        if self.l2_tlb_port_occupancy == 0 {
            fail(
                "l2_tlb_port_occupancy",
                "must be at least 1 cycle per granted lookup".into(),
            );
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(ConfigError { violations })
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::dac23_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_lists_every_violation_in_field_order() {
        let bad = GpuConfig {
            num_sms: 0,
            issue_width: 0,
            l2_tlb: TlbConfig {
                entries: 96,
                associativity: 16,
                lookup_latency: 10,
            },
            walkers: 0,
            l2_tlb_port_occupancy: 0,
            ..GpuConfig::dac23_baseline()
        };
        let err = bad.validate().unwrap_err();
        let fields: Vec<&str> = err.violations.iter().map(|v| v.field).collect();
        assert_eq!(
            fields,
            [
                "num_sms",
                "issue_width",
                "l2_tlb",
                "walkers",
                "l2_tlb_port_occupancy"
            ]
        );
        let msg = err.to_string();
        assert!(msg.starts_with("invalid GPU configuration:"), "{msg}");
        assert_eq!(msg.lines().count(), 1 + fields.len(), "{msg}");
    }

    #[test]
    fn validate_rejects_degenerate_cache_geometry() {
        let bad = GpuConfig {
            l1_cache: CacheConfig {
                bytes: 64,
                associativity: 4,
                line_bytes: 128,
            },
            ..GpuConfig::dac23_baseline()
        };
        assert_eq!(bad.validate().unwrap_err().violations[0].field, "l1_cache");
    }

    #[test]
    fn baseline_matches_table3() {
        let c = GpuConfig::dac23_baseline();
        assert_eq!(c.num_sms, 16);
        assert_eq!(c.clock_mhz, 1400);
        assert_eq!(c.max_threads_per_sm, 2048);
        assert_eq!(c.l1_cache.bytes, 16 * 1024);
        assert_eq!(c.l1_cache.line_bytes, 128);
        assert_eq!(c.l2_cache.bytes, 1536 * 1024);
        assert_eq!(c.l2_cache.associativity, 8);
        assert_eq!(c.l1_tlb.entries, 64);
        assert_eq!(c.l2_tlb.entries, 512);
        assert_eq!(c.walkers, 8);
        assert_eq!(c.walk_latency, 500);
        assert_eq!(c.max_concurrent_tbs, 16);
    }

    #[test]
    fn baseline_ports_are_pipelined() {
        // Occupancy 1 is the pre-mem-hier engine behavior: a port is
        // held exactly one cycle per granted lookup.
        assert_eq!(GpuConfig::dac23_baseline().l2_tlb_port_occupancy, 1);
    }

    #[test]
    fn hierarchy_view_mirrors_every_field() {
        let c = GpuConfig {
            l2_tlb_slices: 4,
            l2_tlb_port_occupancy: 10,
            walk_latency_per_level: 25,
            l2_policy: L2Policy::MaskTokens { quota: 7 },
            ..GpuConfig::dac23_baseline()
        };
        let h = c.hierarchy();
        assert_eq!(h.num_sms, c.num_sms);
        assert_eq!(h.l1_cache, c.l1_cache);
        assert_eq!(h.l2_cache, c.l2_cache);
        assert_eq!(h.l2_tlb, c.l2_tlb);
        assert_eq!(h.l2_tlb_slices, 4);
        assert_eq!(h.l2_tlb_ports, c.l2_tlb_ports);
        assert_eq!(h.l2_tlb_port_occupancy, 10);
        assert_eq!(h.walkers, c.walkers);
        assert_eq!(h.walk_latency, c.walk_latency);
        assert_eq!(h.walk_latency_per_level, 25);
        assert_eq!(h.l1_hit_latency, c.l1_hit_latency);
        assert_eq!(h.icnt_latency, c.icnt_latency);
        assert_eq!(h.l2_hit_latency, c.l2_hit_latency);
        assert_eq!(h.dram_latency, c.dram_latency);
        assert_eq!(h.demand_fault_latency, c.demand_fault_latency);
        assert_eq!(h.l2_policy, L2Policy::MaskTokens { quota: 7 });
    }

    #[test]
    fn with_l1_tlb_swaps_config() {
        let c = GpuConfig::dac23_baseline().with_l1_tlb(TlbConfig::dac23_l1_256());
        assert_eq!(c.l1_tlb.entries, 256);
        assert_eq!(c.l2_tlb.entries, 512);
    }
}
