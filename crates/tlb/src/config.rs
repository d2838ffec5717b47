//! TLB geometry and timing configuration.

use std::fmt;

/// Geometry and timing of a set-associative TLB.
///
/// The paper's Table III configurations are available as constructors:
/// [`TlbConfig::dac23_l1`] (64-entry, 4-way, 1-cycle, SM-private) and
/// [`TlbConfig::dac23_l2`] (512-entry, 16-way, 10-cycle, shared).
///
/// # Example
///
/// ```
/// use tlb::TlbConfig;
///
/// let l1 = TlbConfig::dac23_l1();
/// assert_eq!(l1.entries, 64);
/// assert_eq!(l1.sets(), 16);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Lookup latency in cycles for a single-set probe.
    pub lookup_latency: u64,
}

impl TlbConfig {
    /// Creates a configuration, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics with [`TlbConfig::check`]'s message if the geometry is
    /// invalid.
    pub fn new(entries: usize, associativity: usize, lookup_latency: u64) -> Self {
        let config = TlbConfig {
            entries,
            associativity,
            lookup_latency,
        };
        if let Err(e) = config.check() {
            panic!("{e}");
        }
        config
    }

    /// Checks the geometry: `entries` must be a positive multiple of
    /// `associativity`, and the resulting set count a power of two
    /// (required for index-bit set selection).
    pub fn check(&self) -> Result<(), String> {
        let (entries, associativity) = (self.entries, self.associativity);
        if entries == 0 || associativity == 0 {
            return Err(String::from("geometry must be non-zero"));
        }
        if !entries.is_multiple_of(associativity) {
            return Err(format!(
                "entries {entries} must be a multiple of associativity {associativity}"
            ));
        }
        let sets = entries / associativity;
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        Ok(())
    }

    /// The paper's per-SM private L1 TLB: 64 entries, 4-way, 1-cycle.
    pub fn dac23_l1() -> Self {
        TlbConfig::new(64, 4, 1)
    }

    /// Figure 2's enlarged L1 TLB: 256 entries, same associativity.
    pub fn dac23_l1_256() -> Self {
        TlbConfig::new(256, 4, 1)
    }

    /// The paper's shared L2 TLB: 512 entries, 16-way, 10-cycle.
    pub fn dac23_l2() -> Self {
        TlbConfig::new(512, 16, 10)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.associativity
    }

    /// The geometry of one of `slices` VPN-interleaved slices this TLB
    /// is distributed over: entries divide evenly, clamped so every
    /// slice keeps at least one full set; associativity and lookup
    /// latency are unchanged.
    ///
    /// # Panics
    ///
    /// Panics where [`TlbConfig::try_sliced`] returns an error.
    pub fn sliced(&self, slices: usize) -> TlbConfig {
        self.try_sliced(slices).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TlbConfig::sliced`], returning [`TlbConfig::check`]'s error for
    /// a per-slice geometry it rejects.
    pub fn try_sliced(&self, slices: usize) -> Result<TlbConfig, String> {
        let slice = TlbConfig {
            entries: (self.entries / slices.max(1)).max(self.associativity),
            ..*self
        };
        slice.check().map(|()| slice)
    }
}

impl fmt::Display for TlbConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries, {}-way, {} sets, {}-cycle lookup",
            self.entries,
            self.associativity,
            self.sets(),
            self.lookup_latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_table3() {
        let l1 = TlbConfig::dac23_l1();
        assert_eq!((l1.entries, l1.associativity, l1.lookup_latency), (64, 4, 1));
        assert_eq!(l1.sets(), 16);
        let l2 = TlbConfig::dac23_l2();
        assert_eq!(
            (l2.entries, l2.associativity, l2.lookup_latency),
            (512, 16, 10)
        );
        assert_eq!(l2.sets(), 32);
        let big = TlbConfig::dac23_l1_256();
        assert_eq!(big.entries, 256);
        assert_eq!(big.associativity, 4);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn non_multiple_rejected() {
        let _ = TlbConfig::new(65, 4, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = TlbConfig::new(24, 2, 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rejected() {
        let _ = TlbConfig::new(0, 1, 1);
    }

    #[test]
    fn sliced_divides_entries_and_keeps_timing() {
        let per = TlbConfig::dac23_l2().sliced(4);
        assert_eq!(per.entries, 128);
        assert_eq!(per.associativity, 16);
        assert_eq!(per.lookup_latency, 10);
        // Clamps at one set per slice rather than underflowing.
        let tiny = TlbConfig::dac23_l2().sliced(1024);
        assert_eq!(tiny.entries, 16);
        assert_eq!(tiny.sets(), 1);
        // One slice is the identity.
        assert_eq!(TlbConfig::dac23_l2().sliced(1), TlbConfig::dac23_l2());
        assert_eq!(TlbConfig::dac23_l2().sliced(0), TlbConfig::dac23_l2());
    }

    #[test]
    fn try_sliced_reports_a_bad_slice_geometry() {
        // 512 / 3 = 170 entries of 16 ways: not whole sets.
        let err = TlbConfig::dac23_l2().try_sliced(3).unwrap_err();
        assert!(err.contains("multiple of associativity"), "{err}");
        assert_eq!(
            TlbConfig::dac23_l2().try_sliced(4),
            Ok(TlbConfig::dac23_l2().sliced(4))
        );
    }

    #[test]
    fn display_mentions_geometry() {
        let s = TlbConfig::dac23_l1().to_string();
        assert!(s.contains("64 entries"));
        assert!(s.contains("4-way"));
    }
}
