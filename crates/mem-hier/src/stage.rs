//! The uniform stage interface: `Access` in, `Outcome` out.
//!
//! Every level of the translation path — the per-SM L1 TLB, the
//! interconnect hop, the sliced L2 TLB, the walker pool — implements
//! [`Stage`]. An [`Outcome`] carries the stage's *own* latency
//! contribution split into queueing / service / fault cycles, so the
//! hierarchy can attribute every cycle of a translation to exactly one
//! level (the invariant checked by
//! [`LatencyBreakdown`](crate::LatencyBreakdown)).

use vmem::{Asid, PageSize, Ppn, VirtAddr, Vpn};

/// One translation request traversing the hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the request enters the stage.
    pub at: u64,
    /// Issuing SM.
    pub sm: usize,
    /// Address space (co-running application) issuing the request; every
    /// TLB stage includes it in the tag compare and the walker stage
    /// selects the matching page table.
    pub asid: Asid,
    /// Hardware TB slot of the requesting thread block (the paper's
    /// TB id used by the partitioned L1 TLB).
    pub tb_slot: u8,
    /// Line virtual address (the walker resolves it against the page
    /// table; TLB stages only need the page).
    pub va: VirtAddr,
    /// Virtual page being translated.
    pub vpn: Vpn,
    /// Page size of the mapping.
    pub page_size: PageSize,
}

impl Access {
    /// The same request arriving at a downstream stage at `at`.
    pub fn arriving_at(&self, at: u64) -> Access {
        Access { at, ..*self }
    }
}

/// What a stage did with an access.
///
/// `ready_at` must equal `at + queue_cycles + service_cycles +
/// fault_cycles` — the hierarchy debug-asserts it, which is what makes
/// the per-level breakdown sum to the end-to-end latency by
/// construction rather than by bookkeeping luck.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Frame the stage resolved, if it terminated the translation
    /// (TLB hit, completed walk). `None` means "forward downstream".
    pub ppn: Option<Ppn>,
    /// Cycle at which the stage's result is available.
    pub ready_at: u64,
    /// Cycles spent waiting for a stage resource (L2 TLB port, free
    /// walker).
    pub queue_cycles: u64,
    /// Cycles spent in service (lookup, hop, walk).
    pub service_cycles: u64,
    /// Cycles added by a UVM demand fault (walker stage only).
    pub fault_cycles: u64,
}

impl Outcome {
    /// Total cycles this stage added to the translation.
    pub fn latency(&self) -> u64 {
        self.queue_cycles + self.service_cycles + self.fault_cycles
    }
}

/// Aggregate activity counters every stage maintains.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Accesses that entered the stage.
    pub accesses: u64,
    /// Accesses the stage resolved itself (TLB hits, walks); pure
    /// forwarding stages such as the interconnect leave this 0.
    pub resolved: u64,
    /// Total cycles accesses spent queueing at this stage.
    pub queue_cycles: u64,
    /// Total cycles accesses spent in service at this stage.
    pub service_cycles: u64,
}

impl StageStats {
    /// Folds one outcome into the counters.
    pub fn record(&mut self, out: &Outcome) {
        self.accesses += 1;
        if out.ppn.is_some() {
            self.resolved += 1;
        }
        self.queue_cycles += out.queue_cycles;
        self.service_cycles += out.service_cycles;
    }

    /// Component-wise sum: merges per-SM accumulators (the engine keeps
    /// one per front) into the stage total. Pure u64 addition, so the
    /// merge is order-independent.
    pub fn merged(self, other: StageStats) -> StageStats {
        StageStats {
            accesses: self.accesses + other.accesses,
            resolved: self.resolved + other.resolved,
            queue_cycles: self.queue_cycles + other.queue_cycles,
            service_cycles: self.service_cycles + other.service_cycles,
        }
    }
}

/// A level of the memory hierarchy with uniform access semantics.
///
/// Implementations are free to keep arbitrary internal state (TLB
/// arrays, port schedules, walker occupancy); the composition layer
/// ([`Hierarchy`](crate::Hierarchy)) only sees requests in and timed
/// outcomes out, which is what lets MASK- or Mosaic-style variants
/// replace a single level without rewiring the engine.
pub trait Stage {
    /// Short stable name for reports and debugging.
    fn name(&self) -> &'static str;
    /// Processes one access, advancing internal state.
    fn access(&mut self, acc: &Access) -> Outcome;
    /// Cumulative activity counters.
    fn stats(&self) -> StageStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_latency_sums_components() {
        let o = Outcome {
            ppn: None,
            ready_at: 130,
            queue_cycles: 10,
            service_cycles: 20,
            fault_cycles: 0,
        };
        assert_eq!(o.latency(), 30);
    }

    #[test]
    fn stage_stats_record_counts_resolution() {
        let mut s = StageStats::default();
        s.record(&Outcome {
            ppn: Some(Ppn::new(1)),
            ready_at: 5,
            queue_cycles: 2,
            service_cycles: 3,
            fault_cycles: 0,
        });
        s.record(&Outcome {
            ppn: None,
            ready_at: 1,
            queue_cycles: 0,
            service_cycles: 1,
            fault_cycles: 0,
        });
        assert_eq!(s.accesses, 2);
        assert_eq!(s.resolved, 1);
        assert_eq!(s.queue_cycles, 2);
        assert_eq!(s.service_cycles, 4);
    }

    #[test]
    fn merged_is_a_componentwise_sum() {
        let a = StageStats {
            accesses: 3,
            resolved: 1,
            queue_cycles: 4,
            service_cycles: 9,
        };
        let b = StageStats {
            accesses: 2,
            resolved: 2,
            queue_cycles: 0,
            service_cycles: 5,
        };
        assert_eq!(a.merged(b), b.merged(a), "order-independent");
        assert_eq!(a.merged(b).accesses, 5);
        assert_eq!(a.merged(b).service_cycles, 14);
        assert_eq!(a.merged(StageStats::default()), a);
    }

    #[test]
    fn arriving_at_rewrites_only_the_cycle() {
        let a = Access {
            at: 10,
            sm: 3,
            asid: Asid::new(1),
            tb_slot: 2,
            va: VirtAddr::new(0x1000),
            vpn: Vpn::new(1),
            page_size: PageSize::Small,
        };
        let b = a.arriving_at(99);
        assert_eq!(b.at, 99);
        assert_eq!(b.sm, 3);
        assert_eq!(b.asid, Asid::new(1));
        assert_eq!(b.vpn, a.vpn);
    }
}
