//! The shared pipeline's concrete stages (the back half of the paper's
//! Figure 1): the interconnect hop, the VPN-interleaved L2 TLB, and the
//! shared walker pool. The SM-private stages (L1 TLB, VIPT L1 data
//! cache) live on [`PerSmFront`](crate::PerSmFront) in `split.rs`.

use crate::config::L2Policy;
use crate::ports::Ports;
use crate::stage::{Access, Outcome, Stage, StageStats};
use tlb::{
    InvariantViolation, SetAssocTlb, SubEntryTlb, TlbConfig, TlbOutcome, TlbRequest, TlbStats,
    TranslationBuffer,
};
use vmem::{AddressSpace, Asid, FaultKind, PageSize, Ppn, Vpn, WalkerPool, WalkerStats};

fn request(acc: &Access) -> TlbRequest {
    TlbRequest::with_page_size(acc.vpn, acc.tb_slot, acc.page_size).with_asid(acc.asid)
}

/// One direction of the SM-to-partition interconnect: a fixed-latency
/// hop with no arbitration (the engine models contention at the L2 TLB
/// ports and the walker pool, not on the network itself).
pub struct IcntLink {
    latency: u64,
    stats: StageStats,
}

impl IcntLink {
    /// A hop of `latency` cycles.
    pub fn new(latency: u64) -> Self {
        IcntLink {
            latency,
            stats: StageStats::default(),
        }
    }

    /// The hop latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

impl Stage for IcntLink {
    fn name(&self) -> &'static str {
        "icnt"
    }

    fn access(&mut self, acc: &Access) -> Outcome {
        let o = Outcome {
            ppn: None,
            ready_at: acc.at + self.latency,
            queue_cycles: 0,
            service_cycles: self.latency,
            fault_cycles: 0,
        };
        self.stats.record(&o);
        o
    }

    fn stats(&self) -> StageStats {
        self.stats
    }
}

/// The translation structure inside one L2 slice: the baseline
/// ASID-tagged set-associative array, or the MIG-style sub-entry-sharing
/// organization ([`L2Policy::SubEntry`]).
pub enum SliceKind {
    /// ASID-tagged set-associative slice (baseline and
    /// [`L2Policy::MaskTokens`]).
    Set(SetAssocTlb),
    /// VPN-tagged ways with per-ASID sub-entries.
    Sub(SubEntryTlb),
}

impl SliceKind {
    fn buffer(&self) -> &dyn TranslationBuffer {
        match self {
            SliceKind::Set(t) => t,
            SliceKind::Sub(t) => t,
        }
    }

    fn buffer_mut(&mut self) -> &mut dyn TranslationBuffer {
        match self {
            SliceKind::Set(t) => t,
            SliceKind::Sub(t) => t,
        }
    }

    fn resident_of(&self, asid: Asid) -> usize {
        match self {
            SliceKind::Set(t) => t.resident_of(asid),
            SliceKind::Sub(t) => t.resident_of(asid),
        }
    }
}

/// MASK-style fill-token state for one slice: each app's resident-entry
/// budget, and how many fills bypassed the slice once it was exhausted.
struct Tokens {
    quota: usize,
    bypasses: u64,
}

/// One slice of the shared L2 TLB: a [`SliceKind`] structure, optionally
/// guarded by MASK-style fill tokens. The token gate lives *inside*
/// [`L2Slice::insert`], so every fill path makes the fill/bypass
/// decision the same way, reading only resident-entry state.
pub struct L2Slice {
    kind: SliceKind,
    tokens: Option<Tokens>,
}

impl L2Slice {
    fn new(kind: SliceKind, quota: Option<usize>) -> Self {
        L2Slice {
            kind,
            tokens: quota.map(|quota| Tokens { quota, bypasses: 0 }),
        }
    }

    /// Probes the slice, recording hit/miss stats.
    pub fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        self.kind.buffer_mut().lookup(req)
    }

    /// Installs a translation — unless the requester's fill tokens for
    /// this slice are exhausted, in which case the fill bypasses the
    /// slice entirely (counted in [`L2Slice::token_bypasses`]).
    pub fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        if let Some(tok) = &mut self.tokens {
            if self.kind.resident_of(req.asid) >= tok.quota {
                tok.bypasses += 1;
                return;
            }
        }
        self.kind.buffer_mut().insert(req, ppn);
    }

    /// Probes for `(asid, vpn)` without perturbing any state.
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        match &self.kind {
            SliceKind::Set(t) => t.peek(asid, vpn),
            SliceKind::Sub(t) => t.peek(asid, vpn),
        }
    }

    /// Cumulative slice counters.
    pub fn stats(&self) -> TlbStats {
        self.kind.buffer().stats()
    }

    /// Per-ASID breakdown of the slice counters.
    pub fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.kind.buffer().stats_by_asid()
    }

    /// Fills that bypassed this slice on exhausted tokens (0 without
    /// [`L2Policy::MaskTokens`]).
    pub fn token_bypasses(&self) -> u64 {
        self.tokens.as_ref().map_or(0, |t| t.bypasses)
    }

    /// Lookups served by the underlying buffer's MRU memo fast path
    /// (wall-clock accounting, forwarded for report totals).
    pub fn fastpath_hits(&self) -> u64 {
        self.kind.buffer().fastpath_hits()
    }

    /// Valid entries the slice currently holds for `asid` (the token
    /// gate's input).
    pub fn resident_of(&self, asid: Asid) -> usize {
        self.kind.resident_of(asid)
    }

    /// Validates the underlying structure's invariants plus the token
    /// gate's own: every app's resident count stays within quota.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.kind.buffer().check_invariants()?;
        if let Some(tok) = &self.tokens {
            for (asid, _) in self.stats_by_asid() {
                let resident = self.kind.resident_of(asid);
                if resident > tok.quota {
                    return Err(InvariantViolation::new(
                        "L2Slice",
                        format!(
                            "ASID {asid} holds {resident} entries over its {}-token quota",
                            tok.quota
                        ),
                        self.kind.buffer().dump_state(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The underlying translation structure.
    pub fn buffer(&self) -> &dyn TranslationBuffer {
        self.kind.buffer()
    }
}

/// The shared L2 TLB, VPN-interleaved over slices, each slice fronted
/// by a [`Ports`] bank. Requests first win a port (queueing under miss
/// floods), then probe the slice.
pub struct L2TlbStage {
    slices: Vec<L2Slice>,
    ports: Vec<Ports>,
    stats: StageStats,
}

impl L2TlbStage {
    /// Divides `config` over `slices` slices (clamped to at least one),
    /// each with `ports` lookup ports held `occupancy` cycles per grant,
    /// organized per `policy`.
    pub fn new(
        config: TlbConfig,
        slices: usize,
        ports: usize,
        occupancy: u64,
        policy: L2Policy,
    ) -> Self {
        let n = slices.max(1);
        let per_slice = config.sliced(n);
        let mk = |_: usize| match policy {
            L2Policy::Shared | L2Policy::MaskTokens { .. } => {
                SliceKind::Set(SetAssocTlb::new(per_slice))
            }
            L2Policy::SubEntry { subs } => SliceKind::Sub(SubEntryTlb::new(per_slice, subs)),
        };
        let quota = match policy {
            L2Policy::MaskTokens { quota } => Some(quota),
            _ => None,
        };
        L2TlbStage {
            slices: (0..n).map(|i| L2Slice::new(mk(i), quota)).collect(),
            ports: (0..n).map(|_| Ports::new(ports, occupancy)).collect(),
            stats: StageStats::default(),
        }
    }

    fn slice_of(&self, acc: &Access) -> usize {
        // simlint: allow(lossy-cast, reason = "modulo slice count bounds the value below the slice-vector length before narrowing")
        (acc.vpn.raw() % self.slices.len() as u64) as usize
    }

    /// Fills the slice owning the access's VPN after a walk resolves.
    pub fn fill(&mut self, acc: &Access, ppn: Ppn) {
        let s = self.slice_of(acc);
        self.slices[s].insert(&request(acc), ppn);
    }

    /// The slices, in interleave order.
    pub fn slices(&self) -> &[L2Slice] {
        &self.slices
    }

    /// Aggregate TLB counters summed over slices.
    pub fn tlb_stats(&self) -> TlbStats {
        self.slices
            .iter()
            .fold(TlbStats::default(), |a, t| a + t.stats())
    }

    /// Per-ASID TLB counters merged over slices, sorted by ASID.
    pub fn tlb_stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        let mut merged: std::collections::BTreeMap<Asid, TlbStats> = std::collections::BTreeMap::new();
        for slice in &self.slices {
            for (asid, s) in slice.stats_by_asid() {
                let e = merged.entry(asid).or_default();
                *e += s;
            }
        }
        merged.into_iter().collect()
    }

    /// Fills that bypassed a slice on exhausted MASK tokens, summed.
    pub fn token_bypasses(&self) -> u64 {
        self.slices.iter().map(L2Slice::token_bypasses).sum()
    }
}

impl Stage for L2TlbStage {
    fn name(&self) -> &'static str {
        "l2_tlb"
    }

    fn access(&mut self, acc: &Access) -> Outcome {
        let s = self.slice_of(acc);
        let grant = self.ports[s].acquire(acc.at);
        let out = self.slices[s].lookup(&request(acc));
        let ppn = if out.hit {
            Some(out.ppn.expect("hit carries ppn")) // simlint: allow(hot-unwrap, reason = "TlbOutcome::hit always carries a ppn")
        } else {
            None
        };
        let o = Outcome {
            ppn,
            ready_at: grant + out.latency,
            queue_cycles: grant - acc.at,
            service_cycles: out.latency,
            fault_cycles: 0,
        };
        self.stats.record(&o);
        o
    }

    fn stats(&self) -> StageStats {
        self.stats
    }
}

/// The shared page-table-walker pool plus the UVM address spaces it
/// walks — one per co-running application, indexed by [`Asid`]. Owns
/// demand-fault accounting: a first touch adds the configured fault
/// penalty as `fault_cycles`, attributed separately from the walk
/// itself.
pub struct WalkerStage {
    pool: WalkerPool,
    spaces: Vec<AddressSpace>,
    base_latency: u64,
    per_level_latency: u64,
    fault_latency: u64,
    demand_faults: u64,
    stats: StageStats,
}

impl WalkerStage {
    /// Builds the pool over a single address space (the solo-run shape;
    /// see [`WalkerStage::new_multi`] for co-runs).
    pub fn new(
        space: AddressSpace,
        walkers: usize,
        walk_latency: u64,
        per_level_latency: u64,
        fault_latency: u64,
    ) -> Self {
        Self::new_multi(
            vec![space],
            walkers,
            walk_latency,
            per_level_latency,
            fault_latency,
        )
    }

    /// Builds the pool over one address space per co-running app (ASID
    /// `i` walks `spaces[i]`'s page table) with the paper's analytic walk
    /// model: `walk_latency` flat, plus `per_level_latency` per radix
    /// level touched when non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `spaces` is empty or the spaces disagree on page size
    /// (the hierarchy carries one page size end to end).
    pub fn new_multi(
        spaces: Vec<AddressSpace>,
        walkers: usize,
        walk_latency: u64,
        per_level_latency: u64,
        fault_latency: u64,
    ) -> Self {
        assert!(!spaces.is_empty(), "at least one address space required");
        let ps = spaces[0].page_size();
        assert!(
            spaces.iter().all(|s| s.page_size() == ps),
            "co-running address spaces must share a page size"
        );
        WalkerStage {
            pool: WalkerPool::new(walkers, walk_latency),
            spaces,
            base_latency: walk_latency,
            per_level_latency,
            fault_latency,
            demand_faults: 0,
            stats: StageStats::default(),
        }
    }

    /// UVM demand faults taken so far.
    pub fn demand_faults(&self) -> u64 {
        self.demand_faults
    }

    /// Walker-pool activity counters.
    pub fn walker_stats(&self) -> WalkerStats {
        self.pool.stats()
    }

    /// The address space of ASID 0 (the solo-run accessor).
    pub fn space(&self) -> &AddressSpace {
        &self.spaces[0]
    }

    /// All address spaces, indexed by ASID.
    pub fn spaces(&self) -> &[AddressSpace] {
        &self.spaces
    }

    /// `asid`'s address space.
    pub fn space_of(&self, asid: Asid) -> &AddressSpace {
        &self.spaces[asid.index()]
    }

    /// Page size of the address spaces (identical across apps).
    pub fn page_size(&self) -> PageSize {
        self.spaces[0].page_size()
    }
}

impl Stage for WalkerStage {
    fn name(&self) -> &'static str {
        "walker"
    }

    fn access(&mut self, acc: &Access) -> Outcome {
        // One radix traversal serves both the translation (first touch
        // demand-pages the frame in, mutating the space) and the walk's
        // measured depth — `translate_with_walk_info` reports the level
        // count a separate post-translation walk would.
        let space = self
            .spaces
            .get_mut(acc.asid.index())
            .expect("access ASID outside the configured address spaces"); // simlint: allow(hot-unwrap, reason = "the engine assigns ASIDs densely from the co-run app list")
        let (pa, fault, levels) = space
            .translate_with_walk_info(acc.va)
            .expect("workload addresses must fall inside allocated buffers"); // simlint: allow(hot-unwrap, reason = "documented panic contract: out-of-buffer addresses are generator bugs")
        let page_size = space.page_size();
        let latency = if self.per_level_latency == 0 {
            self.base_latency
        } else {
            self.base_latency + self.per_level_latency * levels as u64
        };
        let waited_before = self.pool.stats().queue_wait_cycles;
        // The pool coalesces walks by key equality; qualify the VPN with
        // the ASID (the documented `asid << 53` packing, lossless for
        // ≤52-bit VPNs) so co-running apps walking the same virtual page
        // never share a walk — they traverse different page tables.
        let key = Vpn::new((u64::from(acc.asid.raw()) << 53) | acc.vpn.raw());
        let done = self.pool.submit_with_latency(acc.at, key, latency);
        let queue_cycles = self.pool.stats().queue_wait_cycles - waited_before;
        let fault_cycles = if fault == FaultKind::DemandPaged {
            self.demand_faults += 1;
            self.fault_latency
        } else {
            0
        };
        let o = Outcome {
            ppn: Some(pa.ppn(page_size)),
            ready_at: done + fault_cycles,
            queue_cycles,
            // Coalesced walks ride an in-flight walk: their service time
            // is whatever remains of it, keeping `ready_at == at +
            // latency()` exact for every path.
            service_cycles: done - acc.at - queue_cycles,
            fault_cycles,
        };
        self.stats.record(&o);
        o
    }

    fn stats(&self) -> StageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmem::Vpn;

    fn acc(at: u64, vpn: u64) -> Access {
        Access {
            at,
            sm: 0,
            asid: Asid::default(),
            tb_slot: 0,
            va: Vpn::new(vpn).base_addr(PageSize::Small),
            vpn: Vpn::new(vpn),
            page_size: PageSize::Small,
        }
    }

    fn acc_as(asid: u16, at: u64, vpn: u64) -> Access {
        Access {
            asid: Asid::new(asid),
            ..acc(at, vpn)
        }
    }

    #[test]
    fn icnt_is_a_pure_delay() {
        let mut link = IcntLink::new(20);
        let o = link.access(&acc(5, 1));
        assert_eq!(o.ready_at, 25);
        assert_eq!(o.latency(), 20);
        assert!(o.ppn.is_none());
    }

    #[test]
    fn l2_stage_queues_on_ports_and_interleaves_slices() {
        // 4 slices, 1 port each, occupancy 1.
        let mut l2 = L2TlbStage::new(TlbConfig::dac23_l2(), 4, 1, 1, L2Policy::Shared);
        assert_eq!(l2.slices().len(), 4);
        // VPNs 0 and 4 both map to slice 0; back-to-back lookups at the
        // same cycle serialize on the single port.
        let first = l2.access(&acc(0, 0));
        let second = l2.access(&acc(0, 4));
        assert_eq!(first.queue_cycles, 0);
        assert_eq!(second.queue_cycles, 1);
        // VPN 1 lives on slice 1 with an idle port.
        let other = l2.access(&acc(0, 1));
        assert_eq!(other.queue_cycles, 0);
        assert_eq!(l2.tlb_stats().misses, 3);
    }

    #[test]
    fn l2_fill_makes_the_owning_slice_hit() {
        let mut l2 = L2TlbStage::new(TlbConfig::dac23_l2(), 2, 2, 1, L2Policy::Shared);
        let a = acc(0, 5);
        assert!(l2.access(&a).ppn.is_none());
        l2.fill(&a, Ppn::new(9));
        let hit = l2.access(&a.arriving_at(100));
        assert_eq!(hit.ppn, Some(Ppn::new(9)));
        // ready = grant(100) + 10-cycle lookup.
        assert_eq!(hit.ready_at, 110);
    }

    #[test]
    fn l2_slices_isolate_asids() {
        let mut l2 = L2TlbStage::new(TlbConfig::dac23_l2(), 2, 2, 1, L2Policy::Shared);
        let a1 = acc_as(1, 0, 5);
        let a2 = acc_as(2, 0, 5);
        l2.fill(&a1, Ppn::new(100));
        // Same VPN, other app: the ASID is part of the tag compare.
        assert!(l2.access(&a2).ppn.is_none(), "cross-ASID lookup must miss");
        assert_eq!(l2.access(&a1.arriving_at(50)).ppn, Some(Ppn::new(100)));
        let by = l2.tlb_stats_by_asid();
        let agg = by.iter().fold(TlbStats::default(), |s, (_, t)| s + *t);
        assert_eq!(agg, l2.tlb_stats(), "per-ASID slice stats sum to aggregate");
    }

    #[test]
    fn mask_tokens_bypass_fills_over_quota() {
        // One slice, quota 2: the third distinct fill from app 1 bypasses.
        let mut l2 = L2TlbStage::new(
            TlbConfig::dac23_l2(),
            1,
            2,
            1,
            L2Policy::MaskTokens { quota: 2 },
        );
        for vpn in 0..3u64 {
            l2.fill(&acc_as(1, 0, vpn), Ppn::new(100 + vpn));
        }
        assert_eq!(l2.token_bypasses(), 1, "third fill exceeded the quota");
        assert_eq!(l2.slices()[0].resident_of(Asid::new(1)), 2);
        assert!(
            l2.access(&acc_as(1, 10, 2)).ppn.is_none(),
            "bypassed fill left no entry"
        );
        // Another app still has its own tokens.
        l2.fill(&acc_as(2, 0, 7), Ppn::new(900));
        assert_eq!(l2.access(&acc_as(2, 20, 7)).ppn, Some(Ppn::new(900)));
        for s in l2.slices() {
            s.check_invariants().expect("token quota invariant holds");
        }
    }

    #[test]
    fn sub_entry_slices_share_tags_across_asids() {
        let mut l2 = L2TlbStage::new(
            TlbConfig::dac23_l2(),
            2,
            2,
            1,
            L2Policy::SubEntry { subs: 4 },
        );
        l2.fill(&acc_as(1, 0, 5), Ppn::new(100));
        l2.fill(&acc_as(2, 0, 5), Ppn::new(200));
        assert_eq!(l2.access(&acc_as(1, 10, 5)).ppn, Some(Ppn::new(100)));
        assert_eq!(l2.access(&acc_as(2, 10, 5)).ppn, Some(Ppn::new(200)));
        // One shared tag serves both: a single insertion-per-app, and the
        // per-ASID split still sums to the aggregate.
        let by = l2.tlb_stats_by_asid();
        let agg = by.iter().fold(TlbStats::default(), |s, (_, t)| s + *t);
        assert_eq!(agg, l2.tlb_stats());
    }

    #[test]
    fn walker_stage_charges_walk_and_first_touch_fault() {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 16).expect("fresh space");
        let va = buf.addr_of(0);
        let mut w = WalkerStage::new(space, 8, 500, 0, 2000);
        let a = Access {
            va,
            vpn: va.vpn(PageSize::Small),
            ..acc(0, 0)
        };
        let first = w.access(&a);
        assert_eq!(first.fault_cycles, 2000, "first touch demand-pages");
        assert_eq!(first.ready_at, 2500);
        assert_eq!(w.demand_faults(), 1);
        // Same page later: walk only, no fault.
        let again = w.access(&a.arriving_at(10_000));
        assert_eq!(again.fault_cycles, 0);
        assert_eq!(again.ready_at, 10_500);
        assert_eq!(w.walker_stats().walks, 2);
    }

    #[test]
    fn walker_routes_each_asid_to_its_own_page_table() {
        // Two apps with identically laid-out spaces: walks for the same
        // VA must hit separate page tables (distinct demand faults) and
        // must never coalesce across ASIDs.
        let mut spaces = Vec::new();
        let mut vas = Vec::new();
        for _ in 0..2 {
            let mut s = AddressSpace::new(PageSize::Small);
            let buf = s.allocate("b", 1 << 16).expect("fresh space");
            vas.push(buf.addr_of(0));
            spaces.push(s);
        }
        assert_eq!(vas[0], vas[1], "twin allocation is deterministic");
        let mut w = WalkerStage::new_multi(spaces, 8, 500, 0, 2000);
        let mk = |asid: u16, at: u64| Access {
            va: vas[0],
            vpn: vas[0].vpn(PageSize::Small),
            ..acc_as(asid, at, 0)
        };
        let a = w.access(&mk(0, 0));
        let b = w.access(&mk(1, 0));
        assert_eq!(a.fault_cycles, 2000, "app 0 first touch");
        assert_eq!(b.fault_cycles, 2000, "app 1 first touch is its own");
        assert_eq!(w.demand_faults(), 2);
        assert_eq!(
            w.walker_stats().coalesced,
            0,
            "same VPN, different ASIDs: no shared walk"
        );
        // Same app re-walking the same page does coalesce.
        let _ = w.access(&mk(0, 1));
        let _ = w.access(&mk(0, 2));
        assert!(w.walker_stats().coalesced >= 1);
    }

    #[test]
    fn walker_outcome_latency_is_exact_even_when_coalesced() {
        let mut space = AddressSpace::new(PageSize::Small);
        let buf = space.allocate("b", 1 << 16).expect("fresh space");
        let va = buf.addr_of(0);
        let mut w = WalkerStage::new(space, 8, 500, 0, 0);
        let a = Access {
            va,
            vpn: va.vpn(PageSize::Small),
            ..acc(0, 0)
        };
        let first = w.access(&a);
        assert_eq!(first.ready_at, a.at + first.latency());
        // Coalesce onto the in-flight walk mid-way.
        let b = a.arriving_at(250);
        let coalesced = w.access(&b);
        assert_eq!(coalesced.ready_at, first.ready_at);
        assert_eq!(coalesced.ready_at, b.at + coalesced.latency());
        assert_eq!(w.walker_stats().coalesced, 1);
    }
}
