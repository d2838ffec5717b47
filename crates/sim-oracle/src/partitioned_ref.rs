//! Clarity-first reference model of the paper's TB-id-partitioned L1
//! TLB with dynamic adjacent set sharing (§IV-B, Figures 8 and 9).
//!
//! Written literally from the prose: explicit per-set slot arrays, an
//! explicit 16-bit sharing register, explicit spill counters. Every rule
//! the optimized [`orchestrated_tlb::PartitionedTlb`] implements is
//! restated here as a plain loop over slots:
//!
//! - set ownership `⌊i·S/N⌋ .. ⌊(i+1)·S/N⌋` with footnote-1 aliasing
//!   when TBs outnumber sets, and `tb % N` normalization of out-of-range
//!   hardware slot ids;
//! - lookups probing the own group plus (flag engaged) the successor
//!   TB's group, in ascending set order, paying one base latency per
//!   probed set when the multi-set overhead is modelled;
//! - insertion refreshing an already-resident page in place — with
//!   compression off the refresh is *unconditional* (last writer wins;
//!   no payload comparison), under compression only when run-coherent — then
//!   preferring the VPN-chosen candidate set, then any empty way in the
//!   group, then rescuing the candidate set's LRU victim into the
//!   neighbour's sets when the displacement margin licenses it (setting
//!   the spiller's sharing flag), and only then truly evicting;
//! - PACT'20 run compression (merge into a coherent run of the own
//!   group, decompress latency on multi-page hits);
//! - sharing-flag reset and entry adoption when the TB occupying the
//!   shared sets finishes, and whole-register reset on concurrency
//!   changes.
//!
//! One deliberately non-obvious piece of fidelity: **a slot keeps its
//! recency stamp after its entry is invalidated** (coherence clears and
//! whole-TLB flushes drop the entry but not the stamp), and spill-slot
//! selection prefers the invalid slot with the *smallest stale stamp*,
//! first-in-scan-order on ties. These dead stamps are observable — they
//! decide which slot a rescued victim lands in, which in turn decides
//! later victims — so the reference models slot positions exactly.

use orchestrated_tlb::SharingPolicy;
use std::collections::BTreeMap;
use tlb::{PerAsidStats, TlbConfig, TlbOutcome, TlbRequest, TlbStats};
use vmem::{Asid, Ppn, Vpn};

/// Configuration of the reference model (mirrors
/// `PartitionedTlbConfig`, flattened to plain fields).
#[derive(Copy, Clone, Debug)]
pub struct OraclePartitionedConfig {
    /// Geometry: entries, ways per set, base lookup latency.
    pub geometry: TlbConfig,
    /// Set-sharing policy under test.
    pub sharing: SharingPolicy,
    /// Charge one base latency per probed set.
    pub per_set_lookup_overhead: bool,
    /// Minimum idleness advantage a neighbour entry must have over the
    /// victim before a spill may displace it.
    pub displacement_margin: u64,
    /// PACT'20 compression as `(degree, decompress_latency)`.
    pub compression: Option<(usize, u64)>,
}

/// One resident translation (a compressed run of `degree` pages, or a
/// single literal page).
#[derive(Copy, Clone, Debug)]
struct Entry {
    /// Address space the run belongs to: part of the tag compare, so one
    /// app never hits (or merges into) another app's runs.
    asid: Asid,
    base_vpn: Vpn,
    base_ppn: Ppn,
    /// Valid pages within the run (bit 0 alone when uncompressed).
    mask: u32,
    /// PPN is `base_ppn` verbatim rather than run base + offset.
    literal: bool,
    /// TB slot whose placement licence covers this entry.
    owner: u8,
}

/// One physical way: an optional entry, plus a recency stamp that
/// *survives* the entry's invalidation (see module docs).
#[derive(Copy, Clone, Debug, Default)]
struct Slot {
    entry: Option<Entry>,
    stamp: u64,
}

/// One app's dynamic-sharing state: the §IV-B register word and the
/// `AdjacentCounter` spill counters, keyed by `(asid, tb)` exactly like
/// the subject — one app's spills never widen another app's reach, and a
/// finished TB only releases its own app's licences.
#[derive(Copy, Clone, Debug, Default)]
struct ShareWord {
    flags: u16,
    counters: [u8; 16],
}

/// Reference model of the TB-id-partitioned TLB.
///
/// # Example
///
/// ```
/// use orchestrated_tlb::SharingPolicy;
/// use sim_oracle::partitioned_ref::{OraclePartitionedConfig, OraclePartitionedTlb};
/// use tlb::{TlbConfig, TlbRequest};
/// use vmem::{Ppn, Vpn};
///
/// let mut oracle = OraclePartitionedTlb::new(OraclePartitionedConfig {
///     geometry: TlbConfig::dac23_l1(),
///     sharing: SharingPolicy::Adjacent,
///     per_set_lookup_overhead: true,
///     displacement_margin: 512,
///     compression: None,
/// });
/// oracle.set_concurrent_tbs(16);
/// let req = TlbRequest::new(Vpn::new(42), 3);
/// oracle.insert(&req, Ppn::new(7));
/// assert!(oracle.lookup(&req).hit);
/// assert!(!oracle.lookup(&TlbRequest::new(Vpn::new(42), 4)).hit);
/// ```
#[derive(Debug, Clone)]
pub struct OraclePartitionedTlb {
    cfg: OraclePartitionedConfig,
    /// `sets()` arrays of `associativity` slots each.
    sets: Vec<Vec<Slot>>,
    concurrent_tbs: u8,
    /// Per-app sharing registers (see [`ShareWord`]).
    share: BTreeMap<Asid, ShareWord>,
    clock: u64,
    stats: TlbStats,
    /// Per-app stats mirror: evictions to the victim's app, the rest to
    /// the requester's. Sums to `stats`.
    per_asid: PerAsidStats,
    spills: u64,
}

impl OraclePartitionedTlb {
    /// Creates an empty reference TLB (16 concurrent TBs until told
    /// otherwise, matching the subject).
    pub fn new(cfg: OraclePartitionedConfig) -> Self {
        OraclePartitionedTlb {
            sets: vec![vec![Slot::default(); cfg.geometry.associativity]; cfg.geometry.sets()],
            cfg,
            concurrent_tbs: 16,
            share: BTreeMap::new(),
            clock: 0,
            stats: TlbStats::default(),
            per_asid: PerAsidStats::default(),
            spills: 0,
        }
    }

    fn degree(&self) -> u64 {
        self.cfg.compression.map(|(d, _)| d as u64).unwrap_or(1)
    }

    fn run_base(&self, vpn: Vpn) -> Vpn {
        Vpn::new(vpn.raw() & !(self.degree() - 1))
    }

    fn run_offset(&self, vpn: Vpn) -> u32 {
        // simlint: allow(lossy-cast, reason = "modulo compression degree (a small power of two) bounds the offset well below u32")
        (vpn.raw() % self.degree()) as u32
    }

    fn groups(&self) -> usize {
        usize::from(self.concurrent_tbs).max(1)
    }

    /// Out-of-range hardware slot ids alias onto the live groups.
    fn norm_slot(&self, tb: u8) -> u8 {
        (usize::from(tb) % self.groups()) as u8
    }

    /// The sets TB `tb` owns: an equal share of the geometry, or a
    /// single aliased set when TBs outnumber sets (footnote 1).
    fn group_of(&self, tb: u8) -> Vec<usize> {
        let sets = self.cfg.geometry.sets();
        let n = self.groups();
        let tb = usize::from(tb);
        if n >= sets {
            vec![tb % sets]
        } else {
            (tb * sets / n..(tb + 1) * sets / n).collect()
        }
    }

    /// The smallest TB slot whose group contains `set`.
    fn home_tb(&self, set: usize) -> u8 {
        let n = self.groups();
        if n >= self.cfg.geometry.sets() {
            set as u8
        } else {
            (0..n as u8)
                .find(|&tb| self.group_of(tb).contains(&set))
                .unwrap_or(0)
        }
    }

    /// Whether app `asid`'s flag for TB `tb` is engaged — each app reads
    /// only its own register word.
    fn flag_engaged(&self, asid: Asid, tb: u8) -> bool {
        let word = self.share.get(&asid).copied().unwrap_or_default();
        match self.cfg.sharing {
            SharingPolicy::None => false,
            SharingPolicy::Adjacent => word.flags & (1 << (u16::from(tb) % 16)) != 0,
            SharingPolicy::AdjacentCounter { threshold } => {
                word.counters[usize::from(tb) % 16] >= threshold
            }
            SharingPolicy::AllToAll => true,
            // SharingPolicy is non_exhaustive upstream-style matching is
            // not needed: the enum is ours to mirror exhaustively.
        }
    }

    /// Sets a lookup from app `asid`'s TB `tb` probes, in probe order.
    fn searchable_sets(&self, asid: Asid, tb: u8) -> Vec<usize> {
        if self.cfg.sharing == SharingPolicy::AllToAll {
            return (0..self.cfg.geometry.sets()).collect();
        }
        let mut sets = self.group_of(tb);
        if self.flag_engaged(asid, tb) {
            let successor = ((usize::from(tb) + 1) % self.groups()) as u8;
            sets.extend(self.group_of(successor));
            sets.sort_unstable();
            sets.dedup();
        }
        sets
    }

    fn lookup_latency(&self, sets_probed: usize, compressed_hit: bool) -> u64 {
        let base = self.cfg.geometry.lookup_latency;
        let probe = if self.cfg.per_set_lookup_overhead {
            base * sets_probed.max(1) as u64
        } else {
            base
        };
        let decompress = if compressed_hit {
            self.cfg.compression.map(|(_, l)| l).unwrap_or(0)
        } else {
            0
        };
        probe + decompress
    }

    /// First slot (in probe order) holding app `asid`'s `vpn`, as
    /// `(set, way)`. The ASID is part of the tag compare.
    fn find(&self, asid: Asid, sets: &[usize], vpn: Vpn) -> Option<(usize, usize)> {
        let base = self.run_base(vpn);
        let off = self.run_offset(vpn);
        for &set in sets {
            for (way, slot) in self.sets[set].iter().enumerate() {
                if let Some(e) = slot.entry {
                    if e.asid == asid && e.base_vpn == base && e.mask & (1 << off) != 0 {
                        return Some((set, way));
                    }
                }
            }
        }
        None
    }

    fn ppn_of(&self, e: &Entry, vpn: Vpn) -> Ppn {
        if e.literal {
            e.base_ppn
        } else {
            Ppn::new(e.base_ppn.raw() + u64::from(self.run_offset(vpn)))
        }
    }

    /// Probes the TLB, updating recency and stats.
    pub fn lookup(&mut self, req: &TlbRequest) -> TlbOutcome {
        let tb = self.norm_slot(req.tb_slot);
        self.clock += 1;
        let sets = self.searchable_sets(req.asid, tb);
        match self.find(req.asid, &sets, req.vpn) {
            Some((set, way)) => {
                let e = self.sets[set][way].entry.expect("find returns live slots");
                let compressed = e.mask.count_ones() > 1;
                let latency = self.lookup_latency(sets.len(), compressed);
                self.sets[set][way].stamp = self.clock;
                self.stats.record(true);
                self.per_asid.entry(req.asid).record(true);
                TlbOutcome::hit(self.ppn_of(&e, req.vpn), latency)
            }
            None => {
                self.stats.record(false);
                self.per_asid.entry(req.asid).record(false);
                TlbOutcome::miss(self.lookup_latency(sets.len(), false))
            }
        }
    }

    /// Installs a translation, spelling out the full §IV-B insertion
    /// procedure (refresh, compression merge, empty way, victim rescue
    /// into the neighbour, eviction).
    pub fn insert(&mut self, req: &TlbRequest, ppn: Ppn) {
        let tb = self.norm_slot(req.tb_slot);
        self.clock += 1;
        let clock = self.clock;
        let base = self.run_base(req.vpn);
        let off = self.run_offset(req.vpn);
        // The PPN the run base would need for `ppn` to sit at `off`.
        let expected_base_ppn = ppn.raw().checked_sub(u64::from(off));

        // 1. Already reachable? Without compression the refresh is
        //    *unconditional* — last writer wins, no payload comparison.
        //    Under compression
        //    the base-delta predicate is inherently payload-dependent:
        //    refresh only when coherent, otherwise drop the stale page
        //    from its run (the slot's stamp survives even if the run
        //    empties).
        if let Some((set, way)) = self.find(req.asid, &self.searchable_sets(req.asid, tb), req.vpn) {
            let slot = &mut self.sets[set][way];
            let e = slot.entry.as_mut().expect("find returns live slots");
            if self.cfg.compression.is_none() {
                e.base_ppn = ppn;
                slot.stamp = clock;
                return;
            }
            let coherent = if e.literal {
                e.mask == 1 << off && e.base_ppn == ppn
            } else {
                Some(e.base_ppn.raw()) == expected_base_ppn
            };
            if coherent {
                slot.stamp = clock;
                return;
            }
            e.mask &= !(1 << off);
            if e.mask == 0 {
                slot.entry = None;
            }
        }

        // 2. Compression: extend a coherent run already in the own group.
        //    Runs never compress across address spaces: the candidate
        //    must carry the requester's ASID.
        if self.cfg.compression.is_some() {
            if let Some(expected) = expected_base_ppn {
                for set in self.group_of(tb) {
                    for slot in &mut self.sets[set] {
                        if let Some(e) = slot.entry.as_mut() {
                            if e.asid == req.asid
                                && !e.literal
                                && e.base_vpn == base
                                && e.base_ppn.raw() == expected
                            {
                                e.mask |= 1 << off;
                                slot.stamp = clock;
                                return;
                            }
                        }
                    }
                }
            }
        }

        // 3. A new entry is needed.
        self.stats.insertions += 1;
        self.per_asid.entry(req.asid).insertions += 1;
        let new_entry = match expected_base_ppn {
            Some(expected) if self.cfg.compression.is_some() => Entry {
                asid: req.asid,
                base_vpn: base,
                base_ppn: Ppn::new(expected),
                mask: 1 << off,
                literal: false,
                owner: tb,
            },
            // No compression, or the run-base PPN would underflow:
            // store the single page literally.
            _ => Entry {
                asid: req.asid,
                base_vpn: base,
                base_ppn: ppn,
                mask: 1 << off,
                literal: true,
                owner: tb,
            },
        };

        // Candidate set inside the own group, sub-indexed by VPN.
        let own = self.group_of(tb);
        let candidate = own[((req.vpn.raw() / self.degree()) % own.len() as u64) as usize];

        // 3a. An empty way: candidate set first, then the rest of the
        //     group in set order.
        let mut empty = None;
        for way in 0..self.cfg.geometry.associativity {
            if self.sets[candidate][way].entry.is_none() {
                empty = Some((candidate, way));
                break;
            }
        }
        if empty.is_none() {
            'group: for &set in &own {
                for way in 0..self.cfg.geometry.associativity {
                    if self.sets[set][way].entry.is_none() {
                        empty = Some((set, way));
                        break 'group;
                    }
                }
            }
        }
        if let Some((set, way)) = empty {
            self.sets[set][way] = Slot {
                entry: Some(new_entry),
                stamp: clock,
            };
            return;
        }

        // 3b. The group is full: the candidate set's LRU way is the
        //     victim (stamps are unique among live entries, so the
        //     minimum is unambiguous).
        let victim_way = (0..self.cfg.geometry.associativity)
            .min_by_key(|&w| self.sets[candidate][w].stamp)
            .expect("associativity is non-zero");
        let victim = self.sets[candidate][victim_way];

        // 3c. Dynamic sharing: rescue the victim into the successor
        //     TB's sets (anywhere outside the own group under
        //     all-to-all) if a slot there is empty, or holds an entry
        //     idle for `displacement_margin` longer than the victim.
        //     Empty slots win over live ones; among equals the lowest
        //     stamp wins, first in scan order on ties (dead stamps made
        //     this matter — see module docs).
        // Rescue is gated on the victim belonging to the spilling app:
        // the licence it would sit under is `(req.asid, tb)`, which
        // another app's lookups never consult — a cross-app rescue would
        // be permanently unreachable. Cross-app victims die in place.
        let victim_is_ours = victim
            .entry
            .is_some_and(|e| e.asid == req.asid);
        let mut rescued = false;
        if self.cfg.sharing != SharingPolicy::None && victim_is_ours {
            let spill_sets: Vec<usize> = if self.cfg.sharing == SharingPolicy::AllToAll {
                (0..self.cfg.geometry.sets())
                    .filter(|s| !own.contains(s))
                    .collect()
            } else {
                let successor = ((usize::from(tb) + 1) % self.groups()) as u8;
                self.group_of(successor)
            };
            let mut best: Option<(bool, u64, usize, usize)> = None;
            for &set in &spill_sets {
                for way in 0..self.cfg.geometry.associativity {
                    let slot = &self.sets[set][way];
                    let key = (slot.entry.is_some(), slot.stamp);
                    if best.is_none_or(|(live, stamp, _, _)| key < (live, stamp)) {
                        best = Some((key.0, key.1, set, way));
                    }
                }
            }
            if let Some((live, stamp, set, way)) = best {
                let displaceable =
                    !live || stamp.saturating_add(self.cfg.displacement_margin) < victim.stamp;
                if displaceable {
                    if live {
                        let displaced_asid = self.sets[set][way]
                            .entry
                            .expect("live slot has an entry")
                            .asid;
                        self.stats.evictions += 1;
                        self.per_asid.entry(displaced_asid).evictions += 1;
                    }
                    // The rescued entry moves with its stamp, re-owned
                    // by the spilling TB whose flag licenses the spot.
                    let mut moved = victim;
                    if let Some(e) = moved.entry.as_mut() {
                        e.owner = tb;
                    }
                    self.sets[set][way] = moved;
                    let word = self.share.entry(req.asid).or_default();
                    word.flags |= 1 << (u16::from(tb) % 16);
                    let c = &mut word.counters[usize::from(tb) % 16];
                    *c = c.saturating_add(1);
                    self.spills += 1;
                    rescued = true;
                }
            }
        }
        if !rescued {
            let victim_asid = victim
                .entry
                .map(|e| e.asid)
                .unwrap_or_default();
            self.stats.evictions += 1;
            self.per_asid.entry(victim_asid).evictions += 1;
        }
        self.sets[candidate][victim_way] = Slot {
            entry: Some(new_entry),
            stamp: clock,
        };
    }

    /// Non-perturbing content probe as app `asid`'s TB `tb_slot` would
    /// see it.
    pub fn peek(&self, asid: Asid, vpn: Vpn, tb_slot: u8) -> Option<Ppn> {
        let tb = self.norm_slot(tb_slot);
        let sets = self.searchable_sets(asid, tb);
        self.find(asid, &sets, vpn).map(|(set, way)| {
            let e = self.sets[set][way].entry.expect("find returns live slots");
            self.ppn_of(&e, vpn)
        })
    }

    /// App `asid`'s TB occupying `tb_slot` finished: clear its
    /// *predecessor's* sharing flag (the TB spilling INTO the finished
    /// TB's sets) in that app's register word only, and hand entries the
    /// predecessor parked abroad — this app's entries only — to each
    /// set's natural owner. Entries are kept; other apps' licences into
    /// the same sets survive (their TBs are still running).
    pub fn on_tb_finish(&mut self, asid: Asid, tb_slot: u8) {
        let tb = self.norm_slot(tb_slot);
        let n = self.groups() as u16;
        let pred = (u16::from(tb) + n - 1) % n;
        if let Some(word) = self.share.get_mut(&asid) {
            word.flags &= !(1 << (pred % 16));
            word.counters[usize::from(pred % 16)] = 0;
        }
        for set in 0..self.cfg.geometry.sets() {
            for way in 0..self.cfg.geometry.associativity {
                let Some(e) = self.sets[set][way].entry else {
                    continue;
                };
                if e.asid != asid || u16::from(e.owner) % 16 != pred % 16 {
                    continue;
                }
                if !self.group_of(e.owner).contains(&set) {
                    let home = self.home_tb(set);
                    self.sets[set][way].entry.as_mut().expect("checked").owner = home;
                }
            }
        }
    }

    /// Concurrency change at kernel launch: set groups move, so sharing
    /// state resets and every entry is adopted by its set's new owner.
    pub fn set_concurrent_tbs(&mut self, tbs: u8) {
        let tbs = tbs.max(1);
        if tbs == self.concurrent_tbs {
            return;
        }
        self.concurrent_tbs = tbs;
        self.share.clear();
        for set in 0..self.cfg.geometry.sets() {
            let home = self.home_tb(set);
            for slot in &mut self.sets[set] {
                if let Some(e) = slot.entry.as_mut() {
                    e.owner = home;
                }
            }
        }
    }

    /// Invalidates every entry and clears the sharing state; slot
    /// stamps and the clock are kept (matching the subject, where they
    /// remain observable through later spill-slot choices).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for slot in set {
                slot.entry = None;
            }
        }
        self.share.clear();
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Union of every app's sharing register word — single-app callers
    /// see exactly the pre-multi-tenant value.
    pub fn sharing_flags(&self) -> u16 {
        self.share.values().fold(0, |acc, w| acc | w.flags)
    }

    /// One app's sharing register word (0 if the app never spilled).
    pub fn sharing_flags_of(&self, asid: Asid) -> u16 {
        self.share.get(&asid).map_or(0, |w| w.flags)
    }

    /// Per-app breakdown of the cumulative statistics (mirrors
    /// [`tlb::TranslationBuffer::stats_by_asid`]).
    pub fn stats_by_asid(&self) -> Vec<(Asid, TlbStats)> {
        self.per_asid.non_empty()
    }

    /// Victims rescued into a neighbour's sets so far.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|s| s.entry.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig};
    use tlb::TranslationBuffer;

    fn pair(sharing: SharingPolicy, compression: Option<(usize, u64)>) -> (OraclePartitionedTlb, PartitionedTlb) {
        let geometry = TlbConfig::new(16, 2, 1); // 8 sets x 2 ways
        let oracle = OraclePartitionedTlb::new(OraclePartitionedConfig {
            geometry,
            sharing,
            per_set_lookup_overhead: true,
            displacement_margin: 4,
            compression,
        });
        let subject = PartitionedTlb::new(PartitionedTlbConfig {
            geometry,
            sharing,
            per_set_lookup_overhead: true,
            displacement_margin: 4,
            compression: compression.map(|(degree, decompress_latency)| tlb::CompressionConfig {
                degree,
                decompress_latency,
            }),
        });
        (oracle, subject)
    }

    /// Reference and subject agree op-for-op across every sharing
    /// policy on a churning multi-TB workload with TB completions — the
    /// oracle's own smoke test (the full differential harness lives in
    /// `diff`).
    #[test]
    fn tracks_the_optimized_tlb_across_policies() {
        for sharing in [
            SharingPolicy::None,
            SharingPolicy::Adjacent,
            SharingPolicy::AdjacentCounter { threshold: 2 },
            SharingPolicy::AllToAll,
        ] {
            let (mut oracle, mut subject) = pair(sharing, None);
            oracle.set_concurrent_tbs(4);
            subject.set_concurrent_tbs(4);
            for i in 0..400u64 {
                let vpn = Vpn::new(i * 13 % 37);
                let tb = (i % 5) as u8; // slot 4 exercises norm_slot aliasing
                let r = TlbRequest::new(vpn, tb);
                let a = oracle.lookup(&r);
                let b = subject.lookup(&r);
                assert_eq!(a, b, "{sharing:?} lookup {i}");
                if !a.hit {
                    oracle.insert(&r, Ppn::new(500 + vpn.raw()));
                    subject.insert(&r, Ppn::new(500 + vpn.raw()));
                }
                if i % 53 == 52 {
                    oracle.on_tb_finish(Asid::default(), tb);
                    subject.on_tb_finish(Asid::default(), tb);
                }
                assert_eq!(oracle.stats(), subject.stats(), "{sharing:?} stats {i}");
                assert_eq!(
                    oracle.sharing_flags(),
                    subject.sharing_flags(),
                    "{sharing:?} flags {i}"
                );
                assert_eq!(oracle.spills(), subject.spills(), "{sharing:?} spills {i}");
            }
            subject.check_invariants().expect("subject stays sound");
        }
    }

    #[test]
    fn tracks_the_optimized_tlb_under_compression() {
        let (mut oracle, mut subject) = pair(SharingPolicy::Adjacent, Some((4, 2)));
        oracle.set_concurrent_tbs(4);
        subject.set_concurrent_tbs(4);
        for i in 0..300u64 {
            let vpn = Vpn::new(i % 24);
            let tb = (i / 24 % 4) as u8;
            let r = TlbRequest::new(vpn, tb);
            let a = oracle.lookup(&r);
            let b = subject.lookup(&r);
            assert_eq!(a, b, "lookup {i}");
            if !a.hit {
                // Mostly contiguous mappings so runs merge, with a
                // deterministic sprinkle of run-breaking remaps.
                let ppn = if i % 7 == 3 { 9000 + i } else { 2000 + vpn.raw() };
                oracle.insert(&r, Ppn::new(ppn));
                subject.insert(&r, Ppn::new(ppn));
            }
            assert_eq!(oracle.stats(), subject.stats(), "stats {i}");
        }
    }

    /// Reference and subject agree op-for-op when two apps co-run on the
    /// same partitioned TLB: tag isolation, per-app sharing licences,
    /// per-app stats attribution, and (asid, tb)-scoped finish resets.
    #[test]
    fn tracks_the_optimized_tlb_across_address_spaces() {
        for sharing in [
            SharingPolicy::None,
            SharingPolicy::Adjacent,
            SharingPolicy::AdjacentCounter { threshold: 2 },
            SharingPolicy::AllToAll,
        ] {
            let (mut oracle, mut subject) = pair(sharing, None);
            oracle.set_concurrent_tbs(4);
            subject.set_concurrent_tbs(4);
            for i in 0..600u64 {
                let asid = Asid::new((i % 3) as u16);
                let vpn = Vpn::new(i * 13 % 37);
                let tb = (i % 5) as u8;
                let r = TlbRequest::new(vpn, tb).with_asid(asid);
                let a = oracle.lookup(&r);
                let b = subject.lookup(&r);
                assert_eq!(a, b, "{sharing:?} asid {asid} lookup {i}");
                if !a.hit {
                    // Per-app frames: the same VPN maps differently in
                    // each address space, so a tag-isolation bug would
                    // surface as a wrong PPN, not a coincidental match.
                    let ppn = Ppn::new(500 + vpn.raw() + 10_000 * asid.raw() as u64);
                    oracle.insert(&r, ppn);
                    subject.insert(&r, ppn);
                }
                if i % 53 == 52 {
                    oracle.on_tb_finish(asid, tb);
                    subject.on_tb_finish(asid, tb);
                }
                assert_eq!(oracle.stats(), subject.stats(), "{sharing:?} stats {i}");
                assert_eq!(
                    oracle.stats_by_asid(),
                    subject.stats_by_asid(),
                    "{sharing:?} per-asid stats {i}"
                );
                for a in 0..3u16 {
                    assert_eq!(
                        oracle.sharing_flags_of(Asid::new(a)),
                        subject.sharing_flags_of(Asid::new(a)),
                        "{sharing:?} asid {a} flags {i}"
                    );
                }
                assert_eq!(oracle.spills(), subject.spills(), "{sharing:?} spills {i}");
            }
            subject.check_invariants().expect("subject stays sound");
            let sum = oracle
                .stats_by_asid()
                .into_iter()
                .fold(TlbStats::default(), |a, (_, s)| a + s);
            assert_eq!(sum, oracle.stats(), "per-ASID stats sum to aggregate");
        }
    }

    #[test]
    fn dead_stamps_steer_spill_slots() {
        // Two TBs, 2 sets x 2 ways. TB 1's set gains entries, loses them
        // to a flush-free invalidation path (coherence clear), and the
        // surviving dead stamps must steer TB 0's later spills exactly
        // as in the subject.
        let (mut oracle, mut subject) = pair(SharingPolicy::Adjacent, None);
        oracle.set_concurrent_tbs(2);
        subject.set_concurrent_tbs(2);
        let ops: &[(u64, u8, Option<u64>)] = &[
            (100, 1, Some(1)), // TB 1 fills its set
            (101, 1, Some(2)),
            (100, 1, Some(50)), // remap: refreshes in place (last writer wins)
            (1, 0, Some(10)),   // TB 0 fills its set...
            (2, 0, Some(11)),
            (3, 0, Some(12)), // ...set is 2-way: overflow spills into TB 1
            (4, 0, Some(13)),
        ];
        for &(vpn, tb, ppn) in ops {
            let r = TlbRequest::new(Vpn::new(vpn), tb);
            if let Some(p) = ppn {
                oracle.insert(&r, Ppn::new(p));
                subject.insert(&r, Ppn::new(p));
            }
        }
        assert_eq!(oracle.spills(), subject.spills());
        assert_eq!(oracle.sharing_flags(), subject.sharing_flags());
        for vpn in [1u64, 2, 3, 4, 100, 101] {
            for tb in 0..2u8 {
                assert_eq!(
                    oracle.peek(Asid::default(), Vpn::new(vpn), tb),
                    subject.peek(Asid::default(), Vpn::new(vpn), tb),
                    "vpn {vpn} tb {tb}"
                );
            }
        }
    }
}
