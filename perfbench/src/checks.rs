//! The correctness gate: report identities, exact repetition, and the
//! simulated counters the per-layer metrics are built from.

use std::collections::BTreeMap;

use gpu_sim::SimReport;

/// Every simulated counter the benchmark reads from a [`SimReport`].
/// Simulated, so a repetition of the same cell must reproduce it exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub total_cycles: u64,
    pub instructions: u64,
    pub transactions: u64,
    pub l1_tlb_lookups: u64,
    pub l1_tlb_hits: u64,
    pub fastpath_hits: u64,
    pub l2_tlb_lookups: u64,
    pub l2_tlb_hits: u64,
    pub l1d_accesses: u64,
    pub l1d_hits: u64,
    pub l2d_accesses: u64,
    pub l2d_hits: u64,
    pub walks: u64,
    pub walks_coalesced: u64,
    pub queue_wait_cycles: u64,
    pub demand_faults: u64,
    /// End-to-end translation cycles and their six per-level parts, in
    /// `analysis::LATENCY_COMPONENTS` order.
    pub translate_cycles: u64,
    pub translate_parts: [u64; 6],
}

impl Counters {
    pub fn of(r: &SimReport) -> Self {
        let l1 = r.l1_tlb_aggregate();
        let lat = &r.latency;
        Counters {
            total_cycles: r.total_cycles,
            instructions: r.instructions,
            transactions: r.transactions,
            l1_tlb_lookups: l1.lookups,
            l1_tlb_hits: l1.hits,
            fastpath_hits: r.fastpath_hits,
            l2_tlb_lookups: r.l2_tlb.lookups,
            l2_tlb_hits: r.l2_tlb.hits,
            l1d_accesses: r.l1_cache.iter().map(|c| c.accesses()).sum(),
            l1d_hits: r.l1_cache.iter().map(|c| c.hits).sum(),
            l2d_accesses: r.l2_cache.accesses(),
            l2d_hits: r.l2_cache.hits,
            walks: r.walker.walks,
            walks_coalesced: r.walker.coalesced,
            queue_wait_cycles: r.walker.queue_wait_cycles,
            demand_faults: r.demand_faults,
            translate_cycles: lat.end_to_end_cycles,
            translate_parts: [
                lat.l1_tlb_cycles,
                lat.icnt_cycles,
                lat.l2_tlb_queue_cycles,
                lat.l2_tlb_lookup_cycles,
                lat.walk_cycles,
                lat.fault_cycles,
            ],
        }
    }

    /// Adds `other` field by field.
    pub fn add(&mut self, o: &Counters) {
        self.total_cycles += o.total_cycles;
        self.instructions += o.instructions;
        self.transactions += o.transactions;
        self.l1_tlb_lookups += o.l1_tlb_lookups;
        self.l1_tlb_hits += o.l1_tlb_hits;
        self.fastpath_hits += o.fastpath_hits;
        self.l2_tlb_lookups += o.l2_tlb_lookups;
        self.l2_tlb_hits += o.l2_tlb_hits;
        self.l1d_accesses += o.l1d_accesses;
        self.l1d_hits += o.l1d_hits;
        self.l2d_accesses += o.l2d_accesses;
        self.l2d_hits += o.l2d_hits;
        self.walks += o.walks;
        self.walks_coalesced += o.walks_coalesced;
        self.queue_wait_cycles += o.queue_wait_cycles;
        self.demand_faults += o.demand_faults;
        self.translate_cycles += o.translate_cycles;
        for (a, b) in self.translate_parts.iter_mut().zip(o.translate_parts) {
            *a += b;
        }
    }
}

/// Checks the identities every report must satisfy: each TLB's
/// `hits + misses == lookups`, the walker's stats, the latency
/// breakdown's per-level sum, and a non-empty run.
pub fn check_report(r: &SimReport) -> Result<(), String> {
    for (sm, s) in r.l1_tlb.iter().enumerate() {
        s.check().map_err(|e| format!("L1 TLB of SM {sm}: {e}"))?;
    }
    r.l2_tlb.check().map_err(|e| format!("L2 TLB: {e}"))?;
    r.walker.check().map_err(|e| format!("walkers: {e}"))?;
    r.latency
        .check()
        .map_err(|e| format!("latency breakdown: {e}"))?;
    if r.total_cycles == 0 {
        return Err("total_cycles is 0".into());
    }
    if r.instructions == 0 {
        return Err("no instructions retired".into());
    }
    Ok(())
}

/// Tally of checked operations and the failures among them. A failure
/// is recorded, never fatal.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one checked operation.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// The first repetition's result per cell key; later repetitions must
/// reproduce it exactly.
#[derive(Debug, Default)]
pub struct Pinned<T> {
    first: BTreeMap<String, T>,
}

impl<T: PartialEq + Clone + std::fmt::Debug> Pinned<T> {
    /// The pinned first repetitions, by key.
    pub fn values(&self) -> &BTreeMap<String, T> {
        &self.first
    }

    /// Pins `value` under `key` on first sight, else compares with the
    /// pinned value.
    pub fn check(&mut self, key: &str, value: &T) -> Result<(), String> {
        match self.first.get(key) {
            None => {
                self.first.insert(key.to_owned(), value.clone());
                Ok(())
            }
            Some(v) if v == value => Ok(()),
            Some(v) => Err(format!("repetition differs: first {v:?}, now {value:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_failures_without_stopping() {
        let mut g = Gate::default();
        g.record("a", Ok(()));
        g.record("b", Err("boom".into()));
        g.record("c", Ok(()));
        assert_eq!(g.attempted, 3);
        assert_eq!(g.failed(), 1);
        assert!(g.failures[0].starts_with("b: "));
    }

    #[test]
    fn pinned_values_must_repeat_exactly() {
        let mut p = Pinned::default();
        assert!(p.check("gemm/baseline", &7u64).is_ok());
        assert!(p.check("gemm/baseline", &7u64).is_ok());
        assert!(p.check("gemm/baseline", &8u64).is_err());
        assert!(p.check("bfs/baseline", &8u64).is_ok());
    }

    #[test]
    fn empty_reports_fail_the_gate() {
        let r = SimReport::default();
        assert!(check_report(&r).unwrap_err().contains("total_cycles"));
    }

    #[test]
    fn counters_add_fieldwise() {
        let mut a = Counters {
            instructions: 2,
            translate_parts: [1, 0, 0, 0, 0, 1],
            ..Counters::default()
        };
        a.add(&a.clone());
        assert_eq!(a.instructions, 4);
        assert_eq!(a.translate_parts, [2, 0, 0, 0, 0, 2]);
    }
}
