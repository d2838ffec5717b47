//! Thread-block scheduling policies.
//!
//! The baseline GPU dispatches TBs to SMs round-robin, skipping SMs
//! without free resources (paper §II). The paper's TLB-thrashing-aware
//! scheduler (in the `orchestrated-tlb` crate) implements the same trait
//! using per-SM TLB hit-rate probes.

/// What a TB scheduler may observe about each SM when placing a TB.
///
/// The `tlb_hits`/`tlb_accesses` pair mirrors the paper's hardware table
/// in the TB scheduler: one `<TLB_hits, TLB_total>` entry per SM, updated
/// by the SMs themselves.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SmSnapshot {
    /// TB slots currently free on this SM.
    pub free_slots: u8,
    /// L1 TLB hits accumulated by this SM.
    pub tlb_hits: u64,
    /// L1 TLB accesses accumulated by this SM.
    pub tlb_accesses: u64,
}

impl SmSnapshot {
    /// Instantaneous L1 TLB miss rate (0 when the SM has not yet issued
    /// translations, so idle SMs look attractive).
    pub fn miss_rate(&self) -> f64 {
        if self.tlb_accesses == 0 {
            0.0
        } else {
            1.0 - self.tlb_hits as f64 / self.tlb_accesses as f64
        }
    }

    /// Whether the SM can accept another TB.
    pub fn has_room(&self) -> bool {
        self.free_slots > 0
    }
}

/// A thread-block scheduling policy.
///
/// `pick_sm` is called once per TB dispatch with a snapshot of every SM;
/// it returns the index of the SM to place the TB on, or `None` if no SM
/// has room (the engine retries after the next TB completion).
pub trait TbScheduler {
    /// Chooses an SM for the next TB.
    fn pick_sm(&mut self, sms: &[SmSnapshot]) -> Option<usize>;

    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Resets internal state between kernels.
    fn reset(&mut self) {}

    /// Validates the policy's internal bookkeeping against the hardware
    /// budget it models (e.g. the §IV-A status table holds one entry per
    /// SM — 16 for the paper's GPU — and its rate estimates must stay
    /// finite). `num_sms` is the SM count of the simulated GPU. Called by
    /// the engine's sanitizer; the default policy has no state to check.
    fn check_invariants(&self, num_sms: usize) -> Result<(), String> {
        let _ = num_sms;
        Ok(())
    }
}

/// The baseline round-robin TB scheduler.
///
/// # Example
///
/// ```
/// use gpu_sim::{RoundRobinScheduler, SmSnapshot, TbScheduler};
///
/// let mut rr = RoundRobinScheduler::new();
/// let free = SmSnapshot { free_slots: 1, ..Default::default() };
/// let sms = vec![free; 4];
/// assert_eq!(rr.pick_sm(&sms), Some(0));
/// assert_eq!(rr.pick_sm(&sms), Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    next: usize,
}

impl RoundRobinScheduler {
    /// Creates a scheduler starting at SM 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TbScheduler for RoundRobinScheduler {
    fn pick_sm(&mut self, sms: &[SmSnapshot]) -> Option<usize> {
        if sms.is_empty() {
            return None;
        }
        for i in 0..sms.len() {
            let sm = (self.next + i) % sms.len();
            if sms[sm].has_room() {
                self.next = (sm + 1) % sms.len();
                return Some(sm);
            }
        }
        None
    }

    fn name(&self) -> &str {
        "round-robin"
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(free: u8) -> SmSnapshot {
        SmSnapshot {
            free_slots: free,
            ..Default::default()
        }
    }

    #[test]
    fn cycles_through_sms() {
        let mut rr = RoundRobinScheduler::new();
        let sms = vec![snap(2); 3];
        assert_eq!(rr.pick_sm(&sms), Some(0));
        assert_eq!(rr.pick_sm(&sms), Some(1));
        assert_eq!(rr.pick_sm(&sms), Some(2));
        assert_eq!(rr.pick_sm(&sms), Some(0));
    }

    #[test]
    fn skips_full_sms() {
        let mut rr = RoundRobinScheduler::new();
        let sms = vec![snap(0), snap(1), snap(0)];
        assert_eq!(rr.pick_sm(&sms), Some(1));
        assert_eq!(rr.pick_sm(&sms), Some(1));
    }

    #[test]
    fn none_when_all_full() {
        let mut rr = RoundRobinScheduler::new();
        assert_eq!(rr.pick_sm(&[snap(0), snap(0)]), None);
        assert_eq!(rr.pick_sm(&[]), None);
    }

    #[test]
    fn reset_restarts_at_zero() {
        let mut rr = RoundRobinScheduler::new();
        let sms = vec![snap(1); 4];
        rr.pick_sm(&sms);
        rr.pick_sm(&sms);
        rr.reset();
        assert_eq!(rr.pick_sm(&sms), Some(0));
    }

    #[test]
    fn snapshot_miss_rate() {
        let s = SmSnapshot {
            free_slots: 1,
            tlb_hits: 25,
            tlb_accesses: 100,
        };
        assert!((s.miss_rate() - 0.75).abs() < 1e-12);
        assert_eq!(snap(1).miss_rate(), 0.0);
    }
}
