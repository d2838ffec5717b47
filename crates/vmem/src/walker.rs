//! Shared page-table-walker pool.
//!
//! Table III of the paper configures **8 shared page-table walkers with a
//! 500-cycle walk latency**. The pool is modeled analytically: each walker
//! has a next-free cycle; a walk submitted at cycle `t` starts on the
//! earliest-free walker (no earlier than `t`) and completes a fixed latency
//! later. Concurrent walks for the *same* VPN coalesce onto the in-flight
//! walk, as the MSHR-style merging in MASK/gem5-gpu does.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::addr::Vpn;

/// A submitted walk request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WalkRequest {
    /// Cycle at which the request reached the walker pool.
    pub issue_cycle: u64,
    /// Virtual page being translated.
    pub vpn: Vpn,
}

/// Counters describing walker-pool activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkerStats {
    /// Walks actually performed by a walker.
    pub walks: u64,
    /// Requests that coalesced onto an in-flight walk for the same VPN.
    pub coalesced: u64,
    /// Total cycles requests spent waiting for a free walker.
    pub queue_wait_cycles: u64,
    /// Maximum observed queue wait for a single request.
    pub max_queue_wait: u64,
}

impl WalkerStats {
    /// Total requests that reached the pool (performed + coalesced).
    pub fn requests(&self) -> u64 {
        self.walks + self.coalesced
    }

    /// Internal consistency: the max single-request wait can never
    /// exceed the total wait, and waits require walks.
    pub fn check(&self) -> Result<(), String> {
        if self.max_queue_wait > self.queue_wait_cycles {
            return Err(format!(
                "max_queue_wait {} exceeds total queue_wait_cycles {}",
                self.max_queue_wait, self.queue_wait_cycles
            ));
        }
        if self.walks == 0 && (self.queue_wait_cycles > 0 || self.coalesced > 0) {
            return Err(String::from("activity recorded without any walks"));
        }
        Ok(())
    }
}

/// A pool of hardware page-table walkers with fixed walk latency.
///
/// # Example
///
/// ```
/// use vmem::{Vpn, WalkerPool};
///
/// let mut pool = WalkerPool::new(8, 500);
/// let done = pool.submit(100, Vpn::new(7));
/// assert_eq!(done, 600);
/// // A second request for the same page while the walk is in flight
/// // coalesces and completes at the same time.
/// assert_eq!(pool.submit(200, Vpn::new(7)), 600);
/// ```
#[derive(Debug, Clone)]
pub struct WalkerPool {
    /// Next-free cycle per walker.
    free_at: Vec<u64>,
    latency: u64,
    /// The most recent walk per VPN as `(vpn, completion cycle)`, sorted
    /// by VPN (unique keys), binary-searched on every submit. Entries
    /// whose walk has completed stay until a prune removes them.
    in_flight: Vec<(Vpn, u64)>,
    /// Min-heap of `(key, vpn)` with exactly one element per `in_flight`
    /// entry, so a prune pops exactly the completed walks instead of
    /// scanning the list. The key is the entry's completion cycle when
    /// the element was pushed; a walk re-issued for the VPN raises the
    /// entry's cycle and leaves the key as a lower bound, which the
    /// prune that pops it corrects.
    expiry: BinaryHeap<Reverse<(u64, Vpn)>>,
    stats: WalkerStats,
}

impl WalkerPool {
    /// Creates a pool of `walkers` walkers, each walk taking `latency`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `walkers == 0`.
    pub fn new(walkers: usize, latency: u64) -> Self {
        assert!(walkers > 0, "walker pool must have at least one walker");
        WalkerPool {
            free_at: vec![0; walkers],
            latency,
            in_flight: Vec::new(),
            expiry: BinaryHeap::new(),
            stats: WalkerStats::default(),
        }
    }

    /// Submits a walk at `cycle` and returns its completion cycle.
    ///
    /// Requests for a VPN that already has a walk in flight return that
    /// walk's completion cycle without occupying a walker.
    pub fn submit(&mut self, cycle: u64, vpn: Vpn) -> u64 {
        self.submit_with_latency(cycle, vpn, self.latency)
    }

    /// Like [`WalkerPool::submit`] with an explicit per-walk latency
    /// (e.g. radix walks whose cost depends on the levels touched).
    pub fn submit_with_latency(&mut self, cycle: u64, vpn: Vpn, latency: u64) -> u64 {
        // Drop completed walks lazily, once the list outgrows a few
        // times the walker count. Arrivals are not monotonic across SMs,
        // so "completed" is relative to this request's cycle.
        if self.in_flight.len() > 4 * self.free_at.len() {
            self.prune(cycle);
        }
        let slot = self.in_flight.binary_search_by_key(&vpn, |&(v, _)| v);
        if let Ok(i) = slot {
            let done = self.in_flight[i].1;
            if done > cycle {
                self.stats.coalesced += 1;
                return done;
            }
        }
        // Pick the earliest-free walker.
        let (idx, &start) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .expect("pool is non-empty");
        let begin = start.max(cycle);
        let wait = begin - cycle;
        let done = begin + latency;
        self.free_at[idx] = done;
        // Unique VPNs: refresh a completed entry in place, else insert in
        // VPN order. A refresh never lowers `done` (the old walk ended at
        // or before `cycle`, the new one ends at or after it), so the
        // entry's heap key stays a lower bound and needs no new element.
        match slot {
            Ok(i) => self.in_flight[i].1 = done,
            Err(i) => {
                self.in_flight.insert(i, (vpn, done));
                self.expiry.push(Reverse((done, vpn)));
            }
        }
        self.stats.walks += 1;
        self.stats.queue_wait_cycles += wait;
        self.stats.max_queue_wait = self.stats.max_queue_wait.max(wait);
        done
    }

    /// Removes every entry whose walk completed at or before `cycle`.
    /// Every such entry has a heap key at or below `cycle`, so popping
    /// the keys up to `cycle` finds all of them. A popped key below its
    /// entry's cycle belongs to a walk re-issued since: if the new walk
    /// is still in flight, the key is raised to its cycle in place.
    fn prune(&mut self, cycle: u64) {
        while let Some(mut top) = self.expiry.peek_mut() {
            let Reverse((key, vpn)) = *top;
            if key > cycle {
                break;
            }
            let i = self
                .in_flight
                .binary_search_by_key(&vpn, |&(v, _)| v)
                .expect("every heap element has its entry");
            let done = self.in_flight[i].1;
            if done <= cycle {
                PeekMut::pop(top);
                self.in_flight.remove(i);
            } else {
                *top = Reverse((done, vpn));
            }
        }
    }

    /// Fixed per-walk latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of walkers in the pool.
    pub fn walkers(&self) -> usize {
        self.free_at.len()
    }

    /// Activity counters.
    pub fn stats(&self) -> WalkerStats {
        self.stats
    }

    /// Resets walker occupancy and statistics (keeps configuration).
    pub fn reset(&mut self) {
        self.free_at.fill(0);
        self.in_flight.clear();
        self.expiry.clear();
        self.stats = WalkerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pool before its in-flight index was sorted and heap-pruned:
    /// an insertion-ordered list, `retain`ed whenever it exceeds four
    /// times the walker count and scanned linearly on every submit. Kept
    /// as the reference the differential test holds the pool to.
    struct LinearPool {
        free_at: Vec<u64>,
        in_flight: Vec<(Vpn, u64)>,
        stats: WalkerStats,
    }

    impl LinearPool {
        fn new(walkers: usize) -> Self {
            LinearPool {
                free_at: vec![0; walkers],
                in_flight: Vec::new(),
                stats: WalkerStats::default(),
            }
        }

        fn submit_with_latency(&mut self, cycle: u64, vpn: Vpn, latency: u64) -> u64 {
            if self.in_flight.len() > 4 * self.free_at.len() {
                self.in_flight.retain(|&(_, done)| done > cycle);
            }
            let slot = self.in_flight.iter().position(|&(v, _)| v == vpn);
            if let Some(i) = slot {
                let done = self.in_flight[i].1;
                if done > cycle {
                    self.stats.coalesced += 1;
                    return done;
                }
            }
            let (idx, &start) = self
                .free_at
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .unwrap();
            let begin = start.max(cycle);
            let wait = begin - cycle;
            let done = begin + latency;
            self.free_at[idx] = done;
            match slot {
                Some(i) => self.in_flight[i].1 = done,
                None => self.in_flight.push((vpn, done)),
            }
            self.stats.walks += 1;
            self.stats.queue_wait_cycles += wait;
            self.stats.max_queue_wait = self.stats.max_queue_wait.max(wait);
            done
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sorted, heap-pruned pool returns the same completion cycle
        /// as the linear reference for every request, keeps the same
        /// in-flight set and the same stats, and keeps one heap element
        /// per entry —
        /// for arrivals whose cycles jitter backwards (requests from
        /// different SMs), deep enough to cross the prune threshold.
        #[test]
        fn matches_the_linear_reference(
            walkers in 1usize..5,
            arrivals in proptest::collection::vec(
                (0u64..40, 0u64..3000, 0u64..48, 0u64..700),
                1..600,
            ),
        ) {
            let mut pool = WalkerPool::new(walkers, 500);
            let mut reference = LinearPool::new(walkers);
            let mut max_depth = 0;
            for (i, &(step, jitter, vpn, latency)) in arrivals.iter().enumerate() {
                // A rising base with a backwards jitter: arrivals are
                // non-monotonic, as requests from different SMs are.
                let cycle = (i as u64 * step).saturating_sub(jitter);
                let vpn = Vpn::new(vpn);
                prop_assert_eq!(
                    pool.submit_with_latency(cycle, vpn, latency),
                    reference.submit_with_latency(cycle, vpn, latency),
                    "request {} (cycle {}, vpn {:?}, latency {})", i, cycle, vpn, latency
                );
                prop_assert_eq!(pool.stats(), reference.stats);
                let mut expected = reference.in_flight.clone();
                expected.sort_unstable();
                prop_assert_eq!(&pool.in_flight, &expected);
                prop_assert_eq!(pool.expiry.len(), pool.in_flight.len());
                max_depth = max_depth.max(pool.in_flight.len());
            }
            // Most cases run past the prune threshold; the test is only
            // meaningful if the prune path is exercised.
            if arrivals.len() > 200 {
                prop_assert!(max_depth > 4 * walkers, "depth {} never crossed the prune threshold", max_depth);
            }
        }
    }

    #[test]
    fn single_walk_takes_latency() {
        let mut p = WalkerPool::new(1, 500);
        assert_eq!(p.submit(0, Vpn::new(1)), 500);
        assert_eq!(p.stats().walks, 1);
    }

    #[test]
    fn pool_parallelism() {
        let mut p = WalkerPool::new(2, 100);
        // Two distinct walks at the same cycle proceed in parallel.
        assert_eq!(p.submit(0, Vpn::new(1)), 100);
        assert_eq!(p.submit(0, Vpn::new(2)), 100);
        // Third queues behind one of them.
        assert_eq!(p.submit(0, Vpn::new(3)), 200);
        assert_eq!(p.stats().queue_wait_cycles, 100);
        assert_eq!(p.stats().max_queue_wait, 100);
    }

    #[test]
    fn same_vpn_coalesces() {
        let mut p = WalkerPool::new(8, 500);
        let d1 = p.submit(10, Vpn::new(42));
        let d2 = p.submit(20, Vpn::new(42));
        assert_eq!(d1, d2);
        assert_eq!(p.stats().walks, 1);
        assert_eq!(p.stats().coalesced, 1);
    }

    #[test]
    fn completed_walk_does_not_coalesce() {
        let mut p = WalkerPool::new(8, 500);
        let d1 = p.submit(0, Vpn::new(42));
        let d2 = p.submit(d1 + 1, Vpn::new(42));
        assert_eq!(d2, d1 + 1 + 500);
        assert_eq!(p.stats().walks, 2);
    }

    #[test]
    fn eight_walkers_saturate_like_paper_config() {
        let mut p = WalkerPool::new(8, 500);
        // 16 distinct walks at cycle 0: first 8 finish at 500, next 8 at 1000.
        let mut completions: Vec<u64> = (0..16).map(|i| p.submit(0, Vpn::new(i))).collect();
        completions.sort_unstable();
        assert_eq!(&completions[..8], &[500; 8]);
        assert_eq!(&completions[8..], &[1000; 8]);
    }

    #[test]
    fn explicit_latency_overrides_default() {
        let mut p = WalkerPool::new(2, 500);
        assert_eq!(p.submit_with_latency(0, Vpn::new(1), 50), 50);
        assert_eq!(p.submit(0, Vpn::new(2)), 500);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = WalkerPool::new(1, 500);
        p.submit(0, Vpn::new(1));
        p.reset();
        assert_eq!(p.stats(), WalkerStats::default());
        assert_eq!(p.submit(0, Vpn::new(1)), 500);
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn zero_walkers_rejected() {
        let _ = WalkerPool::new(0, 500);
    }

    #[test]
    fn stats_requests_and_check() {
        let mut p = WalkerPool::new(1, 100);
        p.submit(0, Vpn::new(1));
        p.submit(50, Vpn::new(1)); // coalesces
        p.submit(0, Vpn::new(2)); // queues 100 cycles
        let s = p.stats();
        assert_eq!(s.requests(), 3);
        assert!(s.check().is_ok());
        let bad = WalkerStats {
            max_queue_wait: 10,
            queue_wait_cycles: 5,
            walks: 1,
            ..Default::default()
        };
        assert!(bad.check().is_err());
        let phantom = WalkerStats {
            coalesced: 1,
            ..Default::default()
        };
        assert!(phantom.check().is_err());
    }

    #[test]
    fn rewalks_add_no_heap_elements() {
        // Two VPNs re-walked after every completion: the list never
        // reaches the prune threshold, and each re-walk raises its
        // entry's cycle in place, so the heap keeps one element per VPN.
        let mut p = WalkerPool::new(1, 10);
        for i in 0..10_000u64 {
            p.submit(i * 100, Vpn::new(i % 2));
        }
        assert_eq!(p.stats().walks, 10_000);
        assert_eq!(p.in_flight.len(), 2);
        assert_eq!(p.expiry.len(), 2);
    }

    #[test]
    fn prune_corrects_keys_of_rewalked_entries() {
        // VPN 0 is walked at 0 (done 10) and re-walked at 20 (done 30),
        // leaving its heap key at 10. A prune at 25 pops that key, finds
        // the re-walk still in flight and keeps the entry with key 30;
        // a prune at 30 then removes it.
        let mut p = WalkerPool::new(1, 10);
        p.submit(0, Vpn::new(0));
        assert_eq!(p.submit(20, Vpn::new(0)), 30);
        p.prune(25);
        assert_eq!(p.in_flight, vec![(Vpn::new(0), 30)]);
        assert_eq!(p.expiry.peek(), Some(&Reverse((30, Vpn::new(0)))));
        p.prune(30);
        assert!(p.in_flight.is_empty() && p.expiry.is_empty());
    }

    #[test]
    fn in_flight_map_pruned() {
        let mut p = WalkerPool::new(1, 10);
        for i in 0..1000u64 {
            p.submit(i * 100, Vpn::new(i));
        }
        // Lazy pruning keeps the map bounded (4x walker count threshold
        // triggers a retain; afterwards only live walks remain).
        assert!(p.in_flight.len() <= 8);
    }
}
