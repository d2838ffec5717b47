//! The translation hot path allocates nothing in steady state:
//! `PartitionedTlb::{lookup, insert}` (and the TB-finish hook the engine
//! calls between them) and `WalkerPool::submit_with_latency` run without
//! touching the heap once their tables have grown to the workload's
//! peak. A counting global allocator, armed only on the test thread,
//! checks a second pass over the same stream after a warm-up pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig, SharingPolicy};
use tlb::{TlbRequest, TranslationBuffer};
use vmem::{Asid, Ppn, Vpn, WalkerPool};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Three apps taking turns, their TBs touching each page twice in a row
/// through 8 slots, filling every miss and finishing a TB every 50
/// requests: hits, spills, sharing flags engaging and clearing,
/// re-homing and per-app stats all churn.
fn drive_tlb(tlb: &mut PartitionedTlb) -> u64 {
    let mut hits = 0;
    for i in 0..20_000u64 {
        let asid = Asid::new(((i / 500) % 3) as u16);
        let slot = ((i / 40) % 8) as u8;
        let req = TlbRequest::new(Vpn::new(0x1000 + (i / 2) % 97), slot).with_asid(asid);
        if tlb.lookup(&req).hit {
            hits += 1;
        } else {
            tlb.insert(&req, Ppn::new(i));
        }
        if i % 50 == 49 {
            tlb.on_tb_finish(asid, slot);
        }
    }
    hits
}

#[test]
fn partitioned_tlb_lookup_and_insert_do_not_allocate_when_warm() {
    for sharing in [
        SharingPolicy::None,
        SharingPolicy::Adjacent,
        SharingPolicy::AdjacentCounter { threshold: 2 },
        SharingPolicy::AllToAll,
    ] {
        let mut tlb = PartitionedTlb::new(PartitionedTlbConfig {
            sharing,
            ..PartitionedTlbConfig::with_sharing()
        });
        tlb.set_concurrent_tbs(8);
        let warm = drive_tlb(&mut tlb);
        let mut again = 0;
        let n = allocations_in(|| again = drive_tlb(&mut tlb));
        assert_eq!(n, 0, "{sharing:?}: {n} allocations in the warm pass");
        assert!(warm > 0 && again > 0, "{sharing:?}: the stream must hit");
        assert!(
            sharing == SharingPolicy::None || tlb.spills() > 0,
            "{sharing:?}: the stream must spill"
        );
    }
}

/// Requests 50 cycles apart to 8 walkers x 500 cycles (one walk per
/// 62.5 cycles), up to 400 cycles out of order: hundreds of walks in
/// flight, prunes on every submit, some coalescing.
fn drive_walkers(pool: &mut WalkerPool) -> u64 {
    (0..20_000u64)
        .map(|i| {
            let cycle = (i * 50).saturating_sub(i * 7919 % 400);
            let vpn = Vpn::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 53);
            pool.submit_with_latency(cycle, vpn, 500)
        })
        .fold(0, u64::wrapping_add)
}

#[test]
fn walker_pool_submit_does_not_allocate_when_warm() {
    let mut pool = WalkerPool::new(8, 500);
    let warm = drive_walkers(&mut pool);
    let stats = pool.stats();
    // `reset` keeps the in-flight buffers: the second pass replays the
    // same depths into capacity that the first pass grew.
    pool.reset();
    let mut again = 0;
    let n = allocations_in(|| again = drive_walkers(&mut pool));
    assert_eq!(n, 0, "{n} allocations in the warm pass");
    assert_eq!((again, pool.stats()), (warm, stats));
    assert!(
        stats.coalesced > 0 && stats.max_queue_wait > 10_000,
        "{stats:?}"
    );
}
