//! Differential proof that `PartitionedTlb`'s epoch-guarded MRU fast
//! path is *exact*: a TLB with the memo enabled and a memo-less twin,
//! driven by the same random stream of lookups, inserts, TB lifecycle
//! events, and flushes across
//! every sharing policy (with and without compression) and a mix of
//! address spaces, must agree on
//! every outcome, every stats counter, and the entire dumped state —
//! LRU stamps, sharing flags, spill counters, and owners included.

use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig, SharingPolicy};
use proptest::prelude::*;
use tlb::{CompressionConfig, TlbConfig, TlbRequest, TranslationBuffer};
use vmem::{Asid, Ppn, Vpn};

/// One step of the driving stream. Lookup dominates (the memo's producer
/// and consumer); inserts churn residency and sharing flags; TB events
/// re-home entries and reset flags; flush wipes everything.
#[derive(Clone, Debug)]
enum Op {
    Lookup(u16, u64, u8),
    Insert(u16, u64, u8, u64),
    TbFinish(u16, u8),
    SetTbs(u8),
    Flush,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // The compat `prop_oneof!` is unweighted; repeating arms biases the
    // stream toward the path under test. Narrow VPN/PPN ranges maximize
    // refresh collisions.
    let op = prop_oneof![
        (0u16..3, 0u64..64, 0u8..8).prop_map(|(a, v, t)| Op::Lookup(a, v, t)),
        (0u16..3, 0u64..64, 0u8..8).prop_map(|(a, v, t)| Op::Lookup(a, v, t)),
        (0u16..3, 0u64..64, 0u8..8).prop_map(|(a, v, t)| Op::Lookup(a, v, t)),
        (0u16..3, 0u64..64, 0u8..8).prop_map(|(a, v, t)| Op::Lookup(a, v, t)),
        (0u16..3, 0u64..64, 0u8..8, 0u64..16).prop_map(|(a, v, t, p)| Op::Insert(a, v, t, p)),
        (0u16..3, 0u64..64, 0u8..8, 0u64..16).prop_map(|(a, v, t, p)| Op::Insert(a, v, t, p)),
        (0u16..3, 0u8..8).prop_map(|(a, t)| Op::TbFinish(a, t)),
        (0u8..8).prop_map(|n| Op::SetTbs(n + 1)),
        Just(Op::Flush),
    ];
    proptest::collection::vec(op, 1..300)
}

/// Applies one op to both twins and asserts bit-equality of everything
/// observable after it.
fn step(fast: &mut PartitionedTlb, slow: &mut PartitionedTlb, op: &Op) {
    match *op {
        Op::Lookup(a, v, tb) => {
            let r = TlbRequest::new(Vpn::new(v), tb).with_asid(Asid::new(a));
            let x = fast.lookup(&r);
            let y = slow.lookup(&r);
            assert_eq!(x, y, "lookup(asid {a}, {v}, tb {tb}) diverged");
        }
        Op::Insert(a, v, tb, p) => {
            let r = TlbRequest::new(Vpn::new(v), tb).with_asid(Asid::new(a));
            fast.insert(&r, Ppn::new(p));
            slow.insert(&r, Ppn::new(p));
        }
        Op::TbFinish(a, tb) => {
            fast.on_tb_finish(Asid::new(a), tb);
            slow.on_tb_finish(Asid::new(a), tb);
        }
        Op::SetTbs(n) => {
            fast.set_concurrent_tbs(n);
            slow.set_concurrent_tbs(n);
        }
        Op::Flush => {
            fast.flush();
            slow.flush();
        }
    }
    assert_eq!(fast.stats(), slow.stats());
    // The dump pins the full architectural state: residency, stamps,
    // sharing flags, spill counters, owners.
    assert_eq!(fast.dump_state(), slow.dump_state());
    fast.check_invariants().expect("fast twin invariants");
    slow.check_invariants().expect("slow twin invariants");
}

fn policies() -> impl Strategy<Value = SharingPolicy> {
    prop_oneof![
        Just(SharingPolicy::None),
        Just(SharingPolicy::Adjacent),
        Just(SharingPolicy::AdjacentCounter { threshold: 2 }),
        Just(SharingPolicy::AllToAll),
    ]
}

proptest! {
    /// Memo lookup ≡ multi-set tag walk, across every sharing policy and
    /// with compression on or off, down to the last LRU stamp.
    #[test]
    fn partitioned_fastpath_and_patch_are_exact(
        stream in ops(),
        sharing in policies(),
        compression in prop_oneof![Just(None), Just(Some(CompressionConfig::pact20()))],
    ) {
        // Tiny geometry (8 sets x 2 ways) maximizes spills, evictions and
        // flag churn — everything that could silently stale a memo.
        let mut fast = PartitionedTlb::new(PartitionedTlbConfig {
            geometry: TlbConfig::new(16, 2, 1),
            sharing,
            per_set_lookup_overhead: true,
            displacement_margin: 8,
            compression,
        });
        fast.set_concurrent_tbs(8);
        let mut slow = fast.clone();
        slow.set_fastpath(false);
        for op in &stream {
            step(&mut fast, &mut slow, op);
        }
        prop_assert_eq!(slow.fastpath_hits(), 0);
    }
}
