//! Differential proof that the MRU lookup fast path is *exact*: a TLB
//! with the memo enabled and a memo-less twin, driven by the same random
//! operation stream, must agree on every lookup outcome, every stats
//! counter, and the entire resident state (LRU stamps included, via
//! `dump_state`). Any divergence — a stale memo serving an evicted
//! entry, a skipped LRU touch, a missed stats update — fails here long
//! before it could perturb a simulation.

use proptest::prelude::*;
use tlb::{
    CompressedTlb, CompressionConfig, SetAssocTlb, TlbConfig, TlbRequest, TranslationBuffer,
};
use vmem::{Ppn, Vpn};

/// One step of the driving stream. Lookup dominates (it is the hot path
/// under test and the only memo producer/consumer); inserts churn the
/// memoized ways; flush wipes everything.
#[derive(Clone, Debug)]
enum Op {
    Lookup(u64),
    Insert(u64, u64),
    Flush,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // The compat `prop_oneof!` is unweighted; repeating the lookup arm
    // biases the stream toward the path under test.
    let op = prop_oneof![
        (0u64..96).prop_map(Op::Lookup),
        (0u64..96).prop_map(Op::Lookup),
        (0u64..96).prop_map(Op::Lookup),
        (0u64..96).prop_map(Op::Lookup),
        (0u64..96, 0u64..512).prop_map(|(v, p)| Op::Insert(v, p)),
        (0u64..96, 0u64..512).prop_map(|(v, p)| Op::Insert(v, p)),
        Just(Op::Flush),
    ];
    proptest::collection::vec(op, 1..400)
}

/// Applies one op to both twins and asserts bit-equality of everything
/// observable after it.
fn step<T: TranslationBuffer>(fast: &mut T, slow: &mut T, op: &Op) {
    match *op {
        Op::Lookup(v) => {
            let a = fast.lookup(&TlbRequest::new(Vpn::new(v), 0));
            let b = slow.lookup(&TlbRequest::new(Vpn::new(v), 0));
            assert_eq!(a, b, "lookup({v}) diverged");
        }
        Op::Insert(v, p) => {
            fast.insert(&TlbRequest::new(Vpn::new(v), 0), Ppn::new(p));
            slow.insert(&TlbRequest::new(Vpn::new(v), 0), Ppn::new(p));
        }
        Op::Flush => {
            fast.flush();
            slow.flush();
        }
    }
    assert_eq!(fast.stats(), slow.stats());
    // Resident contents, probed non-perturbingly where supported.
    for v in 0..96u64 {
        assert_eq!(
            fast.probe(&TlbRequest::new(Vpn::new(v), 0)),
            slow.probe(&TlbRequest::new(Vpn::new(v), 0)),
            "resident state diverged at vpn {v}"
        );
    }
    fast.check_invariants().expect("fast twin invariants");
    slow.check_invariants().expect("slow twin invariants");
}

proptest! {
    /// SetAssocTlb: memo lookup ≡ tag-walk lookup, to the last stamp.
    #[test]
    fn set_assoc_fastpath_is_exact(stream in ops()) {
        // Small geometry maximizes conflict churn (evictions invalidate
        // memos constantly).
        let mut fast = SetAssocTlb::new(TlbConfig::new(8, 2, 1));
        let mut slow = fast.clone();
        slow.set_fastpath(false);
        for op in &stream {
            step(&mut fast, &mut slow, op);
        }
        // The twins end bit-identical down to LRU stamps, and the slow
        // twin never took the memo path.
        prop_assert_eq!(fast.dump_state(), slow.dump_state());
        prop_assert_eq!(slow.fastpath_hits(), 0);
    }

    /// CompressedTlb: the memo must also reproduce decompression latency
    /// and literal-vs-offset PPN reconstruction exactly.
    #[test]
    fn compressed_fastpath_is_exact(
        stream in ops(),
        degree in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let cfg = CompressionConfig { degree, decompress_latency: 1 };
        let mut fast = CompressedTlb::new(TlbConfig::new(8, 2, 1), cfg);
        let mut slow = fast.clone();
        slow.set_fastpath(false);
        for op in &stream {
            // CompressedTlb has no `probe`, so `step` compares outcomes,
            // stats and invariants; the dump below pins full state.
            step(&mut fast, &mut slow, op);
            assert_eq!(fast.dump_state(), slow.dump_state());
        }
        prop_assert_eq!(slow.fastpath_hits(), 0);
    }
}
