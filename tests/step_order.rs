//! Step-order fingerprint: pins the engine's cross-crate operation order.
//!
//! The engine steps event-ready SMs in SM-index order, and each SM's
//! coalesced lines translate and access data in program order. That order
//! decides every private L1 TLB's hit/miss/eviction sequence, what the
//! shared L2 TLB and walker pool see, and the translation-event trace. A
//! change that reorders any of it moves at least one of the counters
//! below, even when `total_cycles` happens to survive.
//!
//! Each fingerprint holds `total_cycles`, every SM's L1 TLB counters, the
//! L2 TLB counters, the walker counters and an FNV-1a hash of the
//! translation trace. The constants were recorded from the earlier
//! two-phase engine (private step, then an in-order drain of shared
//! work), so they also pin that the direct `Hierarchy` path reproduces
//! it. Any diff here is a simulated-behaviour change, never noise.

use orchestrated_tlb_repro::gpu_sim::{GpuConfig, SimReport};
use orchestrated_tlb_repro::orchestrated_tlb::Mechanism;
use orchestrated_tlb_repro::tlb::TlbStats;
use orchestrated_tlb_repro::workloads::{registry, Scale, Workload};

/// `[hits, misses, evictions, insertions, lookups]`.
type Tlb = [u64; 5];

struct Fingerprint {
    total_cycles: u64,
    l1_tlb: [Tlb; 16],
    l2_tlb: Tlb,
    /// `[walks, coalesced, queue_wait_cycles, max_queue_wait]`.
    walker: [u64; 4],
    trace_len: usize,
    trace_fnv: u64,
}

fn tlb(s: &TlbStats) -> Tlb {
    [s.hits, s.misses, s.evictions, s.insertions, s.lookups]
}

/// FNV-1a over every event's fields, in trace order.
fn trace_hash(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in &r.translation_trace {
        let fields = [
            u64::from(e.sm),
            u64::from(e.tb_global),
            u64::from(e.warp),
            u64::from(e.kernel),
            e.vpn,
        ];
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn workload(name: &str) -> Workload {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} in registry"))
        .generate(Scale::Test, 42)
}

fn solo(name: &str, m: Mechanism) -> SimReport {
    m.simulator(GpuConfig::dac23_baseline())
        .with_translation_trace(true)
        .run(workload(name))
}

fn assert_fingerprint(label: &str, r: &SimReport, want: &Fingerprint) {
    assert_eq!(r.total_cycles, want.total_cycles, "{label}: total_cycles");
    assert_eq!(r.l1_tlb.len(), want.l1_tlb.len(), "{label}: SM count");
    for (sm, (got, want)) in r.l1_tlb.iter().zip(&want.l1_tlb).enumerate() {
        assert_eq!(tlb(got), *want, "{label}: SM {sm} L1 TLB");
    }
    assert_eq!(tlb(&r.l2_tlb), want.l2_tlb, "{label}: L2 TLB");
    let w = &r.walker;
    assert_eq!(
        [w.walks, w.coalesced, w.queue_wait_cycles, w.max_queue_wait],
        want.walker,
        "{label}: walker"
    );
    assert_eq!(r.translation_trace.len(), want.trace_len, "{label}: trace length");
    assert_eq!(trace_hash(r), want.trace_fnv, "{label}: trace order");
}

#[test]
fn gemm_baseline() {
    let r = solo("gemm", Mechanism::Baseline);
    assert_fingerprint(
        "gemm/baseline",
        &r,
        &Fingerprint {
            total_cycles: 4225,
            l1_tlb: [[138, 6, 0, 6, 144]; 16],
            l2_tlb: [84, 12, 0, 12, 96],
            walker: [12, 0, 0, 0],
            trace_len: 2304,
            trace_fnv: 0xc8cb_5037_e7e3_7185,
        },
    );
}

#[test]
fn gemm_full() {
    let r = solo("gemm", Mechanism::Full);
    assert_fingerprint(
        "gemm/sched+part+share",
        &r,
        &Fingerprint {
            total_cycles: 4279,
            l1_tlb: [[138, 6, 0, 6, 144]; 16],
            l2_tlb: [84, 12, 0, 12, 96],
            walker: [12, 0, 0, 0],
            trace_len: 2304,
            trace_fnv: 0x524a_b0a3_09c2_9a05,
        },
    );
}

#[test]
fn bfs_baseline() {
    let r = solo("bfs", Mechanism::Baseline);
    assert_fingerprint(
        "bfs/baseline",
        &r,
        &Fingerprint {
            total_cycles: 32263,
            l1_tlb: [
                [266, 14, 0, 14, 280],
                [95, 14, 0, 14, 109],
                [94, 15, 0, 15, 109],
                [43, 13, 0, 13, 56],
                [97, 15, 0, 15, 112],
                [42, 14, 0, 14, 56],
                [43, 13, 0, 13, 56],
                [22, 14, 0, 14, 36],
                [100, 13, 0, 13, 113],
                [45, 15, 0, 15, 60],
                [45, 14, 0, 14, 59],
                [27, 14, 0, 14, 41],
                [42, 14, 0, 14, 56],
                [25, 13, 0, 13, 38],
                [30, 14, 0, 14, 44],
                [15, 11, 0, 11, 26],
            ],
            l2_tlb: [210, 10, 0, 10, 220],
            walker: [10, 0, 0, 0],
            trace_len: 1251,
            trace_fnv: 0x3e6c_1600_63f4_85b2,
        },
    );
}

#[test]
fn bfs_full() {
    let r = solo("bfs", Mechanism::Full);
    let mut l1_tlb = [[2, 2, 0, 2, 4]; 16];
    // Under the TLB-aware scheduler nearly every bfs translation lands
    // on SM 0.
    l1_tlb[0] = [1000, 191, 2, 191, 1191];
    assert_fingerprint(
        "bfs/sched+part+share",
        &r,
        &Fingerprint {
            total_cycles: 32575,
            l1_tlb,
            l2_tlb: [211, 10, 0, 10, 221],
            walker: [10, 0, 0, 0],
            trace_len: 1251,
            trace_fnv: 0x268a_ae05_9165_d478,
        },
    );
}

#[test]
fn gemm_bfs_corun_sub_entry() {
    let r = Mechanism::SubEntrySharing
        .simulator(GpuConfig::dac23_baseline())
        .with_translation_trace(true)
        .run_corun(vec![workload("gemm"), workload("bfs")]);
    assert_fingerprint(
        "gemm+bfs/ours+sub-entry",
        &r,
        &Fingerprint {
            total_cycles: 12128,
            l1_tlb: [
                [492, 20, 0, 20, 512],
                [151, 13, 0, 13, 164],
                [362, 20, 0, 20, 382],
                [61, 12, 0, 12, 73],
                [365, 20, 0, 20, 385],
                [55, 12, 0, 12, 67],
                [308, 18, 0, 18, 326],
                [43, 14, 0, 14, 57],
                [365, 18, 0, 18, 383],
                [58, 13, 0, 13, 71],
                [308, 18, 0, 18, 326],
                [48, 12, 0, 12, 60],
                [302, 18, 0, 18, 320],
                [48, 12, 0, 12, 60],
                [300, 19, 0, 19, 319],
                [38, 12, 0, 12, 50],
            ],
            l2_tlb: [229, 22, 0, 22, 251],
            walker: [22, 0, 4245, 425],
            trace_len: 3555,
            trace_fnv: 0x369f_e000_037a_1417,
        },
    );
}
