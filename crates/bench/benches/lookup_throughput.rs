//! Raw TLB lookup throughput: how fast `TranslationBuffer::lookup`
//! itself runs, per organization, under the three access mixes the
//! engine actually produces. This isolates the serial hot path the
//! memo fast path targets — no engine, no memory hierarchy, just the
//! lookup loop — so a regression here is a lookup regression, not a
//! scheduling artifact.
//!
//! Mixes:
//! - `reuse`: long same-page runs per TB slot (warp instructions
//!   re-touching their MRU page line after line) — the memo fast
//!   path's home turf.
//! - `hit`: resident working set cycled page by page — tag-walk hits;
//!   the memo rarely matches because consecutive lookups differ.
//! - `miss`: a fresh page nearly every lookup, with the miss filled
//!   (lookup + insert), exercising eviction and memo invalidation.
//!
//! The `walker_pool` group times `WalkerPool::submit`, the layer behind
//! every L2 TLB miss, at two queue depths:
//! - `deep`: requests arrive faster than the paper's 8 walkers x 500
//!   cycles can serve, so hundreds of walks are in flight (the
//!   walker-bound graph runs at large scale);
//! - `shallow`: requests arrive slower than the pool serves, so the
//!   in-flight list stays near the walker count.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig};
use std::time::Duration;
use tlb::{
    CompressedTlb, CompressionConfig, SetAssocTlb, TlbConfig, TlbRequest, TranslationBuffer,
};
use vmem::{Ppn, Vpn, WalkerPool};

/// Lookups per measured iteration (also the criterion throughput unit).
const OPS: usize = 4096;
/// TB slots cycling through the mixes (the engine's Kepler cap is 16;
/// 8 keeps every partitioned group populated without aliasing away).
const SLOTS: u8 = 8;

/// One scripted lookup, with the PPN used to fill on a miss.
struct Op {
    req: TlbRequest,
    fill: Ppn,
}

fn op(vpn: u64, slot: u8) -> Op {
    Op {
        req: TlbRequest::new(Vpn::new(vpn), slot % SLOTS),
        fill: Ppn::new(vpn ^ 0x5_0000),
    }
}

/// `reuse`: runs of 16 consecutive lookups to one page before the slot
/// moves to its next page.
fn reuse_mix() -> Vec<Op> {
    (0..OPS)
        .map(|i| {
            let run = i / 16;
            op(0x100 + (run % 24) as u64, (run % SLOTS as usize) as u8)
        })
        .collect()
}

/// `hit`: each slot cycles a small resident set, never repeating the
/// page it just touched.
fn hit_mix() -> Vec<Op> {
    (0..OPS)
        .map(|i| op(0x100 + (i % 24) as u64, (i % SLOTS as usize) as u8))
        .collect()
}

/// `miss`: a widely-strided page walk that defeats every organization's
/// capacity (fills keep the structures churning).
fn miss_mix() -> Vec<Op> {
    (0..OPS)
        .map(|i| op(0x1000 + (i as u64) * 7, (i % SLOTS as usize) as u8))
        .collect()
}

/// Runs the scripted mix, filling misses, and returns a latency sum the
/// optimizer cannot elide.
fn drive(tlb: &mut dyn TranslationBuffer, ops: &[Op]) -> u64 {
    let mut acc = 0u64;
    for o in ops {
        let out = tlb.lookup(&o.req);
        acc += out.latency + out.hit as u64;
        if !out.hit {
            tlb.insert(&o.req, o.fill);
        }
    }
    acc
}

/// A named constructor for one TLB implementation under test.
type MechanismCtor = (&'static str, Box<dyn Fn() -> Box<dyn TranslationBuffer>>);

fn bench_lookup_throughput(c: &mut Criterion) {
    let mechanisms: Vec<MechanismCtor> = vec![
        (
            "set_assoc",
            Box::new(|| Box::new(SetAssocTlb::new(TlbConfig::dac23_l1()))),
        ),
        (
            "partitioned",
            Box::new(|| Box::new(PartitionedTlb::new(PartitionedTlbConfig::with_sharing()))),
        ),
        (
            "compressed",
            Box::new(|| {
                Box::new(CompressedTlb::new(
                    TlbConfig::dac23_l1(),
                    CompressionConfig::pact20(),
                ))
            }),
        ),
    ];
    let mixes: [(&str, Vec<Op>); 3] = [
        ("reuse", reuse_mix()),
        ("hit", hit_mix()),
        ("miss", miss_mix()),
    ];

    let mut group = c.benchmark_group("lookup_throughput");
    group.throughput(Throughput::Elements(OPS as u64));
    for (mech, build) in &mechanisms {
        for (mix, ops) in &mixes {
            // One persistent TLB per bench: the warm-up iterations fill
            // the resident set, so measured iterations see the steady
            // state of the mix (all-hit for `reuse`/`hit`, churn for
            // `miss`).
            let mut tlb = build();
            tlb.set_concurrent_tbs(SLOTS);
            group.bench_function(&format!("{mech}_{mix}"), |b| {
                b.iter(|| std::hint::black_box(drive(tlb.as_mut(), ops)))
            });
        }
    }
    group.finish();
}

/// `OPS` walk requests `gap` cycles apart, each arriving up to 400
/// cycles early (requests from different SMs interleave out of cycle
/// order), over a 2048-page footprint so some requests coalesce onto an
/// in-flight walk.
fn walk_arrivals(gap: u64) -> Vec<(u64, Vpn)> {
    (0..OPS as u64)
        .map(|i| {
            let cycle = (i * gap).saturating_sub(i * 7919 % 400);
            (cycle, Vpn::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 53))
        })
        .collect()
}

fn bench_walker_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("walker_pool");
    group.throughput(Throughput::Elements(OPS as u64));
    // 8 walkers x 500 cycles serve one walk per 62.5 cycles: 50-cycle
    // gaps build a queue of about 800 walks by the end of an iteration,
    // 100-cycle gaps keep it within a few walks.
    for (name, gap) in [("deep", 50), ("shallow", 100)] {
        let arrivals = walk_arrivals(gap);
        let mut pool = WalkerPool::new(8, 500);
        group.bench_function(name, |b| {
            b.iter(|| {
                // `reset` keeps the in-flight buffers, so iterations
                // after the first measure the warm pool.
                pool.reset();
                arrivals
                    .iter()
                    .map(|&(cycle, vpn)| pool.submit(cycle, vpn))
                    .fold(0u64, u64::wrapping_add)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = lookup_throughput;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_lookup_throughput, bench_walker_pool
}
criterion_main!(lookup_throughput);
