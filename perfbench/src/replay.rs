//! Replays: the host cost of the `tlb`, `core`, `mem-hier` and
//! `vmem` layers, which cannot be seen from outside a simulation, taken by
//! feeding a workload's real page and line streams through each layer's
//! public functions.
//!
//! Page streams come from `analysis::tb_translation_streams` over the
//! generated workload, line streams from the engine's coalescer; both in
//! TB order, capped at a fixed length so a replay costs the same however
//! large the workload. Every structure starts empty, as in a simulation.

use std::time::Instant;

use gpu_sim::{coalesce, GpuConfig};
use mem_hier::{Access, Cache, Hierarchy, HierarchyBuilder};
use orchestrated_tlb::{PartitionedTlb, PartitionedTlbConfig};
use tlb::{
    CompressedTlb, CompressionConfig, SetAssocTlb, SubEntryTlb, TlbConfig, TlbRequest,
    TranslationBuffer,
};
use vmem::{Asid, Ppn, VirtAddr, Vpn, WalkerPool};
use workloads::Workload;

/// Line size the engine coalesces at (`bench::LINE_BYTES`).
pub const LINE_BYTES: u64 = bench::LINE_BYTES;

/// Concurrent TB slots a replayed L1 TLB is told about.
const TB_SLOTS: u8 = 8;

/// One translation or line access of a replay stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Ref {
    /// Address space: the workload's index in the replayed list.
    pub asid: u16,
    /// Global TB index within its workload, in generation order.
    pub tb: u32,
    /// A page number for page streams, a line address for line streams.
    pub addr: u64,
}

/// Page stream: each TB's per-op distinct pages, TB after TB,
/// workloads interleaved TB by TB, at most `cap` entries.
pub fn page_stream(workloads: &[Workload], cap: usize) -> Vec<Ref> {
    let per: Vec<Vec<analysis::TbStream>> = workloads
        .iter()
        .map(|w| analysis::tb_translation_streams(w, LINE_BYTES))
        .collect();
    let mut out = Vec::new();
    let most = per.iter().map(Vec::len).max().unwrap_or(0);
    'outer: for tb in 0..most {
        for (asid, streams) in per.iter().enumerate() {
            let Some(s) = streams.get(tb) else { continue };
            for &vpn in &s.vpns {
                if out.len() == cap {
                    break 'outer;
                }
                out.push(Ref {
                    asid: asid as u16,
                    tb: tb as u32,
                    addr: vpn,
                });
            }
        }
    }
    out
}

/// Line stream: every memory op's coalesced lines, in the same order as
/// [`page_stream`], at most `cap` entries.
pub fn line_stream(workloads: &[Workload], cap: usize) -> Vec<Ref> {
    let tbs: Vec<Vec<&workloads::TbTrace>> = workloads
        .iter()
        .map(|w| w.kernels().iter().flat_map(|k| k.tbs.iter()).collect())
        .collect();
    let mut out = Vec::new();
    let most = tbs.iter().map(Vec::len).max().unwrap_or(0);
    'outer: for tb in 0..most {
        for (asid, list) in tbs.iter().enumerate() {
            let Some(trace) = list.get(tb) else { continue };
            for warp in trace.warps() {
                for op in warp.ops() {
                    let Some(acc) = op.accesses() else { continue };
                    for line in coalesce(acc, LINE_BYTES) {
                        if out.len() == cap {
                            break 'outer;
                        }
                        out.push(Ref {
                            asid: asid as u16,
                            tb: tb as u32,
                            addr: line.raw(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// What a replay did and how long it took.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Replay {
    pub ops: u64,
    pub hits: u64,
    pub secs: f64,
}

impl Replay {
    /// Host nanoseconds per replayed operation (0 for an empty replay).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }
}

/// The L1 TLB organizations replayed, by metric name.
pub fn l1_organizations() -> Vec<(&'static str, Box<dyn TranslationBuffer>)> {
    let l1 = TlbConfig::dac23_l1();
    vec![
        ("tlb.set_assoc", Box::new(SetAssocTlb::new(l1))),
        (
            "tlb.compressed",
            Box::new(CompressedTlb::new(l1, CompressionConfig::pact20())),
        ),
        (
            "core.partitioned",
            Box::new(PartitionedTlb::new(PartitionedTlbConfig {
                geometry: l1,
                ..PartitionedTlbConfig::with_sharing()
            })),
        ),
        // The sub-entry organization is an L2 policy: replay it with the
        // shared L2 geometry and two per-ASID sub-entries per tag.
        (
            "tlb.sub_entry",
            Box::new(SubEntryTlb::new(TlbConfig::dac23_l2(), 2)),
        ),
    ]
}

fn request(r: &Ref) -> TlbRequest {
    TlbRequest::new(Vpn::new(r.addr), (r.tb % u32::from(TB_SLOTS)) as u8)
        .with_asid(Asid::new(r.asid))
}

/// Looks every page up in `tlb`, filling on a miss (identity frames).
/// TB `t` holds slot `t mod 8`; when a new TB takes a slot, the TLB is
/// told the slot's previous TB finished, as the engine does on retire.
/// Returns the replay and the missed pages, in order.
pub fn replay_tlb(tlb: &mut dyn TranslationBuffer, pages: &[Ref]) -> (Replay, Vec<Ref>) {
    tlb.set_concurrent_tbs(TB_SLOTS);
    let mut holder: [Option<(u16, u32)>; TB_SLOTS as usize] = [None; TB_SLOTS as usize];
    let mut misses = Vec::new();
    let start = Instant::now();
    for r in pages {
        let req = request(r);
        let slot = &mut holder[usize::from(req.tb_slot)];
        if *slot != Some((r.asid, r.tb)) {
            if let Some((asid, _)) = slot.replace((r.asid, r.tb)) {
                tlb.on_tb_finish(Asid::new(asid), req.tb_slot);
            }
        }
        if !tlb.lookup(&req).hit {
            tlb.insert(&req, Ppn::new(r.addr));
            misses.push(*r);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let ops = pages.len() as u64;
    let hits = ops - misses.len() as u64;
    (Replay { ops, hits, secs }, misses)
}

/// Submits each missed page to a walker pool sized like the baseline
/// GPU, spaced so requests arrive as fast as the pool completes walks
/// (`walk_latency / walkers` cycles apart); `hits` counts requests that
/// coalesced onto an in-flight walk.
pub fn replay_walker(config: &GpuConfig, misses: &[Ref]) -> Replay {
    let mut pool = WalkerPool::new(config.walkers, config.walk_latency);
    let gap = (config.walk_latency / config.walkers as u64).max(1);
    let start = Instant::now();
    for (i, r) in misses.iter().enumerate() {
        std::hint::black_box(pool.submit(i as u64 * gap, Vpn::new(r.addr)));
    }
    let secs = start.elapsed().as_secs_f64();
    Replay {
        ops: misses.len() as u64,
        hits: pool.stats().coalesced,
        secs,
    }
}

/// Reads each line through one L1 data cache of the baseline geometry.
pub fn replay_cache(config: &GpuConfig, lines: &[Ref]) -> Replay {
    let mut cache = Cache::new(config.l1_cache);
    let start = Instant::now();
    let mut hits = 0u64;
    for r in lines {
        hits += u64::from(cache.access(r.addr, false));
    }
    Replay {
        ops: lines.len() as u64,
        hits,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Translates each line through the baseline hierarchy (L1 TLB, icnt,
/// L2 TLB, walkers, demand paging), TB `t` on SM `t mod num_sms`, one
/// access per cycle; `hits` counts L1 TLB hits.
pub fn replay_hierarchy(config: &GpuConfig, workloads: &[Workload], lines: &[Ref]) -> Replay {
    let l1s: Vec<Box<dyn TranslationBuffer>> = (0..config.num_sms)
        .map(|_| Box::new(SetAssocTlb::new(config.l1_tlb)) as Box<dyn TranslationBuffer>)
        .collect();
    let spaces = workloads.iter().map(|w| w.space().clone()).collect();
    let (fronts, back) = HierarchyBuilder::new(config.hierarchy()).build_split_multi(spaces, l1s);
    let mut h = Hierarchy::from_split(fronts, back);
    let page_size = workloads
        .first()
        .map(|w| w.space().page_size())
        .unwrap_or_default();
    let start = Instant::now();
    let mut hits = 0u64;
    for (cycle, r) in lines.iter().enumerate() {
        let va = VirtAddr::new(r.addr);
        let acc = Access {
            at: cycle as u64,
            sm: r.tb as usize % config.num_sms,
            asid: Asid::new(r.asid),
            tb_slot: (r.tb / config.num_sms as u32 % u32::from(TB_SLOTS)) as u8,
            va,
            vpn: va.vpn(page_size),
            page_size,
        };
        hits += u64::from(h.translate(&acc).level == mem_hier::HitLevel::L1Tlb);
    }
    Replay {
        ops: lines.len() as u64,
        hits,
        secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{registry, Scale};

    fn test_workload(name: &str) -> Workload {
        registry()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
            .generate(Scale::Test, 42)
    }

    #[test]
    fn streams_follow_the_workload_and_respect_the_cap() {
        let wl = vec![test_workload("gemm")];
        let pages = page_stream(&wl, usize::MAX);
        let direct: usize = analysis::tb_translation_streams(&wl[0], LINE_BYTES)
            .iter()
            .map(|s| s.len())
            .sum();
        assert_eq!(pages.len(), direct);
        assert_eq!(page_stream(&wl, 10).len(), 10);
        let lines = line_stream(&wl, 100);
        assert_eq!(lines.len(), 100);
        assert!(lines.iter().all(|r| r.addr % LINE_BYTES == 0));
    }

    #[test]
    fn tlb_replays_agree_with_the_tlb_stats_and_repeat_exactly() {
        let wl = vec![test_workload("bfs")];
        let pages = page_stream(&wl, 20_000);
        let fresh = l1_organizations();
        for ((name, mut tlb), (_, mut again)) in l1_organizations().into_iter().zip(fresh) {
            let (r, misses) = replay_tlb(tlb.as_mut(), &pages);
            assert_eq!(r.ops, pages.len() as u64, "{name}");
            assert_eq!(r.hits + misses.len() as u64, r.ops, "{name}");
            let stats = tlb.stats();
            assert_eq!(stats.lookups, r.ops, "{name}");
            assert_eq!(stats.hits, r.hits, "{name}");
            let (second, second_misses) = replay_tlb(again.as_mut(), &pages);
            assert_eq!(second.hits, r.hits, "{name}");
            assert_eq!(second_misses, misses, "{name}");
        }
    }

    #[test]
    fn walker_cache_and_hierarchy_replays_count_their_ops() {
        let config = GpuConfig::dac23_baseline();
        let wl = vec![test_workload("mvt"), test_workload("gemm")];
        let pages = page_stream(&wl, 5_000);
        assert!(pages.iter().any(|r| r.asid == 1));
        let (_, misses) = replay_tlb(&mut SetAssocTlb::new(config.l1_tlb), &pages);
        let walk = replay_walker(&config, &misses);
        assert_eq!(walk.ops, misses.len() as u64);
        assert!(walk.hits <= walk.ops);

        let lines = line_stream(&wl, 5_000);
        let cache = replay_cache(&config, &lines);
        assert_eq!(cache.ops, lines.len() as u64);
        assert!(cache.hits > 0 && cache.hits < cache.ops);
        let h = replay_hierarchy(&config, &wl, &lines);
        assert_eq!(h.ops, lines.len() as u64);
        assert!(h.hits < h.ops);
        assert!(h.ns_per_op() > 0.0);
    }
}
