//! # bench — experiment harnesses that regenerate every table and figure
//!
//! Each `figNN` function reproduces one artifact of the paper's
//! evaluation and returns the same rows/series the paper plots; the
//! `repro` binary prints them as text tables, and the Criterion benches
//! wrap them for timing. See EXPERIMENTS.md for paper-vs-measured notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use analysis::{
    inter_intensities, intra_intensities, reuse_distance_samples, tb_translation_streams, Cdf,
    DistanceOptions, ReuseBins,
};
use gpu_sim::GpuConfig;
use orchestrated_tlb::{
    run_benchmark_cached, run_benchmark_cached_with_page_size, Mechanism,
};
use vmem::PageSize;
use workloads::{registry, BenchmarkSpec, Scale};

mod grid;

pub use grid::Grid;

/// The seed used by every experiment (results are deterministic).
pub const SEED: u64 = 42;

/// Prints every violation and exits with status 2 unless `config` can be
/// simulated: the command-line tools check each configuration they will
/// run before simulating anything.
pub fn exit_if_invalid(config: &GpuConfig) {
    if let Err(e) = config.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// Enumerates the grid cells of `specs × options`, benchmark-major (all
/// of spec 0's options first). Reassembly relies on this order:
/// `results.chunks(options.len())` yields one benchmark's cells.
fn cells<M: Copy>(n_specs: usize, options: &[M]) -> Vec<(usize, M)> {
    (0..n_specs)
        .flat_map(|i| options.iter().map(move |&m| (i, m)))
        .collect()
}

/// Cache-line size used for coalescing in trace analyses.
pub const LINE_BYTES: u64 = 128;

/// Per-benchmark result of the Figure 2 study.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Benchmark name.
    pub bench: String,
    /// L1 TLB hit rate with the 64-entry baseline.
    pub hit_64: f64,
    /// L1 TLB hit rate with 256 entries.
    pub hit_256: f64,
}

/// Figure 2: baseline L1 TLB hit rates at 64 vs 256 entries.
pub fn fig2(scale: Scale) -> Vec<Fig2Row> {
    fig2_for(&registry(), scale)
}

/// [`fig2`] over an explicit benchmark set (e.g.
/// [`workloads::extended_registry`]).
pub fn fig2_for(specs: &[BenchmarkSpec], scale: Scale) -> Vec<Fig2Row> {
    fig2_grid(specs, scale, &Grid::serial())
}

/// [`fig2`] over a parallel [`Grid`] (one cell per benchmark ×
/// mechanism; output identical to the serial run).
pub fn fig2_grid(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) -> Vec<Fig2Row> {
    let mechs = [Mechanism::Baseline, Mechanism::LargeTlb];
    let hits = grid.map(&cells(specs.len(), &mechs), |&(i, m)| {
        run_benchmark_cached(
            grid.cache(),
            &specs[i],
            scale,
            SEED,
            m,
            GpuConfig::dac23_baseline(),
        )
        .l1_tlb_hit_rate()
    });
    specs
        .iter()
        .zip(hits.chunks(mechs.len()))
        .map(|(spec, h)| Fig2Row {
            bench: spec.name.to_owned(),
            hit_64: h[0],
            hit_256: h[1],
        })
        .collect()
}

/// Per-benchmark result of the Figures 3/4 reuse-intensity study.
#[derive(Clone, Debug)]
pub struct Fig34Row {
    /// Benchmark name.
    pub bench: String,
    /// Inter-TB bin fractions b1..b5 (Figure 3).
    pub inter: [f64; 5],
    /// Intra-TB bin fractions b1..b5 (Figure 4).
    pub intra: [f64; 5],
}

/// Figures 3 and 4: translation-reuse intensity bins.
///
/// TB pairs are subsampled to at most `max_tbs` TBs per benchmark
/// (`None` = exhaustive, quadratic).
pub fn fig3_4(scale: Scale, max_tbs: Option<usize>) -> Vec<Fig34Row> {
    fig3_4_for(&registry(), scale, max_tbs)
}

/// [`fig3_4`] over an explicit benchmark set.
pub fn fig3_4_for(
    specs: &[BenchmarkSpec],
    scale: Scale,
    max_tbs: Option<usize>,
) -> Vec<Fig34Row> {
    fig3_4_grid(specs, scale, max_tbs, &Grid::serial())
}

/// [`fig3_4`] over a parallel [`Grid`] (one cell per benchmark — the
/// study is trace analysis, not simulation).
pub fn fig3_4_grid(
    specs: &[BenchmarkSpec],
    scale: Scale,
    max_tbs: Option<usize>,
    grid: &Grid,
) -> Vec<Fig34Row> {
    let idx: Vec<usize> = (0..specs.len()).collect();
    grid.map(&idx, |&i| {
        let spec = &specs[i];
        let wl = grid.cache().get(spec, scale, SEED);
        let streams = tb_translation_streams(&wl, LINE_BYTES);
        let inter =
            ReuseBins::from_intensities(&inter_intensities(&streams, max_tbs)).fractions();
        let intra = ReuseBins::from_intensities(&intra_intensities(&streams)).fractions();
        Fig34Row {
            bench: spec.name.to_owned(),
            inter,
            intra,
        }
    })
}

/// Per-benchmark result of the Figures 5/6 reuse-distance study.
#[derive(Clone, Debug)]
pub struct Fig56Row {
    /// Benchmark name.
    pub bench: String,
    /// CDF of intra-TB reuse distances under concurrent TB execution
    /// (Figure 5), sampled at powers of two.
    pub concurrent: Vec<(u64, f64)>,
    /// The same with one TB per SM at a time (Figure 6).
    pub isolated: Vec<(u64, f64)>,
    /// Fraction of concurrent-mode reuses beyond the 64-entry reach.
    pub beyond_reach: f64,
}

/// Exponent range of the paper's Figure 5/6 x-axis (2^3 .. 2^14).
pub const DISTANCE_EXPONENTS: (u32, u32) = (3, 14);

/// Figures 5 and 6: intra-TB reuse-distance CDFs with and without
/// inter-TB interference.
pub fn fig5_6(scale: Scale) -> Vec<Fig56Row> {
    fig5_6_for(&registry(), scale)
}

/// [`fig5_6`] over an explicit benchmark set.
pub fn fig5_6_for(specs: &[BenchmarkSpec], scale: Scale) -> Vec<Fig56Row> {
    fig5_6_grid(specs, scale, &Grid::serial())
}

/// [`fig5_6`] over a parallel [`Grid`] (one cell per benchmark ×
/// concurrency cap).
pub fn fig5_6_grid(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) -> Vec<Fig56Row> {
    let caps: [Option<u8>; 2] = [None, Some(1)];
    let cdfs = grid.map(&cells(specs.len(), &caps), |&(i, cap)| {
        let wl = grid.cache().get(&specs[i], scale, SEED);
        let report = Mechanism::Baseline
            .simulator(GpuConfig::dac23_baseline())
            .with_translation_trace(true)
            .with_max_concurrent_tbs(cap)
            .run(wl);
        Cdf::from_samples(reuse_distance_samples(
            &report.translation_trace,
            DistanceOptions::intra_tb(),
        ))
    });
    let (lo, hi) = DISTANCE_EXPONENTS;
    specs
        .iter()
        .zip(cdfs.chunks(caps.len()))
        .map(|(spec, pair)| {
            let (concurrent, isolated) = (&pair[0], &pair[1]);
            Fig56Row {
                bench: spec.name.to_owned(),
                beyond_reach: concurrent.tail_beyond(64),
                concurrent: concurrent.log2_points(lo, hi),
                isolated: isolated.log2_points(lo, hi),
            }
        })
        .collect()
}

/// Per-benchmark result of the Figures 10/11 evaluation.
#[derive(Clone, Debug)]
pub struct Fig1011Row {
    /// Benchmark name.
    pub bench: String,
    /// L1 TLB hit rate per mechanism (Figure 10), in
    /// [`Mechanism::figure10`] order.
    pub hit_rates: [f64; 4],
    /// Execution time normalized to baseline (Figure 11), same order.
    pub norm_time: [f64; 4],
}

/// Figures 10 and 11: the four evaluated configurations per benchmark.
pub fn fig10_11(scale: Scale) -> Vec<Fig1011Row> {
    fig10_11_for(&registry(), scale)
}

/// [`fig10_11`] over an explicit benchmark set.
pub fn fig10_11_for(specs: &[BenchmarkSpec], scale: Scale) -> Vec<Fig1011Row> {
    fig10_11_grid(specs, scale, &Grid::serial())
}

/// [`fig10_11`] over a parallel [`Grid`] (one cell per benchmark ×
/// mechanism — the main 40-cell grid of the evaluation).
pub fn fig10_11_grid(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) -> Vec<Fig1011Row> {
    let mechs = Mechanism::figure10();
    let reports = grid.map(&cells(specs.len(), &mechs), |&(i, m)| {
        run_benchmark_cached(
            grid.cache(),
            &specs[i],
            scale,
            SEED,
            m,
            GpuConfig::dac23_baseline(),
        )
    });
    specs
        .iter()
        .zip(reports.chunks(mechs.len()))
        .map(|(spec, reports)| {
            let base_cycles = reports[0].total_cycles as f64;
            let mut hit_rates = [0.0; 4];
            let mut norm_time = [0.0; 4];
            for (i, r) in reports.iter().enumerate() {
                hit_rates[i] = r.l1_tlb_hit_rate();
                norm_time[i] = r.total_cycles as f64 / base_cycles;
            }
            Fig1011Row {
                bench: spec.name.to_owned(),
                hit_rates,
                norm_time,
            }
        })
        .collect()
}

/// One benchmark's Figure 10/11 bars.
pub fn fig10_11_one(spec: &BenchmarkSpec, scale: Scale) -> Fig1011Row {
    fig10_11_grid(std::slice::from_ref(spec), scale, &Grid::serial())
        .pop()
        .expect("one spec in, one row out")
}

/// Per-benchmark result of the Figure 12 compression study.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Benchmark name.
    pub bench: String,
    /// Speedup of (ours + compression) over compression alone.
    pub speedup: f64,
}

/// Figure 12: the proposal combined with PACT'20 TLB compression,
/// normalized to compression alone.
pub fn fig12(scale: Scale) -> Vec<Fig12Row> {
    fig12_for(&registry(), scale)
}

/// [`fig12`] over an explicit benchmark set.
pub fn fig12_for(specs: &[BenchmarkSpec], scale: Scale) -> Vec<Fig12Row> {
    fig12_grid(specs, scale, &Grid::serial())
}

/// [`fig12`] over a parallel [`Grid`] (one cell per benchmark ×
/// mechanism).
pub fn fig12_grid(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) -> Vec<Fig12Row> {
    let mechs = [Mechanism::Compression, Mechanism::FullWithCompression];
    let reports = grid.map(&cells(specs.len(), &mechs), |&(i, m)| {
        run_benchmark_cached(
            grid.cache(),
            &specs[i],
            scale,
            SEED,
            m,
            GpuConfig::dac23_baseline(),
        )
    });
    specs
        .iter()
        .zip(reports.chunks(mechs.len()))
        .map(|(spec, pair)| Fig12Row {
            bench: spec.name.to_owned(),
            speedup: pair[1].speedup(&pair[0]),
        })
        .collect()
}

/// Per-benchmark result of the Section V huge-page study.
#[derive(Clone, Debug)]
pub struct HugePageRow {
    /// Benchmark name.
    pub bench: String,
    /// Baseline L1 TLB hit rate with 2 MiB pages.
    pub hit_rate_huge: f64,
    /// Execution time of ours (2 MiB pages) normalized to baseline
    /// (2 MiB pages).
    pub norm_time_ours: f64,
}

/// Section V huge-page study: 2 MiB pages, baseline vs the full proposal.
pub fn hugepage(scale: Scale) -> Vec<HugePageRow> {
    hugepage_for(&registry(), scale)
}

/// [`hugepage`] over an explicit benchmark set.
pub fn hugepage_for(specs: &[BenchmarkSpec], scale: Scale) -> Vec<HugePageRow> {
    hugepage_grid(specs, scale, &Grid::serial())
}

/// [`hugepage`] over a parallel [`Grid`] (one cell per benchmark ×
/// mechanism, 2 MiB pages).
pub fn hugepage_grid(specs: &[BenchmarkSpec], scale: Scale, grid: &Grid) -> Vec<HugePageRow> {
    let mechs = [Mechanism::Baseline, Mechanism::Full];
    let reports = grid.map(&cells(specs.len(), &mechs), |&(i, m)| {
        run_benchmark_cached_with_page_size(
            grid.cache(),
            &specs[i],
            scale,
            SEED,
            m,
            GpuConfig::dac23_baseline(),
            PageSize::Large,
        )
    });
    specs
        .iter()
        .zip(reports.chunks(mechs.len()))
        .map(|(spec, pair)| HugePageRow {
            bench: spec.name.to_owned(),
            hit_rate_huge: pair[0].l1_tlb_hit_rate(),
            norm_time_ours: pair[1].normalized_time(&pair[0]),
        })
        .collect()
}

/// Mean and population standard deviation of the full proposal's
/// normalized time across seeds (workload generation varies with seed).
#[derive(Clone, Debug)]
pub struct VarianceRow {
    /// Benchmark name.
    pub bench: String,
    /// Mean normalized time of the full proposal across seeds.
    pub mean: f64,
    /// Population standard deviation across seeds.
    pub std_dev: f64,
}

/// Seed-sensitivity study: reruns the Figure 11 headline comparison under
/// several workload seeds and reports mean ± std of the full proposal's
/// normalized time.
pub fn fig11_variance(scale: Scale, seeds: &[u64]) -> Vec<VarianceRow> {
    fig11_variance_grid(scale, seeds, &Grid::serial())
}

/// [`fig11_variance`] over a parallel [`Grid`] (one cell per benchmark ×
/// seed × mechanism).
pub fn fig11_variance_grid(scale: Scale, seeds: &[u64], grid: &Grid) -> Vec<VarianceRow> {
    let specs = registry();
    let mechs = [Mechanism::Baseline, Mechanism::Full];
    let grid_cells: Vec<(usize, u64, Mechanism)> = (0..specs.len())
        .flat_map(|i| {
            seeds
                .iter()
                .flat_map(move |&seed| mechs.into_iter().map(move |m| (i, seed, m)))
        })
        .collect();
    let cycles = grid.map(&grid_cells, |&(i, seed, m)| {
        run_benchmark_cached(
            grid.cache(),
            &specs[i],
            scale,
            seed,
            m,
            GpuConfig::dac23_baseline(),
        )
        .total_cycles
    });
    specs
        .iter()
        .zip(cycles.chunks(seeds.len() * mechs.len()))
        .map(|(spec, per_seed)| {
            let samples: Vec<f64> = per_seed
                .chunks(mechs.len())
                .map(|pair| pair[1] as f64 / pair[0] as f64)
                .collect();
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<f64>() / n;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            VarianceRow {
                bench: spec.name.to_owned(),
                mean,
                std_dev: var.sqrt(),
            }
        })
        .collect()
}

/// Per-benchmark result of the §VII warp-granularity study.
#[derive(Clone, Debug)]
pub struct WarpStudyRow {
    /// Benchmark name.
    pub bench: String,
    /// P[distance <= 64] for intra-TB reuse pairs.
    pub tb_at_reach: f64,
    /// P[distance <= 64] for intra-*warp* reuse pairs.
    pub warp_at_reach: f64,
}

/// The paper's §VII future work: reuse distances at warp granularity,
/// side by side with the TB-granularity Figure 5 numbers.
pub fn warp_study(scale: Scale) -> Vec<WarpStudyRow> {
    warp_study_grid(scale, &Grid::serial())
}

/// [`warp_study`] over a parallel [`Grid`] (one cell per benchmark).
pub fn warp_study_grid(scale: Scale, grid: &Grid) -> Vec<WarpStudyRow> {
    let specs = registry();
    let idx: Vec<usize> = (0..specs.len()).collect();
    grid.map(&idx, |&i| {
        let spec = &specs[i];
        let wl = grid.cache().get(spec, scale, SEED);
        let report = Mechanism::Baseline
            .simulator(GpuConfig::dac23_baseline())
            .with_translation_trace(true)
            .run(wl);
        let cdf = |opts: DistanceOptions| {
            Cdf::from_samples(reuse_distance_samples(&report.translation_trace, opts)).at(64)
        };
        WarpStudyRow {
            bench: spec.name.to_owned(),
            tb_at_reach: cdf(DistanceOptions::intra_tb()),
            warp_at_reach: cdf(DistanceOptions::intra_warp()),
        }
    })
}

/// Per-mechanism result of the multi-tenant co-run study.
#[derive(Clone, Debug)]
pub struct CorunRow {
    /// Mechanism label.
    pub mechanism: String,
    /// Per-app slowdown vs. solo, in app order.
    pub slowdowns: Vec<f64>,
    /// Jain's fairness index over per-app normalized progress.
    pub fairness: f64,
    /// System throughput (weighted speedup): sum of normalized progress.
    pub throughput: f64,
    /// The merged run's CSV row (carries the append-only per-app
    /// columns).
    pub csv_row: String,
}

/// The mechanisms the co-run study compares: the solo-tuned baseline and
/// full proposal, plus the two multi-tenant shared-L2-TLB variants
/// (MASK-style fill tokens and sub-entry sharing).
pub const CORUN_MECHANISMS: [Mechanism; 4] = [
    Mechanism::Baseline,
    Mechanism::Full,
    Mechanism::MaskTokens,
    Mechanism::SubEntrySharing,
];

/// The multi-tenant co-run study: `apps` run as concurrent address
/// spaces sharing the GPU under each of [`CORUN_MECHANISMS`]. Each app's
/// solo baseline is a 1-app co-run through the same merged path, so the
/// slowdown's numerator and denominator share dispatch semantics (see
/// `gpu_sim`'s co-run module docs).
pub fn corun_study(apps: &[BenchmarkSpec], scale: Scale) -> Vec<CorunRow> {
    corun_study_grid(apps, scale, &Grid::serial())
}

/// [`corun_study`] over a parallel [`Grid`] (one cell per mechanism ×
/// {co-run, each solo baseline}).
pub fn corun_study_grid(apps: &[BenchmarkSpec], scale: Scale, grid: &Grid) -> Vec<CorunRow> {
    let cells: Vec<(Mechanism, Option<usize>)> = CORUN_MECHANISMS
        .iter()
        .flat_map(|&m| {
            std::iter::once((m, None)).chain((0..apps.len()).map(move |i| (m, Some(i))))
        })
        .collect();
    let reports = grid.map(&cells, |&(m, solo)| {
        let mut sim = m.simulator(GpuConfig::dac23_baseline());
        let load = |i: usize| grid.cache().get(&apps[i], scale, SEED);
        match solo {
            Some(i) => sim.run_corun(vec![load(i)]),
            None => sim.run_corun((0..apps.len()).map(load).collect()),
        }
    });
    CORUN_MECHANISMS
        .iter()
        .zip(reports.chunks(1 + apps.len()))
        .map(|(&m, chunk)| {
            let corun = &chunk[0];
            let solo: Vec<u64> = chunk[1..].iter().map(|r| r.per_app[0].cycles).collect();
            let slowdowns = corun.per_app_slowdowns(&solo);
            let progress = corun.per_app_progress(&solo);
            CorunRow {
                mechanism: m.to_string(),
                slowdowns,
                fairness: gpu_sim::jain_fairness(&progress),
                throughput: gpu_sim::system_throughput(&progress),
                csv_row: corun.to_csv_row(),
            }
        })
        .collect()
}

/// Geometric mean helper used for the paper's summary statistics.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::extended_registry;

    #[test]
    fn spec_filtered_variants_respect_the_set() {
        let ext = extended_registry();
        let just_two = &ext[10..];
        let rows = fig2_for(just_two, Scale::Test);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bench, "embedding");
        assert_eq!(rows[1].bench, "mlp");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
        assert!((geomean([0.5, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fig2_produces_ten_rows() {
        let rows = fig2(Scale::Test);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.hit_64), "{}: {}", r.bench, r.hit_64);
            assert!(
                r.hit_256 >= r.hit_64 - 0.05,
                "{}: capacity should not hurt much ({} vs {})",
                r.bench,
                r.hit_256,
                r.hit_64
            );
        }
    }

    #[test]
    fn fig10_rows_are_normalized_to_baseline() {
        let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
        let row = fig10_11_one(&spec, Scale::Test);
        assert!((row.norm_time[0] - 1.0).abs() < 1e-12);
        for t in row.norm_time {
            assert!(t > 0.0);
        }
    }

    #[test]
    fn variance_rows_have_small_spread_on_regular_kernels() {
        let rows = fig11_variance(Scale::Test, &[1, 2]);
        assert_eq!(rows.len(), 10);
        let gemm = rows.iter().find(|r| r.bench == "gemm").unwrap();
        // gemm's generator ignores the seed entirely.
        assert!(gemm.std_dev < 1e-9, "gemm std {}", gemm.std_dev);
    }

    #[test]
    fn warp_study_bounds() {
        for r in warp_study(Scale::Test) {
            assert!((0.0..=1.0).contains(&r.tb_at_reach), "{}", r.bench);
            assert!((0.0..=1.0).contains(&r.warp_at_reach), "{}", r.bench);
            // Intra-warp pairs are a subset of intra-TB pairs with equal
            // or tighter locality.
            assert!(
                r.warp_at_reach >= r.tb_at_reach - 0.35,
                "{}: warp {} vs tb {}",
                r.bench,
                r.warp_at_reach,
                r.tb_at_reach
            );
        }
    }

    #[test]
    fn fig3_4_bins_sum_to_one() {
        let rows = fig3_4(Scale::Test, Some(20));
        assert_eq!(rows.len(), 10);
        for r in &rows {
            let s: f64 = r.intra.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: {:?}", r.bench, r.intra);
        }
    }
}
