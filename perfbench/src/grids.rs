//! The `repro-paper` and `corun-4app` workloads: the experiment grids a
//! user of the reproduction waits for, run cell by cell on a 2-job
//! `bench::Grid` with a fresh in-memory `WorkloadCache`.
//!
//! Each cell makes the same public calls the `bench` figure function of
//! its section makes (`WorkloadCache::get_source_with_page_size`,
//! `Mechanism::simulator`, `Simulator::run_source`/`run_corun`, and the
//! `analysis` reuse functions), so the benchmark can time and check every
//! simulation; [`cross_check_repro`] proves at test scale that the assembled
//! rows equal the `bench` functions' rows exactly. Figures 5/6 call
//! `bench::fig5_6_grid` itself: it needs the engine's translation trace,
//! which the benchmark does not request directly.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::{Grid, CORUN_MECHANISMS, LINE_BYTES, SEED};
use gpu_sim::{GpuConfig, SimReport};
use orchestrated_tlb::Mechanism;
use vmem::PageSize;
use workloads::{extended_registry, registry, BenchmarkSpec, Scale};

use crate::checks::{check_report, Counters};
use crate::spans::{SpanId, Tracer};

/// Grid workers, as in `repro --jobs 2`.
pub const JOBS: usize = 2;

/// The co-run mix: two regular and two graph kernels, where the MASK
/// token and sub-entry policies change the result.
pub const CORUN_APPS: [&str; 4] = ["atax", "pagerank", "gemm", "mis"];

/// The paper's headline numbers, in percent: full-proposal time
/// reduction, scheduling alone, sched+part time increase, Figure 12 gain
/// over compression, and the 2 MiB-page gain.
pub const PAPER_HEADLINE: [f64; 5] = [12.5, 2.3, 14.3, 10.4, 2.13];

/// One timed cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `section/bench/mechanism`, unique within an iteration.
    pub key: String,
    /// Host seconds of the whole cell.
    pub secs: f64,
    /// Simulated counters, for cells that ran a simulation.
    pub counters: Option<Counters>,
    /// The report identities, for cells that ran a simulation.
    pub check: Result<(), String>,
}

/// Rows per section: `(label, values)`, compared exactly across
/// repetitions and against the `bench` functions.
pub type Rows = BTreeMap<&'static str, Vec<(String, Vec<f64>)>>;

/// What one iteration did.
#[derive(Debug, Default)]
pub struct Iteration {
    pub wall_s: f64,
    pub cells: Vec<Cell>,
    pub sections: Vec<(&'static str, f64)>,
    pub rows: Rows,
    /// Co-run CSV rows per mechanism (they carry the per-app columns).
    pub csv: Vec<String>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Iteration {
    /// The headline rows in percent (see [`PAPER_HEADLINE`]), if the
    /// iteration ran Figures 10/11, 12 and the huge-page study.
    pub fn headline(&self) -> Option<[f64; 5]> {
        let col = |section: &str, i: usize| -> Option<Vec<f64>> {
            let rows = self.rows.get(section)?;
            rows.iter().map(|(_, v)| v.get(i).copied()).collect()
        };
        // fig10_11 values: 4 hit rates, then 4 normalized times.
        let g = |section: &str, i: usize| col(section, i).map(bench::geomean);
        Some([
            (1.0 - g("fig10_11", 7)?) * 100.0,
            (1.0 - g("fig10_11", 5)?) * 100.0,
            (g("fig10_11", 6)? - 1.0) * 100.0,
            (g("fig12", 0)? - 1.0) * 100.0,
            (1.0 - g("hugepage", 1)?) * 100.0,
        ])
    }
}

/// Mean absolute gap, in percentage points, between `headline` and the
/// paper's numbers.
pub fn paper_error_pp(headline: &[f64; 5]) -> f64 {
    headline
        .iter()
        .zip(PAPER_HEADLINE)
        .map(|(m, p)| (m - p).abs())
        .sum::<f64>()
        / PAPER_HEADLINE.len() as f64
}

/// Which sections an iteration runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Sections {
    /// Everything `repro --all` prints.
    All,
    /// Only the sections the headline rows come from.
    Headline,
}

struct Ctx<'a> {
    tracer: &'a Tracer,
    grid: &'a Grid,
    scale: Scale,
    seed: u64,
}

impl Ctx<'_> {
    /// Times `f` as one section span and records its duration.
    fn section<R>(
        &self,
        it: &mut Iteration,
        root: SpanId,
        name: &'static str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start = Instant::now();
        let out = self.tracer.time(&format!("bench.{name}"), root, f);
        it.sections.push((name, start.elapsed().as_secs_f64()));
        out
    }

    /// One simulation cell: fetch the workload, build the mechanism's
    /// simulator, run it.
    fn sim_cell(
        &self,
        parent: SpanId,
        key: String,
        spec: &BenchmarkSpec,
        mechanism: Mechanism,
        page_size: PageSize,
    ) -> (Cell, Option<SimReport>) {
        let tr = self.tracer;
        let start = Instant::now();
        let result = tr.time("bench.grid.cell", parent, |cell| {
            let source = tr.time("workloads.get", cell, |_| {
                self.grid
                    .cache()
                    .get_source_with_page_size(spec, self.scale, self.seed, page_size)
            });
            let mut sim = tr.time("gpu_sim.construct", cell, |_| {
                mechanism.simulator(GpuConfig::dac23_baseline())
            });
            tr.time("gpu_sim.run", cell, |_| sim.run_source(source))
        });
        finish_cell(key, start, result.map_err(|e| e.to_string()))
    }
}

fn finish_cell(
    key: String,
    start: Instant,
    result: Result<SimReport, String>,
) -> (Cell, Option<SimReport>) {
    let secs = start.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            let cell = Cell {
                key,
                secs,
                counters: Some(Counters::of(&report)),
                check: check_report(&report),
            };
            (cell, Some(report))
        }
        Err(e) => {
            let cell = Cell {
                key,
                secs,
                counters: None,
                check: Err(e),
            };
            (cell, None)
        }
    }
}

/// Benchmark-major cells of `specs × options`, as the `bench` grids
/// enumerate them.
fn cells<M: Copy>(n: usize, options: &[M]) -> Vec<(usize, M)> {
    (0..n)
        .flat_map(|i| options.iter().map(move |&m| (i, m)))
        .collect()
}

/// Runs the simulation cells of one section; returns the reports in
/// cell order (`None` where a run failed) and the timed cells.
fn sim_section(
    ctx: &Ctx<'_>,
    sec: SpanId,
    name: &str,
    specs: &[BenchmarkSpec],
    mechs: &[Mechanism],
    page_size: PageSize,
) -> (Vec<Option<SimReport>>, Vec<Cell>) {
    let out = ctx.grid.map(&cells(specs.len(), mechs), |&(i, m)| {
        let key = format!("{name}/{}/{}", specs[i].name, m.label());
        ctx.sim_cell(sec, key, &specs[i], m, page_size)
    });
    let (cells, reports) = out.into_iter().unzip();
    (reports, cells)
}

/// Per-benchmark rows from a section's reports, `None` if any report in
/// the benchmark's chunk is missing.
fn chunk_rows(
    specs: &[BenchmarkSpec],
    reports: &[Option<SimReport>],
    width: usize,
    row: impl Fn(&[&SimReport]) -> Vec<f64>,
) -> Vec<(String, Vec<f64>)> {
    specs
        .iter()
        .zip(reports.chunks(width))
        .filter_map(|(spec, chunk)| {
            let rs: Option<Vec<&SimReport>> = chunk.iter().map(Option::as_ref).collect();
            Some((spec.name.to_owned(), row(&rs?)))
        })
        .collect()
}

/// One `repro-paper` iteration at `scale`, generating at `seed` (the
/// `bench` Figure 5/6 function always uses `bench::SEED`).
pub fn repro_paper(
    tracer: &Tracer,
    root: SpanId,
    scale: Scale,
    seed: u64,
    which: Sections,
) -> Iteration {
    let start = Instant::now();
    let grid = Grid::new(JOBS);
    let ctx = Ctx {
        tracer,
        grid: &grid,
        scale,
        seed,
    };
    let specs = registry();
    let idx: Vec<usize> = (0..specs.len()).collect();
    let mut it = Iteration::default();

    if which == Sections::All {
        let rows = ctx.section(&mut it, root, "table2", |sec| {
            grid.map(&idx, |&i| {
                let t = Instant::now();
                let wl = tracer.time("bench.grid.cell", sec, |cell| {
                    tracer.time("workloads.get", cell, |_| {
                        grid.cache().get(&specs[i], scale, seed)
                    })
                });
                let tbs: usize = wl.kernels().iter().map(|k| k.tbs.len()).sum();
                let s = wl.summary();
                let vals = vec![
                    wl.footprint_bytes() as f64,
                    wl.kernels().len() as f64,
                    tbs as f64,
                    s.total_ops() as f64,
                    s.gather_fraction(),
                ];
                let cell = Cell {
                    key: format!("table2/{}", specs[i].name),
                    secs: t.elapsed().as_secs_f64(),
                    counters: None,
                    check: Ok(()),
                };
                (cell, (specs[i].name.to_owned(), vals))
            })
        });
        let (cells, rows): (Vec<Cell>, Vec<_>) = rows.into_iter().unzip();
        it.cells.extend(cells);
        it.rows.insert("table2", rows);

        let mechs = [Mechanism::Baseline, Mechanism::LargeTlb];
        let (reports, cells) = ctx.section(&mut it, root, "fig2", |sec| {
            sim_section(&ctx, sec, "fig2", &specs, &mechs, PageSize::Small)
        });
        it.cells.extend(cells);
        let rows = chunk_rows(&specs, &reports, mechs.len(), |r| {
            vec![r[0].l1_tlb_hit_rate(), r[1].l1_tlb_hit_rate()]
        });
        it.rows.insert("fig2", rows);

        let rows = ctx.section(&mut it, root, "fig3_4", |sec| {
            grid.map(&idx, |&i| {
                let t = Instant::now();
                let vals = tracer.time("bench.grid.cell", sec, |cell| {
                    let wl = tracer.time("workloads.get", cell, |_| {
                        grid.cache().get(&specs[i], scale, seed)
                    });
                    let streams = tracer.time("analysis.streams", cell, |_| {
                        analysis::tb_translation_streams(&wl, LINE_BYTES)
                    });
                    tracer.time("analysis.reuse_intensity", cell, |_| {
                        let inter = analysis::ReuseBins::from_intensities(
                            &analysis::inter_intensities(&streams, Some(64)),
                        )
                        .fractions();
                        let intra = analysis::ReuseBins::from_intensities(
                            &analysis::intra_intensities(&streams),
                        )
                        .fractions();
                        inter.into_iter().chain(intra).collect::<Vec<f64>>()
                    })
                });
                let cell = Cell {
                    key: format!("fig3_4/{}", specs[i].name),
                    secs: t.elapsed().as_secs_f64(),
                    counters: None,
                    check: Ok(()),
                };
                (cell, (specs[i].name.to_owned(), vals))
            })
        });
        let (cells, rows): (Vec<Cell>, Vec<_>) = rows.into_iter().unzip();
        it.cells.extend(cells);
        it.rows.insert("fig3_4", rows);

        let rows = ctx.section(&mut it, root, "fig5_6", |_| {
            bench::fig5_6_grid(&specs, scale, &grid)
        });
        let rows = rows
            .into_iter()
            .map(|r| {
                let mut v: Vec<f64> = r.concurrent.iter().map(|&(_, y)| y).collect();
                v.extend(r.isolated.iter().map(|&(_, y)| y));
                v.push(r.beyond_reach);
                (r.bench, v)
            })
            .collect();
        it.rows.insert("fig5_6", rows);
    }

    let mechs = Mechanism::figure10();
    let (reports, cells) = ctx.section(&mut it, root, "fig10_11", |sec| {
        sim_section(&ctx, sec, "fig10_11", &specs, &mechs, PageSize::Small)
    });
    it.cells.extend(cells);
    let rows = chunk_rows(&specs, &reports, mechs.len(), |r| {
        let base = r[0].total_cycles as f64;
        let hits = r.iter().map(|x| x.l1_tlb_hit_rate());
        let times = r.iter().map(|x| x.total_cycles as f64 / base);
        hits.chain(times).collect()
    });
    it.rows.insert("fig10_11", rows);

    let mechs = [Mechanism::Compression, Mechanism::FullWithCompression];
    let (reports, cells) = ctx.section(&mut it, root, "fig12", |sec| {
        sim_section(&ctx, sec, "fig12", &specs, &mechs, PageSize::Small)
    });
    it.cells.extend(cells);
    let rows = chunk_rows(&specs, &reports, mechs.len(), |r| vec![r[1].speedup(r[0])]);
    it.rows.insert("fig12", rows);

    let mechs = [Mechanism::Baseline, Mechanism::Full];
    let (reports, cells) = ctx.section(&mut it, root, "hugepage", |sec| {
        sim_section(&ctx, sec, "hugepage", &specs, &mechs, PageSize::Large)
    });
    it.cells.extend(cells);
    let rows = chunk_rows(&specs, &reports, mechs.len(), |r| {
        vec![r[0].l1_tlb_hit_rate(), r[1].normalized_time(r[0])]
    });
    it.rows.insert("hugepage", rows);

    let stats = grid.cache().stats();
    it.cache_hits = stats.hits;
    it.cache_misses = stats.misses;
    it.wall_s = start.elapsed().as_secs_f64();
    it
}

/// The co-run mix's specs, resolved as `repro --apps` resolves them.
pub fn corun_specs() -> Vec<BenchmarkSpec> {
    let all = extended_registry();
    CORUN_APPS
        .iter()
        .map(|n| {
            all.iter()
                .find(|s| s.name == *n)
                .cloned()
                .expect("co-run app is in the registry")
        })
        .collect()
}

/// Short tag of a co-run mechanism, usable in a metric name.
pub fn corun_tag(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Baseline => "baseline",
        Mechanism::Full => "full",
        Mechanism::MaskTokens => "mask-tokens",
        Mechanism::SubEntrySharing => "sub-entry",
        _ => "other",
    }
}

/// One `corun-4app` iteration: every mechanism's co-run of the mix plus
/// each app's solo run, as `bench::corun_study_grid` enumerates them.
pub fn corun(tracer: &Tracer, root: SpanId, scale: Scale) -> Iteration {
    let start = Instant::now();
    let grid = Grid::new(JOBS);
    let apps = corun_specs();
    let mut it = Iteration::default();
    let cells: Vec<(Mechanism, Option<usize>)> = CORUN_MECHANISMS
        .iter()
        .flat_map(|&m| std::iter::once((m, None)).chain((0..apps.len()).map(move |i| (m, Some(i)))))
        .collect();
    let out = {
        let section_start = Instant::now();
        let out = tracer.time("bench.corun", root, |sec| {
            grid.map(&cells, |&(m, solo)| {
                let t = Instant::now();
                let (key, run) = match solo {
                    Some(i) => (format!("corun/solo-{}/{}", apps[i].name, m.label()), "solo"),
                    None => (format!("corun/mix/{}", m.label()), "corun"),
                };
                let report = tracer.time("bench.grid.cell", sec, |cell| {
                    let mut sim = tracer.time("gpu_sim.construct", cell, |_| {
                        m.simulator(GpuConfig::dac23_baseline())
                    });
                    let loads = tracer.time("workloads.get", cell, |_| {
                        let load = |i: usize| grid.cache().get(&apps[i], scale, SEED);
                        match solo {
                            Some(i) => vec![load(i)],
                            None => (0..apps.len()).map(load).collect(),
                        }
                    });
                    tracer.time(&format!("gpu_sim.{run}.{}", corun_tag(m)), cell, |_| {
                        sim.run_corun(loads)
                    })
                });
                finish_cell(key, t, Ok(report))
            })
        });
        it.sections
            .push(("corun", section_start.elapsed().as_secs_f64()));
        out
    };
    let mut reports = Vec::new();
    for (cell, report) in out {
        it.cells.push(cell);
        reports.push(report.expect("co-run cells always return a report"));
    }
    let mut rows = Vec::new();
    for (&m, chunk) in CORUN_MECHANISMS.iter().zip(reports.chunks(1 + apps.len())) {
        let mix = &chunk[0];
        let solo: Vec<u64> = chunk[1..].iter().map(|r| r.per_app[0].cycles).collect();
        let progress = mix.per_app_progress(&solo);
        let mut v = mix.per_app_slowdowns(&solo);
        v.push(gpu_sim::jain_fairness(&progress));
        v.push(gpu_sim::system_throughput(&progress));
        rows.push((m.label().to_owned(), v));
        it.csv.push(mix.to_csv_row());
    }
    it.rows.insert("corun", rows);
    let stats = grid.cache().stats();
    it.cache_hits = stats.hits;
    it.cache_misses = stats.misses;
    it.wall_s = start.elapsed().as_secs_f64();
    it
}

/// Compares `ours` with the `bench` rows, exactly.
fn same_rows(
    section: &str,
    ours: Option<&Vec<(String, Vec<f64>)>>,
    theirs: Vec<(String, Vec<f64>)>,
) -> Result<(), String> {
    match ours {
        Some(o) if *o == theirs => Ok(()),
        Some(o) => Err(format!(
            "{section}: benchmark rows {o:?} != bench rows {theirs:?}"
        )),
        None => Err(format!("{section}: no rows")),
    }
}

/// Checks, at test scale, that the benchmark's cell-by-cell rows equal
/// the `bench` figure functions' rows. Returns one result per section.
pub fn cross_check_repro(tracer: &Tracer) -> Vec<(&'static str, Result<(), String>)> {
    let scale = Scale::Test;
    let ours = repro_paper(tracer, SpanId::NONE, scale, SEED, Sections::All);
    let grid = Grid::new(JOBS);
    let specs = registry();
    let fig2 = bench::fig2_grid(&specs, scale, &grid)
        .into_iter()
        .map(|r| (r.bench, vec![r.hit_64, r.hit_256]))
        .collect();
    let fig3_4 = bench::fig3_4_grid(&specs, scale, Some(64), &grid)
        .into_iter()
        .map(|r| (r.bench, r.inter.into_iter().chain(r.intra).collect()))
        .collect();
    let fig10_11 = bench::fig10_11_grid(&specs, scale, &grid)
        .into_iter()
        .map(|r| {
            (
                r.bench,
                r.hit_rates.into_iter().chain(r.norm_time).collect(),
            )
        })
        .collect();
    let fig12 = bench::fig12_grid(&specs, scale, &grid)
        .into_iter()
        .map(|r| (r.bench, vec![r.speedup]))
        .collect();
    let hugepage = bench::hugepage_grid(&specs, scale, &grid)
        .into_iter()
        .map(|r| (r.bench, vec![r.hit_rate_huge, r.norm_time_ours]))
        .collect();
    vec![
        ("fig2", same_rows("fig2", ours.rows.get("fig2"), fig2)),
        (
            "fig3_4",
            same_rows("fig3_4", ours.rows.get("fig3_4"), fig3_4),
        ),
        (
            "fig10_11",
            same_rows("fig10_11", ours.rows.get("fig10_11"), fig10_11),
        ),
        ("fig12", same_rows("fig12", ours.rows.get("fig12"), fig12)),
        (
            "hugepage",
            same_rows("hugepage", ours.rows.get("hugepage"), hugepage),
        ),
    ]
}

/// Checks, at test scale, that the benchmark's co-run rows and CSV rows
/// equal `bench::corun_study_grid`'s exactly.
pub fn cross_check_corun(tracer: &Tracer) -> Result<(), String> {
    let scale = Scale::Test;
    let ours = corun(tracer, SpanId::NONE, scale);
    let theirs = bench::corun_study_grid(&corun_specs(), scale, &Grid::new(JOBS));
    let rows = theirs
        .iter()
        .map(|r| {
            let mut v = r.slowdowns.clone();
            v.push(r.fairness);
            v.push(r.throughput);
            (r.mechanism.clone(), v)
        })
        .collect();
    same_rows("corun", ours.rows.get("corun"), rows)?;
    let csv: Vec<String> = theirs.into_iter().map(|r| r.csv_row).collect();
    if ours.csv != csv {
        return Err(format!("corun CSV rows differ: {:?} != {csv:?}", ours.csv));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_error_is_zero_at_the_paper_and_mean_abs_otherwise() {
        assert_eq!(paper_error_pp(&PAPER_HEADLINE), 0.0);
        let mut off = PAPER_HEADLINE;
        off[0] += 1.0;
        off[4] -= 4.0;
        assert!((paper_error_pp(&off) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn test_scale_rows_match_the_bench_functions() {
        let tracer = Tracer::new(false);
        for (section, result) in cross_check_repro(&tracer) {
            assert!(result.is_ok(), "{section}: {result:?}");
        }
        cross_check_corun(&tracer).unwrap();
    }

    #[test]
    fn traced_iteration_times_every_cell_and_section() {
        let tracer = Tracer::new(true);
        let it = tracer.time("iteration", SpanId::NONE, |root| {
            repro_paper(&tracer, root, Scale::Test, SEED, Sections::All)
        });
        // 20 + 40 + 20 + 20 simulations, 10 table2 and 10 fig3_4 cells.
        assert_eq!(it.cells.len(), 120);
        assert_eq!(
            it.cells.iter().filter(|c| c.counters.is_some()).count(),
            100
        );
        assert!(it.cells.iter().all(|c| c.check.is_ok()));
        assert_eq!(it.sections.len(), 7);
        assert!(it.headline().is_some());
        let spans = tracer.take();
        let cells = spans.iter().filter(|s| s.name == "bench.grid.cell").count();
        assert_eq!(cells, 120);
    }
}
