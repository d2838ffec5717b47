//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload repro-paper|engine-large|corun-4app [--seed N]
//!           [--seconds S] [--trace 0|1] [--repo-root DIR]
//!           [--repro-bin PATH] [--work-dir DIR]
//! ```
//!
//! It sets the workload up at least five times. With `--trace 0` it then
//! runs timed iterations for at least `--seconds` (and at least two) and
//! prints the end-to-end metrics; with `--trace 1` it spends half of
//! `--seconds` on untraced and half on traced iterations and prints the
//! per-layer metrics. Either way every operation passes the correctness
//! gate, and the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md`.

mod checks;
mod engine;
mod grids;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use bench::SEED;
use gpu_sim::GpuConfig;
use workloads::{registry, Scale, Workload, WorkloadCache};

use checks::{Counters, Gate, Pinned};
use grids::{Iteration, Sections, JOBS};
use spans::{SpanId, Tracer};
use stats::{calibration_ms, median, quantile};

/// Set-up repeats until it ran this many times and for this many
/// seconds; `setup_s` is the median. Short set-ups are dominated by
/// scheduling jitter, so they repeat more.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
/// Timed iterations per run, at least.
const MIN_ITERS: usize = 2;
/// Calibration-kernel repetitions before and after the run.
const CALIBRATION_REPS: usize = 3;
/// Longest page or line stream a replay is fed.
const REPLAY_CAP: usize = 1 << 20;
/// The seed the held-out paper error uses when `--seed` is the
/// calibration seed itself.
const HELD_OUT_DEFAULT: u64 = 1;
/// Checked-in test-scale `repro --all` output, relative to the repo root.
const GOLDEN: &str = "crates/bench/tests/golden/repro_all_test.txt";

/// The end-to-end metrics, `(name, unit)`, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_winst_per_s", "winst/s"),
    ("sim_txn_per_s", "txn/s"),
    ("peak_rss_mib", "MiB"),
];

/// Engine-large scenario metric names, in [`engine::SCENARIOS`] order.
const SCENARIO_METRICS: [[&str; 3]; 5] = [
    [
        "gpu_sim.gemm-baseline.run_s",
        "gpu_sim.gemm-baseline.ns_per_winst",
        "gpu_sim.gemm-baseline.ns_per_txn",
    ],
    [
        "gpu_sim.bfs-baseline.run_s",
        "gpu_sim.bfs-baseline.ns_per_winst",
        "gpu_sim.bfs-baseline.ns_per_txn",
    ],
    [
        "gpu_sim.bfs-full.run_s",
        "gpu_sim.bfs-full.ns_per_winst",
        "gpu_sim.bfs-full.ns_per_txn",
    ],
    [
        "gpu_sim.mvt-full.run_s",
        "gpu_sim.mvt-full.ns_per_winst",
        "gpu_sim.mvt-full.ns_per_txn",
    ],
    [
        "gpu_sim.mvt-compression.run_s",
        "gpu_sim.mvt-compression.ns_per_winst",
        "gpu_sim.mvt-compression.ns_per_txn",
    ],
];

/// The per-layer metrics, `(name, unit)`, printed with `--trace 1`.
/// Every workload prints every one; a layer the workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 85] = [
    ("bench.cell_p50_s", "s"),
    ("bench.cell_p90_s", "s"),
    ("bench.cell_count", "count"),
    ("bench.table2_s", "s"),
    ("bench.fig2_s", "s"),
    ("bench.fig3_4_s", "s"),
    ("bench.fig5_6_s", "s"),
    ("bench.fig10_11_s", "s"),
    ("bench.fig12_s", "s"),
    ("bench.hugepage_s", "s"),
    ("bench.corun_s", "s"),
    ("bench.grid.busy_frac", "ratio"),
    ("bench.grid.max_cell_s", "s"),
    ("bench.paper_error_pp", "pp"),
    ("bench.paper_error_heldout_pp", "pp"),
    ("workloads.generate_s", "s"),
    ("workloads.generate_calls", "count"),
    ("workloads.cache_hit_frac", "ratio"),
    ("workloads.trace_write_s", "s"),
    ("workloads.trace_write_mib_per_s", "MiB/s"),
    ("workloads.trace_verify_s", "s"),
    ("workloads.trace_decode_s", "s"),
    ("workloads.trace_decode_mib_per_s", "MiB/s"),
    ("workloads.trace_bytes", "bytes"),
    ("analysis.streams_s", "s"),
    ("analysis.reuse_intensity_s", "s"),
    ("gpu_sim.gemm-baseline.run_s", "s"),
    ("gpu_sim.gemm-baseline.ns_per_winst", "ns"),
    ("gpu_sim.gemm-baseline.ns_per_txn", "ns"),
    ("gpu_sim.bfs-baseline.run_s", "s"),
    ("gpu_sim.bfs-baseline.ns_per_winst", "ns"),
    ("gpu_sim.bfs-baseline.ns_per_txn", "ns"),
    ("gpu_sim.bfs-full.run_s", "s"),
    ("gpu_sim.bfs-full.ns_per_winst", "ns"),
    ("gpu_sim.bfs-full.ns_per_txn", "ns"),
    ("gpu_sim.mvt-full.run_s", "s"),
    ("gpu_sim.mvt-full.ns_per_winst", "ns"),
    ("gpu_sim.mvt-full.ns_per_txn", "ns"),
    ("gpu_sim.mvt-compression.run_s", "s"),
    ("gpu_sim.mvt-compression.ns_per_winst", "ns"),
    ("gpu_sim.mvt-compression.ns_per_txn", "ns"),
    ("gpu_sim.corun.baseline.run_s", "s"),
    ("gpu_sim.corun.full.run_s", "s"),
    ("gpu_sim.corun.mask-tokens.run_s", "s"),
    ("gpu_sim.corun.sub-entry.run_s", "s"),
    ("gpu_sim.construct_s", "s"),
    ("gpu_sim.instructions", "count"),
    ("gpu_sim.transactions", "count"),
    ("gpu_sim.total_cycles", "cycles"),
    ("tlb.l1.lookups", "count"),
    ("tlb.l1.hit_frac", "ratio"),
    ("tlb.l1.fastpath_frac", "ratio"),
    ("tlb.l2.lookups", "count"),
    ("tlb.l2.hit_frac", "ratio"),
    ("tlb.set_assoc.ns_per_lookup", "ns"),
    ("tlb.compressed.ns_per_lookup", "ns"),
    ("tlb.sub_entry.ns_per_lookup", "ns"),
    ("core.partitioned.ns_per_lookup", "ns"),
    ("core.full_host_ratio", "ratio"),
    ("mem_hier.l1d.accesses", "count"),
    ("mem_hier.l1d.hit_frac", "ratio"),
    ("mem_hier.l2d.hit_frac", "ratio"),
    ("mem_hier.translate_cycles", "cycles"),
    ("mem_hier.share.l1_tlb", "ratio"),
    ("mem_hier.share.icnt", "ratio"),
    ("mem_hier.share.l2_tlb_queue", "ratio"),
    ("mem_hier.share.l2_tlb_lookup", "ratio"),
    ("mem_hier.share.walk", "ratio"),
    ("mem_hier.share.fault", "ratio"),
    ("mem_hier.cache.ns_per_access", "ns"),
    ("mem_hier.translate.ns_per_access", "ns"),
    ("vmem.walks", "count"),
    ("vmem.walk_coalesced_frac", "ratio"),
    ("vmem.queue_wait_cycles", "cycles"),
    ("vmem.demand_faults", "count"),
    ("vmem.walker.ns_per_submit", "ns"),
    ("self.bench_s", "s"),
    ("self.workloads_s", "s"),
    ("self.analysis_s", "s"),
    ("self.gpu_sim_s", "s"),
    ("self.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("host.calibration_ms", "ms"),
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    ReproPaper,
    EngineLarge,
    Corun4App,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "repro-paper" => Some(Kind::ReproPaper),
            "engine-large" => Some(Kind::EngineLarge),
            "corun-4app" => Some(Kind::Corun4App),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::ReproPaper => "repro-paper",
            Kind::EngineLarge => "engine-large",
            Kind::Corun4App => "corun-4app",
        }
    }

    fn scale(self) -> Scale {
        match self {
            Kind::EngineLarge => Scale::Large,
            Kind::ReproPaper | Kind::Corun4App => Scale::Paper,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    repo_root: PathBuf,
    repro_bin: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut repo_root = PathBuf::from(".");
    let mut repro_bin = None;
    let mut work_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds < 0.0 {
                    return Err("--seconds must be non-negative".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--repo-root" => repo_root = PathBuf::from(value()?),
            "--repro-bin" => repro_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let work_dir =
        work_dir.unwrap_or_else(|| repo_root.join(".bench_build").join("perfbench-work"));
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        repo_root,
        repro_bin,
        work_dir,
    })
}

/// Metric values by name, with units.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .chain(END_TO_END.iter())
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.0.insert(name.to_owned(), (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The first repetition of every cell's counters and every section's
/// rows; later repetitions must reproduce them exactly.
#[derive(Default)]
struct Pins {
    cells: Pinned<Option<Counters>>,
    rows: Pinned<Vec<(String, Vec<f64>)>>,
}

/// Checks every cell and section of an iteration against its report
/// identities and its first repetition.
fn gate_iteration(it: &Iteration, gate: &mut Gate, pins: &mut Pins) {
    for c in &it.cells {
        let outcome = c
            .check
            .clone()
            .and_then(|()| pins.cells.check(&c.key, &c.counters));
        gate.record(&c.key, outcome);
    }
    for (section, r) in &it.rows {
        gate.record(&format!("{section} rows"), pins.rows.check(section, r));
    }
}

fn sim_cells(it: &Iteration) -> impl Iterator<Item = (&grids::Cell, &Counters)> {
    it.cells
        .iter()
        .filter_map(|c| c.counters.as_ref().map(|k| (c, k)))
}

fn totals(it: &Iteration) -> Counters {
    let mut sum = Counters::default();
    for (_, k) in sim_cells(it) {
        sum.add(k);
    }
    sum
}

/// Runs `f` at least [`SETUP_MIN_REPS`] times and for at least
/// [`SETUP_MIN_SECONDS`]; returns the last result and each repetition's
/// seconds.
fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Timed iterations until `seconds` have passed and at least
/// [`MIN_ITERS`] ran.
fn timed(seconds: f64, mut f: impl FnMut() -> Iteration) -> Vec<Iteration> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ITERS || start.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// End-to-end metrics of the timed iterations: host times are medians
/// over iterations. On `engine-large` an iteration is one pass over the
/// five scenarios on a 2-job grid, and `wall_s` is the time of that pass
/// run back to back: the sum of each scenario's median replay time. Each
/// median pools the replays of both grid workers, so it averages the two
/// host cores instead of reading the slower one; rates divide by it.
fn end_to_end(kind: Kind, setup: &[f64], iters: &[Iteration], lines: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let walls: Vec<f64> = iters.iter().map(|i| i.wall_s).collect();
    let pass = (kind == Kind::EngineLarge).then(|| scenario_medians(iters));
    let wall_s = match &pass {
        Some(medians) => medians.iter().map(|(_, s)| s).sum(),
        None => median(&walls).unwrap_or(0.0),
    };
    m.set("wall_s", wall_s);
    m.set("setup_s", median(setup).unwrap_or(0.0));
    let rate = |count: fn(&Counters) -> u64| -> f64 {
        let per: Vec<f64> = iters
            .iter()
            .map(|i| count(&totals(i)) as f64 / if pass.is_some() { wall_s } else { i.wall_s })
            .collect();
        median(&per).unwrap_or(0.0)
    };
    m.set("sim_winst_per_s", rate(|c| c.instructions));
    m.set("sim_txn_per_s", rate(|c| c.transactions));
    m.set("peak_rss_mib", stats::peak_rss_mib().unwrap_or(0.0));
    let cells: Vec<f64> = iters
        .iter()
        .flat_map(|i| sim_cells(i).map(|(c, _)| c.secs))
        .collect();
    lines.push(format!(
        "timed iterations: {} (wall_s each: {walls:?}); set-ups: {setup:?}",
        iters.len()
    ));
    if let Some(medians) = &pass {
        let by_scenario: Vec<String> = medians.iter().map(|(k, s)| format!("{k} {s}")).collect();
        lines.push(format!(
            "median replay seconds per scenario: {}",
            by_scenario.join(", ")
        ));
    }
    lines.push(format!(
        "simulation cell latency over {} cells: p50 {} s, p90 {} s",
        cells.len(),
        quantile(&cells, 0.5).unwrap_or(0.0),
        quantile(&cells, 0.9).unwrap_or(0.0)
    ));
    m
}

/// Each cell key's median seconds over `iters`, in first-iteration order.
fn scenario_medians(iters: &[Iteration]) -> Vec<(String, f64)> {
    let Some(first) = iters.first() else {
        return Vec::new();
    };
    first
        .cells
        .iter()
        .map(|cell| {
            let secs: Vec<f64> = iters
                .iter()
                .flat_map(|i| i.cells.iter().filter(|c| c.key == cell.key))
                .map(|c| c.secs)
                .collect();
            (cell.key.clone(), median(&secs).unwrap_or(0.0))
        })
        .collect()
}

/// Compares the test-scale `repro --all` output with the golden file.
fn golden_check(args: &Args) -> Result<(), String> {
    let bin = args.repro_bin.as_ref().ok_or("no --repro-bin given")?;
    let want =
        std::fs::read(args.repo_root.join(GOLDEN)).map_err(|e| format!("read {GOLDEN}: {e}"))?;
    let out = Command::new(bin)
        .args(["--all", "--scale", "test", "--jobs", "2"])
        .output()
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("repro exited with {}", out.status));
    }
    if out.stdout != want {
        return Err(format!(
            "repro --all --scale test output differs from {GOLDEN}"
        ));
    }
    Ok(())
}

/// Everything the per-layer metrics are computed from.
struct Traced<'a> {
    it: &'a Iteration,
    spans: &'a [spans::Span],
    attribution: spans::Attribution,
    untraced_wall_s: f64,
}

fn per_layer_common(kind: Kind, t: &Traced<'_>, m: &mut Metrics) {
    let it = t.it;
    for (section, secs) in &it.sections {
        m.set(&format!("bench.{section}_s"), *secs);
    }
    // Grid occupancy over the sections whose cells the benchmark times.
    let timed_sections: f64 = it
        .sections
        .iter()
        .filter(|(s, _)| *s != "fig5_6")
        .map(|(_, secs)| secs)
        .sum();
    let cell_sum: f64 = it.cells.iter().map(|c| c.secs).sum();
    if kind != Kind::EngineLarge && timed_sections > 0.0 {
        m.set(
            "bench.grid.busy_frac",
            cell_sum / (JOBS as f64 * timed_sections),
        );
    }
    let cells: Vec<f64> = sim_cells(it).map(|(c, _)| c.secs).collect();
    m.set("bench.cell_p50_s", quantile(&cells, 0.5).unwrap_or(0.0));
    m.set("bench.cell_p90_s", quantile(&cells, 0.9).unwrap_or(0.0));
    m.set("bench.cell_count", cells.len() as f64);
    m.set(
        "bench.grid.max_cell_s",
        it.cells.iter().map(|c| c.secs).fold(0.0, f64::max),
    );
    if kind != Kind::EngineLarge {
        let requests = it.cache_hits + it.cache_misses;
        m.set(
            "workloads.generate_s",
            spans::total_secs(t.spans, "workloads.get"),
        );
        m.set("workloads.generate_calls", it.cache_misses as f64);
        if requests > 0 {
            m.set(
                "workloads.cache_hit_frac",
                it.cache_hits as f64 / requests as f64,
            );
        }
    }
    m.set(
        "analysis.streams_s",
        spans::total_secs(t.spans, "analysis.streams"),
    );
    m.set(
        "analysis.reuse_intensity_s",
        spans::total_secs(t.spans, "analysis.reuse_intensity"),
    );
    for tag in ["baseline", "full", "mask-tokens", "sub-entry"] {
        m.set(
            &format!("gpu_sim.corun.{tag}.run_s"),
            spans::total_secs(t.spans, &format!("gpu_sim.corun.{tag}")),
        );
    }
    m.set(
        "gpu_sim.construct_s",
        spans::total_secs(t.spans, "gpu_sim.construct"),
    );

    let c = totals(it);
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set("gpu_sim.instructions", c.instructions as f64);
    m.set("gpu_sim.transactions", c.transactions as f64);
    m.set("gpu_sim.total_cycles", c.total_cycles as f64);
    m.set("tlb.l1.lookups", c.l1_tlb_lookups as f64);
    m.set("tlb.l1.hit_frac", frac(c.l1_tlb_hits, c.l1_tlb_lookups));
    m.set(
        "tlb.l1.fastpath_frac",
        frac(c.fastpath_hits, c.l1_tlb_lookups + c.l2_tlb_lookups),
    );
    m.set("tlb.l2.lookups", c.l2_tlb_lookups as f64);
    m.set("tlb.l2.hit_frac", frac(c.l2_tlb_hits, c.l2_tlb_lookups));
    m.set("mem_hier.l1d.accesses", c.l1d_accesses as f64);
    m.set("mem_hier.l1d.hit_frac", frac(c.l1d_hits, c.l1d_accesses));
    m.set("mem_hier.l2d.hit_frac", frac(c.l2d_hits, c.l2d_accesses));
    m.set("mem_hier.translate_cycles", c.translate_cycles as f64);
    for (name, part) in analysis::LATENCY_COMPONENTS.iter().zip(c.translate_parts) {
        m.set(
            &format!("mem_hier.share.{name}"),
            frac(part, c.translate_cycles),
        );
    }
    m.set("vmem.walks", c.walks as f64);
    m.set(
        "vmem.walk_coalesced_frac",
        frac(c.walks_coalesced, c.walks + c.walks_coalesced),
    );
    m.set("vmem.queue_wait_cycles", c.queue_wait_cycles as f64);
    m.set("vmem.demand_faults", c.demand_faults as f64);

    // Full ÷ Baseline host seconds, geometric mean over the pairs.
    let secs: BTreeMap<&str, f64> = it.cells.iter().map(|c| (c.key.as_str(), c.secs)).collect();
    let pairs: Vec<f64> = match kind {
        Kind::ReproPaper => registry()
            .iter()
            .filter_map(|s| {
                let full = secs.get(format!("fig10_11/{}/sched+part+share", s.name).as_str())?;
                let base = secs.get(format!("fig10_11/{}/baseline", s.name).as_str())?;
                Some(full / base)
            })
            .collect(),
        Kind::EngineLarge => {
            vec![secs.get("bfs-full").unwrap_or(&0.0) / secs.get("bfs-baseline").unwrap_or(&1.0)]
        }
        Kind::Corun4App => vec![
            secs.get("corun/mix/sched+part+share").unwrap_or(&0.0)
                / secs.get("corun/mix/baseline").unwrap_or(&1.0),
        ],
    };
    m.set("core.full_host_ratio", bench::geomean(pairs));

    for layer in ["bench", "workloads", "analysis", "gpu_sim"] {
        m.set(
            &format!("self.{layer}_s"),
            t.attribution.self_s.get(layer).copied().unwrap_or(0.0),
        );
    }
    m.set("self.unattributed_s", t.attribution.unattributed_s);
    m.set("trace.wall_s", t.attribution.wall_s);
    m.set("trace.untraced_wall_s", t.untraced_wall_s);
    m.set(
        "trace.overhead_frac",
        t.attribution.wall_s / t.untraced_wall_s - 1.0,
    );
}

/// Replays the workloads' page and line streams through the layers a
/// simulation hides.
fn per_layer_replays(workloads: &[Workload], m: &mut Metrics, lines_out: &mut Vec<String>) {
    let config = GpuConfig::dac23_baseline();
    let pages = replay::page_stream(workloads, REPLAY_CAP);
    let lines = replay::line_stream(workloads, REPLAY_CAP);
    let mut walker_input = Vec::new();
    for (name, mut tlb) in replay::l1_organizations() {
        let (r, misses) = replay::replay_tlb(tlb.as_mut(), &pages);
        m.set(&format!("{name}.ns_per_lookup"), r.ns_per_op());
        if name == "tlb.set_assoc" {
            walker_input = misses;
        }
    }
    m.set(
        "vmem.walker.ns_per_submit",
        replay::replay_walker(&config, &walker_input).ns_per_op(),
    );
    m.set(
        "mem_hier.cache.ns_per_access",
        replay::replay_cache(&config, &lines).ns_per_op(),
    );
    m.set(
        "mem_hier.translate.ns_per_access",
        replay::replay_hierarchy(&config, workloads, &lines).ns_per_op(),
    );
    lines_out.push(format!(
        "replayed {} pages ({} L1 misses to the walkers) and {} lines",
        pages.len(),
        walker_input.len(),
        lines.len()
    ));
}

/// What [`measure`] leaves for the workload-specific metrics.
struct Measured {
    metrics: Metrics,
    /// The traced iteration the per-layer metrics describe, or the first
    /// timed one when not tracing.
    first: Iteration,
    /// That traced iteration's spans (empty when not tracing).
    spans: Vec<spans::Span>,
}

/// Without tracing: timed iterations and the end-to-end metrics. With
/// tracing: untraced iterations, then iterations under a root span each,
/// and the per-layer metrics every workload shares. Every iteration is
/// gated.
fn measure(
    args: &Args,
    setup: &[f64],
    gate: &mut Gate,
    pins: &mut Pins,
    lines: &mut Vec<String>,
    iterate: impl Fn(&Tracer, SpanId) -> Iteration,
) -> Measured {
    let off = Tracer::new(false);
    if !args.trace {
        let mut iters = timed(args.seconds, || iterate(&off, SpanId::NONE));
        for it in &iters {
            gate_iteration(it, gate, pins);
        }
        let metrics = end_to_end(args.kind, setup, &iters, lines);
        return Measured {
            metrics,
            first: iters.swap_remove(0),
            spans: Vec::new(),
        };
    }
    // Half the time untraced, half traced; the per-layer metrics come from
    // the traced iteration of median wall time (the upper one of an even
    // count), its overhead against the untraced median.
    let half = args.seconds / 2.0;
    let untraced = timed(half, || iterate(&off, SpanId::NONE));
    let tracer = Tracer::new(true);
    let mut roots = Vec::new();
    let mut traced = timed(half, || {
        let (it, root) = tracer.time("iteration", SpanId::NONE, |root| {
            (iterate(&tracer, root), root)
        });
        roots.push(root);
        it
    });
    for it in untraced.iter().chain(&traced) {
        gate_iteration(it, gate, pins);
    }
    let all = tracer.take();
    for &root in &roots {
        gate.record(
            "self-time identity",
            identity(&spans::attribute(&all, root)),
        );
    }
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced[a].wall_s.total_cmp(&traced[b].wall_s));
    let pick = order[order.len() / 2];
    let spans = spans::subtree(&all, roots[pick]);
    let untraced_walls: Vec<f64> = untraced.iter().map(|i| i.wall_s).collect();
    let it = traced.swap_remove(pick);
    let mut metrics = Metrics::default();
    let view = Traced {
        it: &it,
        spans: &spans,
        attribution: spans::attribute(&spans, roots[pick]),
        untraced_wall_s: median(&untraced_walls).unwrap_or(0.0),
    };
    per_layer_common(args.kind, &view, &mut metrics);
    lines.push(format!(
        "traced iterations: {} untraced, {} traced",
        untraced.len(),
        roots.len()
    ));
    Measured {
        metrics,
        first: it,
        spans,
    }
}

/// `repro-paper` and `corun-4app`.
fn run_grid(args: &Args, gate: &mut Gate, lines: &mut Vec<String>) -> Metrics {
    let off = Tracer::new(false);
    let iterate = |tracer: &Tracer, root: SpanId, scale: Scale| match args.kind {
        Kind::ReproPaper => grids::repro_paper(tracer, root, scale, SEED, Sections::All),
        _ => grids::corun(tracer, root, scale),
    };
    // Set-up: a test-scale warm-up of the same grid.
    let (_, setup) = repeat_setup(|| iterate(&off, SpanId::NONE, Scale::Test));
    let mut pins = Pins::default();
    let Measured {
        mut metrics, first, ..
    } = measure(args, &setup, gate, &mut pins, lines, |tr, root| {
        iterate(tr, root, Scale::Paper)
    });
    if let Some(h) = first.headline() {
        let error = grids::paper_error_pp(&h);
        lines.push(format!(
            "headline rows (%): {h:?}; paper_error_pp = {error}"
        ));
        if args.trace {
            metrics.set("bench.paper_error_pp", error);
        }
    }
    if args.trace {
        let cache = WorkloadCache::new();
        let specs = match args.kind {
            Kind::ReproPaper => registry(),
            _ => grids::corun_specs(),
        };
        let wls: Vec<Workload> = specs
            .iter()
            .map(|s| cache.get(s, Scale::Paper, SEED))
            .collect();
        drop(cache);
        per_layer_replays(&wls, &mut metrics, lines);
        if args.kind == Kind::ReproPaper {
            let seed = if args.seed == SEED {
                HELD_OUT_DEFAULT
            } else {
                args.seed
            };
            let held =
                grids::repro_paper(&off, SpanId::NONE, Scale::Paper, seed, Sections::Headline);
            for c in &held.cells {
                gate.record(&format!("held-out seed {seed}: {}", c.key), c.check.clone());
            }
            if let Some(h) = held.headline() {
                lines.push(format!("held-out seed {seed} headline rows (%): {h:?}"));
                metrics.set("bench.paper_error_heldout_pp", grids::paper_error_pp(&h));
            }
        }
    }
    if args.kind == Kind::ReproPaper {
        for (section, result) in grids::cross_check_repro(&off) {
            gate.record(
                &format!("{section} rows == bench::{section}_grid at test scale"),
                result,
            );
        }
        gate.record("repro --all --scale test == golden", golden_check(args));
    } else {
        gate.record(
            "corun rows == bench::corun_study_grid at test scale",
            grids::cross_check_corun(&off),
        );
    }
    metrics
}

/// `engine-large`.
fn run_engine(args: &Args, gate: &mut Gate, lines: &mut Vec<String>) -> Metrics {
    let dir = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        gate.record("create work dir", Err(format!("{}: {e}", dir.display())));
        return Metrics::default();
    }
    let setup_tracer = Tracer::new(args.trace);
    let (prepared, setup) = repeat_setup(|| {
        setup_tracer.time("setup", SpanId::NONE, |root| {
            engine::setup(&setup_tracer, root, &dir, Scale::Large, args.seed, gate)
        })
    });
    let mut pins = Pins::default();
    let Measured {
        mut metrics,
        first,
        spans,
    } = measure(args, &setup, gate, &mut pins, lines, |tr, root| {
        engine::iteration(tr, root, &prepared)
    });
    if args.trace {
        let m = &mut metrics;
        for ((label, _, _), names) in engine::SCENARIOS.iter().zip(SCENARIO_METRICS) {
            let run_s = spans::total_secs(&spans, &format!("gpu_sim.run.{label}"));
            let c = first
                .cells
                .iter()
                .find(|c| c.key == *label)
                .and_then(|c| c.counters.clone())
                .unwrap_or_default();
            m.set(names[0], run_s);
            m.set(names[1], run_s * 1e9 / c.instructions.max(1) as f64);
            m.set(names[2], run_s * 1e9 / c.transactions.max(1) as f64);
        }
        let set_spans = setup_tracer.take();
        let per_setup = |name: &str| spans::total_secs(&set_spans, name) / setup.len() as f64;
        let mib = prepared.bytes as f64 / (1024.0 * 1024.0);
        m.set("workloads.generate_s", per_setup("workloads.generate"));
        m.set("workloads.generate_calls", engine::BENCHES.len() as f64);
        m.set(
            "workloads.trace_write_s",
            per_setup("workloads.trace_write"),
        );
        m.set(
            "workloads.trace_write_mib_per_s",
            mib / per_setup("workloads.trace_write"),
        );
        m.set(
            "workloads.trace_verify_s",
            per_setup("workloads.trace_verify"),
        );
        let (decode_s, tbs) = engine::decode_only(&prepared, gate);
        m.set("workloads.trace_decode_s", decode_s);
        m.set("workloads.trace_decode_mib_per_s", mib / decode_s);
        m.set("workloads.trace_bytes", prepared.bytes as f64);
        lines.push(format!("decoded {tbs} TBs from {mib:.1} MiB of trace/v1"));
        let wls: Vec<Workload> = prepared.workloads.values().cloned().collect();
        per_layer_replays(&wls, m, lines);
    }
    let streamed: BTreeMap<String, Counters> = pins
        .cells
        .values()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.clone()?)))
        .collect();
    engine::check_against_memory(&prepared, &streamed, gate);
    drop(prepared);
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        lines.push(format!("warning: could not remove {}: {e}", dir.display()));
    }
    metrics
}

fn identity(a: &spans::Attribution) -> Result<(), String> {
    if a.identity_gap().abs() <= 1e-9 * a.wall_s.max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "self times + unattributed - wall = {} s",
            a.identity_gap()
        ))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.repo_root.join(GOLDEN).is_file() {
        eprintln!(
            "perfbench: {} is not the repository root (no {GOLDEN})",
            args.repo_root.display()
        );
        std::process::exit(2);
    }
    let mut calibration: Vec<f64> = (0..CALIBRATION_REPS).map(|_| calibration_ms()).collect();
    let mut gate = Gate::default();
    let mut lines = Vec::new();
    let mut metrics = match args.kind {
        Kind::EngineLarge => run_engine(&args, &mut gate, &mut lines),
        Kind::ReproPaper | Kind::Corun4App => run_grid(&args, &mut gate, &mut lines),
    };
    calibration.extend((0..CALIBRATION_REPS).map(|_| calibration_ms()));
    if args.trace {
        metrics.set("host.calibration_ms", median(&calibration).unwrap_or(0.0));
        for (name, _) in PER_LAYER {
            if !metrics.0.contains_key(name) {
                metrics.set(name, 0.0);
            }
        }
    }

    let config_hash =
        workloads::format::fnv1a(format!("{:?}", GpuConfig::dac23_baseline()).as_bytes());
    let (lo, hi) = calibration
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    println!(
        "# manifest: {{\"schema\": \"perfbench/v1\", \"workload\": \"{}\", \"seed\": {}, \"scale\": \"{}\", \
         \"trace\": {}, \"jobs\": {JOBS}, \"host_cores\": {}, \"config_hash\": \"{config_hash:016x}\", \
         \"calibration_ms\": {{\"min\": {lo}, \"median\": {}, \"max\": {hi}, \"reps\": {}}}}}",
        args.kind.name(),
        args.seed,
        args.kind.scale(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        median(&calibration).unwrap_or(0.0),
        calibration.len(),
    );
    for line in &lines {
        println!("# {line}");
    }
    for (name, (value, unit)) in &metrics.0 {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "# failed_frac = {} ({} of {} checked operations)",
        gate.failed() as f64 / gate.attempted.max(1) as f64,
        gate.failed(),
        gate.attempted
    );
    for f in &gate.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.failed() == 0,
        gate.attempted.max(1),
        gate.failed(),
        metrics.json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The metric names declared in `BENCHMARK.json`, in file order.
    fn declared(section: &str) -> Vec<String> {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap().to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn scenario_metric_names_follow_the_scenarios() {
        for ((label, _, _), names) in engine::SCENARIOS.iter().zip(SCENARIO_METRICS) {
            for n in names {
                assert!(n.starts_with(&format!("gpu_sim.{label}.")), "{n}");
                assert!(PER_LAYER.iter().any(|(p, _)| *p == n), "{n}");
            }
        }
    }

    #[test]
    fn scenario_medians_pool_each_key_over_iterations() {
        let cell = |key: &str, secs: f64| grids::Cell {
            key: key.to_owned(),
            secs,
            counters: None,
            check: Ok(()),
        };
        let iters: Vec<Iteration> = [(1.0, 4.0), (3.0, 2.0), (2.0, 9.0)]
            .iter()
            .map(|&(a, b)| Iteration {
                cells: vec![cell("a", a), cell("b", b)],
                ..Iteration::default()
            })
            .collect();
        assert_eq!(
            scenario_medians(&iters),
            vec![("a".to_owned(), 2.0), ("b".to_owned(), 4.0)]
        );
        assert_eq!(scenario_medians(&[]), Vec::new());
    }

    #[test]
    fn metrics_json_is_one_object_with_units() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.25);
        m.set("setup_s", f64::NAN);
        assert_eq!(
            m.json(),
            "{\"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}"
        );
    }
}
