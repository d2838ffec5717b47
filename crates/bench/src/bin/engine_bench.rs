//! `engine-bench` — machine-readable throughput report for the
//! cycle engine, written as `BENCH_engine.json`.
//!
//! ```text
//! engine-bench [--out PATH] [--reps N] [--scale S]
//!              [--trace-cache DIR] [--trace FILE]...
//! ```
//!
//! Runs the scenarios of the `simulator_throughput` criterion bench
//! (gemm/bfs/atax under the baseline, plus mvt under the heavier L1 TLB
//! organizations) and bfs under `sched+part+share`, the partitioned L1
//! TLB's heaviest user, and records the best wall time over `--reps`
//! repetitions (default 3) as simulated cycles per second. `--scale
//! large` generates engine-throughput-sized inputs (seconds of
//! simulation per run) — the configuration the throughput numbers in
//! EXPERIMENTS.md are measured at; the `test` default keeps the CI smoke
//! fast.
//!
//! Wall-clock time is banned in the simulator proper (simlint
//! `wall-clock`): simulated timing must never depend on the host. This
//! binary is the one sanctioned consumer — it *measures* the host, it
//! never feeds the measurement back into a simulation.
//!
//! Schema (`"schema": "bench-engine/v3"` — one serial measurement per
//! scenario; v2's per-thread-count `runs` list is gone):
//!
//! ```json
//! {
//!   "schema": "bench-engine/v3",
//!   "scale": "test",
//!   "host_cores": 8,
//!   "reps": 3,
//!   "scenarios": [
//!     {
//!       "bench": "gemm", "mechanism": "baseline", "scale": "test",
//!       "total_cycles": 12345, "best_seconds": 0.01,
//!       "cycles_per_sec": 1234500.0
//!     }
//!   ]
//! }
//! ```
//!
//! `host_cores` is the host's available parallelism at measurement
//! time, recorded so numbers from different hosts are not compared
//! blindly.
//!
//! `--trace-cache DIR` / `--trace FILE` replay each rep by streaming a
//! `trace/v1` file instead of cloning the in-RAM workload. Wall times
//! then include trace decode, which is the honest cost of the streaming
//! pipeline.

use std::fmt::Write as _;
// simlint: allow(wall-clock, reason = "engine-bench measures host throughput; nothing flows back into simulated timing")
use std::time::Instant;

use bench::SEED;
use gpu_sim::GpuConfig;
use orchestrated_tlb::Mechanism;
use workloads::{registry, BenchmarkSpec, Scale, WorkloadCache};

/// The scenarios of the `simulator_throughput` criterion groups, plus
/// bfs under the paper's full design.
const SCENARIOS: [(&str, Mechanism); 7] = [
    ("gemm", Mechanism::Baseline),
    ("bfs", Mechanism::Baseline),
    ("atax", Mechanism::Baseline),
    ("mvt", Mechanism::Baseline),
    ("mvt", Mechanism::Full),
    ("mvt", Mechanism::Compression),
    ("bfs", Mechanism::Full),
];

/// One timed scenario: best wall time over `reps`, plus the simulated
/// cycle count (identical across reps by determinism). Each rep pulls a fresh
/// [`workloads::TraceSource`] from the cache — a clone of the shared
/// in-RAM workload for a memory cache, a freshly opened streaming reader
/// for a disk-backed one — so the timed region covers exactly what a
/// grid cell pays.
fn best_of(
    reps: usize,
    config: &GpuConfig,
    mechanism: Mechanism,
    cache: &WorkloadCache,
    spec: &BenchmarkSpec,
    scale: Scale,
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0u64;
    for _ in 0..reps {
        let mut sim = mechanism.simulator(config.clone());
        let input = cache.get_source(spec, scale, SEED);
        // simlint: allow(wall-clock, reason = "engine-bench measures host throughput; nothing flows back into simulated timing")
        let start = Instant::now();
        let report = match sim.run_source(input) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("trace replay of {} failed: {e}", spec.name);
                std::process::exit(1);
            }
        };
        let elapsed = start.elapsed().as_secs_f64();
        best = best.min(elapsed);
        cycles = report.total_cycles;
    }
    (best, cycles)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_engine.json");
    let mut reps = 3usize;
    let mut scale = Scale::Test;
    let mut trace_cache: Option<String> = None;
    let mut traces: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                }
            }
            "--reps" => {
                i += 1;
                reps = match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--reps requires a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(|v| v.as_str()) {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    Some("large") => Scale::Large,
                    other => {
                        eprintln!("unknown scale {other:?} (use test|small|paper|large)");
                        std::process::exit(2);
                    }
                };
            }
            "--trace-cache" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => trace_cache = Some(dir.clone()),
                    None => {
                        eprintln!("--trace-cache requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(file) => traces.push(file.clone()),
                    None => {
                        eprintln!("--trace requires a trace file");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let cache = match &trace_cache {
        Some(dir) => WorkloadCache::with_disk(dir),
        None => WorkloadCache::new(),
    };
    for file in &traces {
        if let Err(e) = cache.preload_trace(std::path::Path::new(file)) {
            eprintln!("--trace {file}: {e}");
            std::process::exit(2);
        }
    }

    let config = GpuConfig::dac23_baseline();
    bench::exit_if_invalid(&config);
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let specs = registry();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"bench-engine/v3\",");
    let _ = writeln!(json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"scenarios\": [");
    for (si, &(name, mechanism)) in SCENARIOS.iter().enumerate() {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("benchmark {name} missing from the registry"));
        eprintln!("engine-bench: {name}/{} at --scale {scale} ...", mechanism.label());

        let (best, cycles) = best_of(reps, &config, mechanism, &cache, spec, scale);
        let sep = if si + 1 < SCENARIOS.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"bench\": \"{name}\",");
        let _ = writeln!(json, "      \"mechanism\": \"{}\",", mechanism.label());
        let _ = writeln!(json, "      \"scale\": \"{scale}\",");
        let _ = writeln!(json, "      \"total_cycles\": {cycles},");
        let _ = writeln!(json, "      \"best_seconds\": {best:.6},");
        let _ = writeln!(
            json,
            "      \"cycles_per_sec\": {:.1}",
            cycles as f64 / best
        );
        let _ = writeln!(json, "    }}{sep}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("engine-bench: wrote {out_path}");
}
