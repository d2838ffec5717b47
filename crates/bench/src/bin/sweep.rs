//! `sweep` — architectural sensitivity sweeps around the Table III
//! baseline, printed as CSV.
//!
//! ```text
//! sweep --param l1-entries|l2-entries|walkers|walk-latency|l2-ports|
//!               l2-port-occupancy|l2-slices|sms
//!       [--scale test|small|paper] [--bench <name>]...
//!       [--mechanism full|baseline] [--jobs N]
//!       [--sanitize] [--trace-cache DIR] [--trace FILE]...
//! ```
//!
//! `--jobs N` runs up to `N` sweep cells (parameter value × benchmark)
//! in parallel; the default is the machine's available parallelism and
//! the CSV rows come out in the same order for every `N`.
//!
//! `--sanitize` turns on the engine's runtime invariant checks (see
//! `gpu_sim::sanitize`) for every cell; the first violation aborts with
//! a state dump. The CSV is unchanged when no violation fires.
//!
//! `--trace-cache DIR` backs the sweep's workload cache with an on-disk
//! `trace/v1` directory and `--trace FILE` preloads specific trace
//! files (see `repro` / `trace-gen`); the CSV is byte-identical to the
//! in-memory run either way.
//!
//! Example: how sensitive is the proposal's win to the number of
//! page-table walkers?
//!
//! ```text
//! cargo run --release -p bench --bin sweep -- --param walkers --bench atax
//! ```

use bench::{Grid, SEED};
use gpu_sim::GpuConfig;
use orchestrated_tlb::{run_benchmark_cached, Mechanism};
use tlb::TlbConfig;
use workloads::{registry, BenchmarkSpec, Scale};

/// One sweepable parameter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Param {
    L1Entries,
    L2Entries,
    Walkers,
    WalkLatency,
    L2Ports,
    L2PortOccupancy,
    L2Slices,
    Sms,
}

impl Param {
    fn parse(s: &str) -> Option<Param> {
        Some(match s {
            "l1-entries" => Param::L1Entries,
            "l2-entries" => Param::L2Entries,
            "walkers" => Param::Walkers,
            "walk-latency" => Param::WalkLatency,
            "l2-ports" => Param::L2Ports,
            "l2-port-occupancy" => Param::L2PortOccupancy,
            "l2-slices" => Param::L2Slices,
            "sms" => Param::Sms,
            _ => return None,
        })
    }

    fn values(self) -> Vec<u64> {
        match self {
            Param::L1Entries => vec![16, 32, 64, 128, 256],
            Param::L2Entries => vec![128, 256, 512, 1024, 2048],
            Param::Walkers => vec![1, 2, 4, 8, 16, 32],
            Param::WalkLatency => vec![100, 250, 500, 1000, 2000],
            Param::L2Ports => vec![1, 2, 4, 8],
            // 1 = pipelined baseline; 10 = a port held for the full
            // lookup latency (unpipelined L2 TLB).
            Param::L2PortOccupancy => vec![1, 2, 5, 10],
            Param::L2Slices => vec![1, 2, 4, 8, 16],
            Param::Sms => vec![4, 8, 16, 32],
        }
    }

    fn apply(self, value: u64) -> GpuConfig {
        let base = GpuConfig::dac23_baseline();
        match self {
            Param::L1Entries => base.with_l1_tlb(TlbConfig::new(value as usize, 4, 1)),
            Param::L2Entries => GpuConfig {
                l2_tlb: TlbConfig::new(value as usize, 16, 10),
                ..base
            },
            Param::Walkers => GpuConfig {
                walkers: value as usize,
                ..base
            },
            Param::WalkLatency => GpuConfig {
                walk_latency: value,
                ..base
            },
            Param::L2Ports => GpuConfig {
                l2_tlb_ports: value as usize,
                ..base
            },
            Param::L2PortOccupancy => GpuConfig {
                l2_tlb_port_occupancy: value,
                ..base
            },
            Param::L2Slices => GpuConfig {
                l2_tlb_slices: value as usize,
                ..base
            },
            Param::Sms => GpuConfig {
                num_sms: value as usize,
                ..base
            },
        }
    }

    fn name(self) -> &'static str {
        match self {
            Param::L1Entries => "l1_entries",
            Param::L2Entries => "l2_entries",
            Param::Walkers => "walkers",
            Param::WalkLatency => "walk_latency",
            Param::L2Ports => "l2_ports",
            Param::L2PortOccupancy => "l2_port_occupancy",
            Param::L2Slices => "l2_slices",
            Param::Sms => "sms",
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut param = None;
    let mut scale = Scale::Small;
    let mut only: Vec<String> = Vec::new();
    let mut mechanism = Mechanism::Full;
    let mut jobs = 0usize; // 0 = available parallelism
    let mut trace_cache: Option<String> = None;
    let mut traces: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sanitize" => gpu_sim::set_sanitize(true),
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
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--param" => {
                i += 1;
                param = args.get(i).and_then(|s| Param::parse(s));
                if param.is_none() {
                    eprintln!(
                        "--param must be one of l1-entries|l2-entries|walkers|walk-latency|l2-ports|l2-port-occupancy|l2-slices|sms"
                    );
                    std::process::exit(2);
                }
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    Some("large") => Scale::Large,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--bench" => {
                i += 1;
                if let Some(name) = args.get(i) {
                    only.push(name.clone());
                }
            }
            "--mechanism" => {
                i += 1;
                mechanism = match args.get(i).map(String::as_str) {
                    Some("full") => Mechanism::Full,
                    Some("baseline") => Mechanism::Baseline,
                    Some("sched") => Mechanism::Scheduling,
                    Some("sched+part") => Mechanism::SchedPartition,
                    other => {
                        eprintln!("unknown mechanism {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(param) = param else {
        eprintln!("--param is required");
        std::process::exit(2);
    };
    for &value in &param.values() {
        bench::exit_if_invalid(&param.apply(value));
    }
    let mut specs: Vec<BenchmarkSpec> = registry();
    if !only.is_empty() {
        specs.retain(|s| only.iter().any(|n| n == s.name));
    }
    if specs.is_empty() {
        eprintln!("no benchmark selected");
        std::process::exit(2);
    }

    println!(concat!(
        "param,value,bench,mechanism,cycles,l1_tlb_hit_rate,l2_tlb_hit_rate,walks,walker_wait,",
        "walker_coalesced,walker_max_queue_wait,translations,l1_tlb_cycles,icnt_cycles,",
        "l2_tlb_queue_cycles,l2_tlb_lookup_cycles,walk_cycles,fault_cycles,translate_cycles"
    ));
    // One sweep cell per parameter value × benchmark; the grid preserves
    // cell order, so the CSV comes out value-major like the serial loop.
    let cache = std::sync::Arc::new(match &trace_cache {
        Some(dir) => workloads::WorkloadCache::with_disk(dir),
        None => workloads::WorkloadCache::new(),
    });
    for file in &traces {
        if let Err(e) = cache.preload_trace(std::path::Path::new(file)) {
            eprintln!("--trace {file}: {e}");
            std::process::exit(2);
        }
    }
    let grid = Grid::with_cache(jobs, cache);
    let cells: Vec<(u64, usize)> = param
        .values()
        .iter()
        .flat_map(|&value| (0..specs.len()).map(move |i| (value, i)))
        .collect();
    let rows = grid.map(&cells, |&(value, i)| {
        let spec = &specs[i];
        let r = run_benchmark_cached(
            grid.cache(),
            spec,
            scale,
            SEED,
            mechanism,
            param.apply(value),
        );
        format!(
            "{},{},{},{},{},{:.6},{:.6},{},{},{},{},{},{},{},{},{},{},{},{}",
            param.name(),
            value,
            spec.name,
            mechanism.label(),
            r.total_cycles,
            r.l1_tlb_hit_rate(),
            r.l2_tlb.hit_rate(),
            r.walker.walks,
            r.walker.queue_wait_cycles,
            r.walker.coalesced,
            r.walker.max_queue_wait,
            r.latency.translations,
            r.latency.l1_tlb_cycles,
            r.latency.icnt_cycles,
            r.latency.l2_tlb_queue_cycles,
            r.latency.l2_tlb_lookup_cycles,
            r.latency.walk_cycles,
            r.latency.fault_cycles,
            r.latency.end_to_end_cycles
        )
    });
    for row in rows {
        println!("{row}");
    }
}
