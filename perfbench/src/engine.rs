//! The `engine-large` workload: five long simulations at `Scale::Large`,
//! each streamed from a `trace/v1` file that set-up generated, wrote and
//! verified. Each simulation is serial; a 2-job grid runs two at a time,
//! so the benchmark keeps both host cores busy with its own work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::Grid;
use gpu_sim::GpuConfig;
use orchestrated_tlb::Mechanism;
use workloads::format::write_workload;
use workloads::{registry, Scale, TraceReader, TraceSource, Workload};

use crate::checks::{check_report, Counters, Gate};
use crate::grids::{Cell, Iteration, JOBS};
use crate::spans::{SpanId, Tracer};

/// `(name, benchmark, mechanism)`: each dominated by a different layer.
pub const SCENARIOS: [(&str, &str, Mechanism); 5] = [
    ("gemm-baseline", "gemm", Mechanism::Baseline),
    ("bfs-baseline", "bfs", Mechanism::Baseline),
    ("bfs-full", "bfs", Mechanism::Full),
    ("mvt-full", "mvt", Mechanism::Full),
    ("mvt-compression", "mvt", Mechanism::Compression),
];

/// The benchmarks the scenarios replay, each generated once per set-up.
pub const BENCHES: [&str; 3] = ["gemm", "bfs", "mvt"];

/// [`SCENARIOS`] indices in the order the grid takes them: longest
/// first, so the two workers finish together and no simulation runs
/// alone at the end of an iteration.
const GRID_ORDER: [usize; 5] = [2, 1, 0, 4, 3];

/// What set-up leaves for the timed region: the generated workloads (for
/// the in-memory reference runs) and their verified trace files.
pub struct Prepared {
    pub workloads: BTreeMap<&'static str, Workload>,
    pub files: BTreeMap<&'static str, PathBuf>,
    pub bytes: u64,
}

/// Generates each benchmark at `scale`, writes it to a `trace/v1` file
/// in `dir` and verifies the file. Failures are recorded in `gate`.
pub fn setup(
    tracer: &Tracer,
    root: SpanId,
    dir: &Path,
    scale: Scale,
    seed: u64,
    gate: &mut Gate,
) -> Prepared {
    let specs = registry();
    let mut prepared = Prepared {
        workloads: BTreeMap::new(),
        files: BTreeMap::new(),
        bytes: 0,
    };
    for name in BENCHES {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .expect("engine-large benchmark is in the registry");
        let wl = tracer.time("workloads.generate", root, |_| spec.generate(scale, seed));
        let path = dir.join(format!("{name}-{scale}-{seed}.trace"));
        let written = tracer.time("workloads.trace_write", root, |_| {
            write_workload(&path, &wl, name, Some(scale), seed)
        });
        gate.record(
            &format!("trace write {name}"),
            written.map(|_| ()).map_err(|e| e.to_string()),
        );
        let verified = tracer.time("workloads.trace_verify", root, |_| {
            TraceReader::open(&path).and_then(|r| r.verify())
        });
        gate.record(
            &format!("trace verify {name}"),
            verified.map_err(|e| e.to_string()),
        );
        prepared.bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        prepared.workloads.insert(name, wl);
        prepared.files.insert(name, path);
    }
    prepared
}

/// One timed iteration: every scenario streamed from its trace file, on
/// a 2-job grid. Cells are returned in [`SCENARIOS`] order.
pub fn iteration(tracer: &Tracer, root: SpanId, prepared: &Prepared) -> Iteration {
    let start = Instant::now();
    let mut cells = Grid::new(JOBS).map(&GRID_ORDER, |&i| {
        let (label, bench, mechanism) = SCENARIOS[i];
        let t = Instant::now();
        let report = tracer
            .time("workloads.open", root, |_| {
                TraceSource::open(&prepared.files[bench])
            })
            .and_then(|source| {
                let mut sim = tracer.time("gpu_sim.construct", root, |_| {
                    mechanism.simulator(GpuConfig::dac23_baseline())
                });
                tracer.time(&format!("gpu_sim.run.{label}"), root, |_| {
                    sim.run_source(source)
                })
            });
        let secs = t.elapsed().as_secs_f64();
        let cell = match report {
            Ok(r) => Cell {
                key: label.to_owned(),
                secs,
                counters: Some(Counters::of(&r)),
                check: check_report(&r),
            },
            Err(e) => Cell {
                key: label.to_owned(),
                secs,
                counters: None,
                check: Err(format!("streamed replay: {e}")),
            },
        };
        (i, cell)
    });
    cells.sort_by_key(|&(i, _)| i);
    Iteration {
        wall_s: start.elapsed().as_secs_f64(),
        cells: cells.into_iter().map(|(_, cell)| cell).collect(),
        ..Iteration::default()
    }
}

/// Each scenario's in-memory run must report exactly the counters of
/// its streamed replay (`streamed`, keyed by scenario).
pub fn check_against_memory(
    prepared: &Prepared,
    streamed: &BTreeMap<String, Counters>,
    gate: &mut Gate,
) {
    let reports = Grid::new(JOBS).map(&SCENARIOS, |&(_, bench, mechanism)| {
        mechanism
            .simulator(GpuConfig::dac23_baseline())
            .run(prepared.workloads[bench].clone())
    });
    for ((label, _, _), report) in SCENARIOS.iter().zip(reports) {
        let outcome = match streamed.get(*label) {
            Some(c) if *c == Counters::of(&report) => Ok(()),
            Some(c) => Err(format!(
                "streamed total_cycles {} vs in-memory {} (counters {c:?})",
                c.total_cycles, report.total_cycles
            )),
            None => Err("no streamed replay to compare".into()),
        };
        gate.record(&format!("{label} streamed == in-memory"), outcome);
    }
}

/// Decodes every trace file through `TraceReader::stream_kernel` without
/// simulating. Returns `(seconds, TBs decoded)`.
pub fn decode_only(prepared: &Prepared, gate: &mut Gate) -> (f64, u64) {
    let start = Instant::now();
    let mut tbs = 0u64;
    for (name, path) in &prepared.files {
        let decoded = TraceReader::open(path).and_then(|reader| {
            for k in 0..reader.kernels().len() {
                let mut stream = reader.stream_kernel(k)?;
                while let Some(tb) = stream.next_tb()? {
                    tbs += 1;
                    std::hint::black_box(tb);
                }
            }
            Ok(())
        });
        gate.record(
            &format!("trace decode {name}"),
            decoded.map_err(|e| e.to_string()),
        );
    }
    (start.elapsed().as_secs_f64(), tbs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_a_permutation_of_the_scenarios() {
        let mut order = GRID_ORDER;
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn streamed_scenarios_match_memory_at_test_scale() {
        let dir = std::env::temp_dir().join(format!("perfbench-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tracer = Tracer::new(false);
        let mut gate = Gate::default();
        let prepared = setup(&tracer, SpanId::NONE, &dir, Scale::Test, 42, &mut gate);
        assert!(prepared.bytes > 0);
        let it = iteration(&tracer, SpanId::NONE, &prepared);
        let keys: Vec<&str> = it.cells.iter().map(|c| c.key.as_str()).collect();
        let labels: Vec<&str> = SCENARIOS.iter().map(|s| s.0).collect();
        assert_eq!(keys, labels);
        let streamed = it
            .cells
            .iter()
            .map(|c| (c.key.clone(), c.counters.clone().unwrap()))
            .collect();
        check_against_memory(&prepared, &streamed, &mut gate);
        let (_, tbs) = decode_only(&prepared, &mut gate);
        assert!(tbs > 0);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(gate.failures, Vec::<String>::new());
        assert_eq!(gate.attempted, 2 * 3 + 5 + 3);
    }
}
