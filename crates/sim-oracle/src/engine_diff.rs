//! Whole-simulation differential replay: one benchmark × mechanism ×
//! machine size, executed twice — once with the runtime sanitizer and
//! the mem-hier accounting cross-checks enabled, once without — with the
//! reports diffed field by field.
//!
//! The sanitized run audits the engine's internal invariants along the
//! way (its first violation panics with a state dump). The diff is the
//! report-identity check on top: observing a simulation must never
//! perturb it, so every statistic of the unsanitized run must equal the
//! sanitized one.

use crate::case::EngineCase;
use crate::diff::Divergence;
use gpu_sim::{GpuConfig, SimReport};
use orchestrated_tlb::Mechanism;
use workloads::format::{file_hash, TraceSource};
use workloads::{registry, Scale};

fn setup_error(what: String) -> Divergence {
    Divergence {
        op_index: None,
        field: "setup".to_owned(),
        expected: "a replayable engine case".to_owned(),
        actual: what,
    }
}

/// Runs one simulation of the case, with the runtime sanitizer forced
/// on or off.
fn simulate(case: &EngineCase, sanitize: bool) -> Result<SimReport, Divergence> {
    let benches = registry();
    let spec = benches
        .iter()
        .find(|s| s.name == case.bench)
        .cloned()
        .ok_or_else(|| setup_error(format!("unknown benchmark {:?}", case.bench)))?;
    let mechanism = Mechanism::all()
        .into_iter()
        .find(|m| m.label() == case.mechanism)
        .ok_or_else(|| setup_error(format!("unknown mechanism {:?}", case.mechanism)))?;
    let config = GpuConfig {
        num_sms: case.sms.max(1),
        ..GpuConfig::dac23_baseline()
    };
    let mut sim = mechanism.simulator(config).with_sanitizer(sanitize);
    // A co-run case replays an app-interleaved mix of address spaces:
    // each named app is generated at the case seed and gets its own
    // ASID. Trace streaming does not apply — the merged TB stream is
    // regenerated from names + seed, which pins it just as hard.
    if case.apps.len() >= 2 {
        if case.trace.is_some() {
            return Err(setup_error("co-run cases cannot stream a trace".to_owned()));
        }
        let apps = case
            .apps
            .iter()
            .map(|name| {
                benches
                    .iter()
                    .find(|s| s.name == *name)
                    .map(|s| s.generate(Scale::Test, case.seed))
                    .ok_or_else(|| setup_error(format!("unknown co-run app {name:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(sim.run_corun(apps));
    }
    // A trace reference pins the replay input by content hash: refuse
    // to run (as a setup divergence) rather than silently diverge
    // against different bytes, and stream from the file on a match.
    if let Some(t) = &case.trace {
        let path = std::path::Path::new(&t.path);
        let actual = file_hash(path)
            .map_err(|e| setup_error(format!("trace file {}: {e}", t.path)))?;
        if actual != t.hash {
            return Err(setup_error(format!(
                "trace file {} hash {actual:016x} does not match recorded {:016x}",
                t.path, t.hash
            )));
        }
        let source = TraceSource::open(path)
            .map_err(|e| setup_error(format!("trace file {}: {e}", t.path)))?;
        return sim
            .run_source(source)
            .map_err(|e| setup_error(format!("trace replay of {}: {e}", t.path)));
    }
    let workload = spec.generate(Scale::Test, case.seed);
    Ok(sim.run(workload))
}

/// Diffs `other` against the `reference` report; `tag` labels the
/// replay configuration in the divergence's field name.
fn diff_reports(reference: &SimReport, other: &SimReport, tag: &str) -> Option<Divergence> {
    let diff = |field: String, expected: String, actual: String| {
        Some(Divergence {
            op_index: None,
            field,
            expected,
            actual,
        })
    };
    if reference.total_cycles != other.total_cycles {
        return diff(
            format!("total-cycles@{tag}"),
            reference.total_cycles.to_string(),
            other.total_cycles.to_string(),
        );
    }
    for (sm, (a, b)) in reference.l1_tlb.iter().zip(&other.l1_tlb).enumerate() {
        if a != b {
            return diff(
                format!("l1-tlb[{sm}]@{tag}"),
                format!("{a:?}"),
                format!("{b:?}"),
            );
        }
    }
    if reference.l2_tlb != other.l2_tlb {
        return diff(
            format!("l2-tlb@{tag}"),
            format!("{:?}", reference.l2_tlb),
            format!("{:?}", other.l2_tlb),
        );
    }
    if reference.per_app.len() != other.per_app.len() {
        return diff(
            format!("per-app-count@{tag}"),
            reference.per_app.len().to_string(),
            other.per_app.len().to_string(),
        );
    }
    for (k, (a, b)) in reference.per_app.iter().zip(&other.per_app).enumerate() {
        if a != b {
            return diff(
                format!("per-app[{k}]@{tag}"),
                format!("{a:?}"),
                format!("{b:?}"),
            );
        }
    }
    // The CSV row folds in every remaining aggregate (walks, per-stage
    // latency attribution, ...): one comparison covers them all.
    let (a, b) = (reference.to_csv_row(), other.to_csv_row());
    if a != b {
        return diff(format!("csv-row@{tag}"), a, b);
    }
    None
}

/// Replays the case sanitized and unsanitized and returns the first
/// report field where the two disagree (or a setup divergence when the
/// case cannot be replayed at all).
pub fn run_engine(case: &EngineCase) -> Option<Divergence> {
    let sanitized = match simulate(case, true) {
        Ok(r) => r,
        Err(d) => return Some(d),
    };
    let unsanitized = match simulate(case, false) {
        Ok(r) => r,
        Err(d) => return Some(d),
    };
    diff_reports(&sanitized, &unsanitized, "unsanitized")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_does_not_perturb_a_small_case() {
        let case = EngineCase {
            bench: "gemm".to_owned(),
            apps: Vec::new(),
            mechanism: "sched+part+share".to_owned(),
            sms: 2,
            seed: 11,
            trace: None,
        };
        assert_eq!(run_engine(&case), None);
    }

    /// A co-run engine case (two address spaces, MASK fill tokens so
    /// the token gate sits on the replayed path) passes every sanitizer
    /// check and reports identically with the sanitizer off.
    #[test]
    fn corun_cases_are_sanitizer_invariant() {
        let case = EngineCase {
            bench: "gemm".to_owned(),
            apps: vec!["gemm".to_owned(), "bfs".to_owned()],
            mechanism: "ours+mask-tokens".to_owned(),
            sms: 2,
            seed: 11,
            trace: None,
        };
        assert_eq!(run_engine(&case), None);
    }

    #[test]
    fn corun_cases_refuse_unknown_apps_and_trace_refs() {
        use crate::case::TraceRef;

        let case = EngineCase {
            bench: "gemm".to_owned(),
            apps: vec!["gemm".to_owned(), "no-such-app".to_owned()],
            mechanism: "baseline".to_owned(),
            sms: 2,
            seed: 0,
            trace: None,
        };
        let d = run_engine(&case).expect("must not replay");
        assert_eq!(d.field, "setup");
        assert!(d.actual.contains("no-such-app"), "{d}");

        let with_trace = EngineCase {
            apps: vec!["gemm".to_owned(), "bfs".to_owned()],
            trace: Some(TraceRef { hash: 0, path: "x.trace".to_owned() }),
            ..case
        };
        let d = run_engine(&with_trace).expect("must not replay");
        assert_eq!(d.field, "setup");
        assert!(d.actual.contains("cannot stream"), "{d}");
    }

    #[test]
    fn unknown_names_become_setup_divergences() {
        let case = EngineCase {
            bench: "no-such-bench".to_owned(),
            apps: Vec::new(),
            mechanism: "baseline".to_owned(),
            sms: 2,
            seed: 0,
            trace: None,
        };
        let d = run_engine(&case).expect("must not replay");
        assert_eq!(d.field, "setup");
    }

    #[test]
    fn trace_backed_cases_replay_and_verify_their_hash() {
        use crate::case::TraceRef;

        let spec = registry().into_iter().find(|s| s.name == "gemm").unwrap();
        let workload = spec.generate(Scale::Test, 11);
        let path = std::env::temp_dir()
            .join(format!("oracle-engine-{}.trace", std::process::id()));
        workloads::format::write_workload(&path, &workload, "gemm", Some(Scale::Test), 11)
            .unwrap();
        let hash = file_hash(&path).unwrap();

        // The streamed replay is sanitizer-invariant like the generated
        // one.
        let case = EngineCase {
            bench: "gemm".to_owned(),
            apps: Vec::new(),
            mechanism: "sched+part+share".to_owned(),
            sms: 2,
            seed: 11,
            trace: Some(TraceRef {
                hash,
                path: path.display().to_string(),
            }),
        };
        assert_eq!(run_engine(&case), None);

        // A wrong hash is a refusal, not a replay of the wrong bytes.
        let tampered = EngineCase {
            trace: Some(TraceRef {
                hash: hash ^ 1,
                path: path.display().to_string(),
            }),
            ..case
        };
        let d = run_engine(&tampered).expect("hash mismatch must not replay");
        assert_eq!(d.field, "setup");
        assert!(d.actual.contains("does not match"), "{d}");

        std::fs::remove_file(&path).unwrap();
    }
}
