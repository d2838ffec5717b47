//! Multi-application co-runs: merging several workloads into one
//! app-interleaved launch over concurrent address spaces.
//!
//! The paper's motivation is multi-tenancy: co-running applications
//! thrash the shared L2 TLB and each other's walkers. This module makes
//! that a first-class scenario: [`merge_apps`] flattens each app's
//! kernel sequence into a per-app TB stream, tags every TB with its
//! app's [`Asid`], and interleaves the streams round-robin into one
//! merged launch. The engine dispatches the merged stream in order, so
//! the interleaving *is* the app-level TB schedule; per-SM TB placement
//! stays with the configured [`crate::TbScheduler`].
//!
//! Modeling choices (documented in DESIGN.md §"Multi-tenant co-runs"):
//!
//! * Each app's kernels are flattened into one stream — TB dispatch
//!   order within an app preserves kernel order, but there is no
//!   inter-kernel barrier and no per-kernel L1 TLB flush inside a
//!   co-run. Solo baselines for slowdown figures therefore come from
//!   1-app co-runs through this same path, so numerator and
//!   denominator share semantics.
//! * An app's completion cycle is the completion of its last warp
//!   (the max over its warps' completion cycles).
//!
//! Fairness metrics follow the multi-program scheduling literature:
//! per-app slowdown vs. solo, Jain's fairness index over per-app
//! normalized progress, and system throughput (the sum of normalized
//! progress, a.k.a. weighted speedup).

use vmem::{AddressSpace, Asid};
use workloads::{KernelTrace, Workload};

/// One merged co-run: the interleaved TB stream, the per-TB ASIDs, and
/// each app's address space (indexed by ASID).
pub(crate) struct MergedApps {
    /// Combined name, `a+b+c` in app order.
    pub(crate) name: String,
    /// Per-app names in ASID order.
    pub(crate) app_names: Vec<String>,
    /// The merged launch (all apps' TBs, round-robin interleaved).
    pub(crate) kernel: KernelTrace,
    /// Owning ASID of each merged TB.
    pub(crate) asids: Vec<Asid>,
    /// Per-app address spaces, indexed by `Asid::index`.
    pub(crate) spaces: Vec<AddressSpace>,
}

/// Merges 1–[`Asid::MAX_ASIDS`] workloads into an app-interleaved
/// co-run.
///
/// # Panics
///
/// Panics if `apps` is empty, exceeds the ASID budget, or the apps
/// disagree on page size (one shared walker pool serves every space).
pub(crate) fn merge_apps(apps: Vec<Workload>) -> MergedApps {
    assert!(!apps.is_empty(), "a co-run needs at least one app");
    assert!(
        apps.len() <= Asid::MAX_ASIDS as usize,
        "co-run of {} apps exceeds the ASID budget",
        apps.len()
    );
    let mut app_names = Vec::with_capacity(apps.len());
    let mut spaces = Vec::with_capacity(apps.len());
    // Per-app flattened TB streams (kernel order preserved within an
    // app).
    let mut streams: Vec<std::vec::IntoIter<workloads::TbTrace>> = Vec::with_capacity(apps.len());
    let mut threads_per_tb = 1u32;
    let mut max_concurrent = u8::MAX;
    for workload in apps {
        let (name, kernels, space) = workload.into_parts();
        assert_eq!(
            space.page_size(),
            spaces.first().map_or(space.page_size(), AddressSpace::page_size),
            "co-running apps must share a page size"
        );
        let mut tbs = Vec::new();
        for k in kernels.iter() {
            threads_per_tb = threads_per_tb.max(k.threads_per_tb);
            max_concurrent = max_concurrent.min(k.max_concurrent_tbs_per_sm.max(1));
            // TB clones share warp-op storage (`Arc`), so this is a
            // pointer copy per warp, not a trace copy.
            tbs.extend(k.tbs.iter().cloned());
        }
        app_names.push(name);
        spaces.push(space);
        streams.push(tbs.into_iter());
    }

    // Round-robin interleave: one TB per app per turn, skipping
    // exhausted apps, so short apps finish dispatching early while long
    // apps keep the machine fed.
    let total: usize = streams.iter().map(ExactSizeIterator::len).sum();
    let mut tbs = Vec::with_capacity(total);
    let mut asids = Vec::with_capacity(total);
    while tbs.len() < total {
        for (app, stream) in streams.iter_mut().enumerate() {
            if let Some(tb) = stream.next() {
                tbs.push(tb);
                asids.push(Asid::new(app as u16));
            }
        }
    }

    let name = app_names.join("+");
    let kernel = KernelTrace {
        name: name.clone(),
        tbs,
        max_concurrent_tbs_per_sm: max_concurrent,
        threads_per_tb,
    };
    MergedApps {
        name,
        app_names,
        kernel,
        asids,
        spaces,
    }
}

/// Jain's fairness index over per-app normalized progress values
/// (`1/slowdown` each): `(Σx)² / (n·Σx²)`. 1.0 means perfectly equal
/// progress; `1/n` means one app monopolized the machine. Empty input
/// yields 1.0 (a solo run is trivially fair).
pub fn jain_fairness(progress: &[f64]) -> f64 {
    if progress.is_empty() {
        return 1.0;
    }
    let sum: f64 = progress.iter().sum();
    let sq: f64 = progress.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (progress.len() as f64 * sq)
}

/// System throughput (weighted speedup): the sum of per-app normalized
/// progress values. `n` for a contention-free co-run of `n` apps, lower
/// as sharing hurts.
pub fn system_throughput(progress: &[f64]) -> f64 {
    progress.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{registry, Scale};

    fn app(name: &str) -> Workload {
        registry()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
            .generate(Scale::Test, 42)
    }

    #[test]
    fn merge_interleaves_round_robin() {
        let m = merge_apps(vec![app("gemm"), app("bfs")]);
        assert_eq!(m.app_names, vec!["gemm", "bfs"]);
        assert_eq!(m.name, "gemm+bfs");
        assert_eq!(m.spaces.len(), 2);
        assert_eq!(m.kernel.tbs.len(), m.asids.len());
        // Both apps present, and the head of the stream alternates while
        // both still have TBs.
        assert_eq!(m.asids[0], Asid::new(0));
        assert_eq!(m.asids[1], Asid::new(1));
        assert!(m.asids.iter().any(|a| *a == Asid::new(0)));
        assert!(m.asids.iter().any(|a| *a == Asid::new(1)));
    }

    #[test]
    fn merge_preserves_every_tb() {
        let (gemm_tbs, bfs_tbs) = {
            let count = |w: Workload| -> usize {
                let (_, kernels, _) = w.into_parts();
                kernels.iter().map(|k| k.tbs.len()).sum()
            };
            (count(app("gemm")), count(app("bfs")))
        };
        let m = merge_apps(vec![app("gemm"), app("bfs")]);
        assert_eq!(m.kernel.tbs.len(), gemm_tbs + bfs_tbs);
        let app0 = m.asids.iter().filter(|a| **a == Asid::new(0)).count();
        assert_eq!(app0, gemm_tbs);
    }

    #[test]
    fn short_app_exhausts_without_stalling_long_app() {
        let m = merge_apps(vec![app("gemm"), app("bicg")]);
        // After the shorter stream runs dry the tail must be entirely
        // the longer app — no gaps, no repeats.
        let total = m.asids.len();
        let tail_owner = m.asids[total - 1];
        let first_tail = m.asids.iter().rposition(|a| *a != tail_owner).unwrap();
        assert!(m.asids[first_tail + 1..].iter().all(|a| *a == tail_owner));
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_fairness(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One app starved: index collapses toward 1/n.
        let skew = jain_fairness(&[1.0, 0.0]);
        assert!((skew - 0.5).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
    }

    #[test]
    fn system_throughput_sums_progress() {
        assert!((system_throughput(&[0.5, 0.75]) - 1.25).abs() < 1e-12);
    }
}
