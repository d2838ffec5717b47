//! Synthetic power-law graph generation (CSR).
//!
//! The paper's graph benchmarks use the DIMACS'10 `coPapersCiteseer`
//! citation graph, which is not redistributable here. An R-MAT generator
//! with the usual skewed partition probabilities reproduces the property
//! that drives the paper's observations on graph workloads: highly skewed
//! degree distributions, which create (a) hub pages that are reused
//! intensively and (b) large inter-TB imbalance in memory-access counts.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// R-MAT quadrant probabilities.
///
/// The defaults `(0.57, 0.19, 0.19, 0.05)` are the standard "social
/// network-like" skew used by Graph500.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// The derived bottom-right probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// One R-MAT draw: descends `levels` quadrant levels, choosing each
/// quadrant with probabilities `params`, and returns `(src, dst)`.
///
/// The uniform draw `r` picks the first quadrant whose threshold it is
/// below: `r < a` top-left `(0, 0)`, else `r < a+b` top-right `(0, 1)`,
/// else `r < a+b+c` bottom-left `(1, 0)`, else bottom-right `(1, 1)`.
/// The bits come from the three comparisons combined without branches
/// (random draws would mispredict most of them), which selects exactly
/// what the if-chain selects for any parameters.
fn rmat_pair(rng: &mut SmallRng, levels: u32, params: RmatParams) -> (usize, usize) {
    let (a, ab, abc) = (
        params.a,
        params.a + params.b,
        params.a + params.b + params.c,
    );
    let (mut src, mut dst) = (0usize, 0usize);
    for _ in 0..levels {
        let r: f64 = rng.gen();
        let (lt_a, lt_ab, lt_abc) = (r < a, r < ab, r < abc);
        let sbit = usize::from(!(lt_a | lt_ab));
        let dbit = usize::from(!lt_a & (lt_ab | !lt_abc));
        src = (src << 1) | sbit;
        dst = (dst << 1) | dbit;
    }
    (src, dst)
}

/// A directed graph in compressed sparse row form.
///
/// # Example
///
/// ```
/// use workloads::{CsrGraph, RmatParams};
///
/// let g = CsrGraph::rmat(1 << 10, 8 << 10, RmatParams::default(), 42);
/// assert_eq!(g.num_nodes(), 1 << 10);
/// assert_eq!(g.num_edges(), 8 << 10);
/// let hub = g.max_degree();
/// assert!(hub > 8 * 4, "power-law graphs have hubs: max degree {hub}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `row_ptr[i]..row_ptr[i+1]` indexes node `i`'s neighbors in
    /// `col_idx`. Length `num_nodes + 1`.
    row_ptr: Vec<u32>,
    /// Flattened adjacency lists.
    col_idx: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_edge_stream(num_nodes, || edges.iter().copied())
    }

    /// Builds a CSR graph from an edge sequence without holding it:
    /// `edges` is called twice and must yield the same sequence both
    /// times. The first pass counts out-degrees, the second places each
    /// destination, so a source's neighbours keep their sequence order,
    /// exactly as [`CsrGraph::from_edges`] on the collected list. A
    /// generator replayed from its seed never materializes the edge list,
    /// twice the size of `col_idx`.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    fn from_edge_stream<I: Iterator<Item = (u32, u32)>>(
        num_nodes: usize,
        edges: impl Fn() -> I,
    ) -> Self {
        let mut degree = vec![0u32; num_nodes];
        let mut num_edges = 0usize;
        for (s, d) in edges() {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "edge ({s}, {d}) out of range for {num_nodes} nodes"
            );
            degree[s as usize] += 1;
            num_edges += 1;
        }
        let mut row_ptr = vec![0u32; num_nodes + 1];
        for i in 0..num_nodes {
            row_ptr[i + 1] = row_ptr[i] + degree[i];
        }
        // Reuse the degree array as the per-source fill cursor.
        let mut cursor = degree;
        cursor.copy_from_slice(&row_ptr[..num_nodes]);
        let mut col_idx = vec![0u32; num_edges];
        for (s, d) in edges() {
            col_idx[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        }
        CsrGraph { row_ptr, col_idx }
    }

    /// Generates an R-MAT graph with `num_nodes` (rounded up to a power of
    /// two internally) and exactly `num_edges` directed edges,
    /// deterministically from `seed`.
    pub fn rmat(num_nodes: usize, num_edges: usize, params: RmatParams, seed: u64) -> Self {
        assert!(num_nodes > 1, "graph needs at least two nodes");
        let levels = usize::BITS - (num_nodes - 1).leading_zeros();
        Self::from_edge_stream(num_nodes, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            std::iter::from_fn(move || loop {
                let (src, dst) = rmat_pair(&mut rng, levels, params);
                if src < num_nodes && dst < num_nodes && src != dst {
                    return Some((src as u32, dst as u32));
                }
            })
            .take(num_edges)
        })
    }

    /// Generates a *clustered* power-law graph: like [`CsrGraph::rmat`]
    /// but most destination endpoints are drawn from a window around the
    /// source node, as in citation graphs whose node ordering follows
    /// publication clusters (the DIMACS `coPapersCiteseer` input the paper
    /// uses is such a graph). The remaining edges keep the R-MAT
    /// destination, preserving skewed in-degree hubs.
    ///
    /// `locality` is the fraction of edges rewired into the ±`window`
    /// neighbourhood of their source.
    pub fn clustered_rmat(
        num_nodes: usize,
        num_edges: usize,
        params: RmatParams,
        locality: f64,
        window: usize,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&locality), "locality must be in [0,1]");
        assert!(num_nodes > 1, "graph needs at least two nodes");
        let levels = usize::BITS - (num_nodes - 1).leading_zeros();
        let window = window.max(1);
        Self::from_edge_stream(num_nodes, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            std::iter::from_fn(move || loop {
                let (src, mut dst) = rmat_pair(&mut rng, levels, params);
                if src >= num_nodes {
                    continue;
                }
                if rng.gen::<f64>() < locality {
                    // Rewire into the source's cluster window.
                    let delta = rng.gen_range(0..=2 * window) as i64 - window as i64;
                    let local = (src as i64 + delta).rem_euclid(num_nodes as i64) as usize;
                    dst = local;
                }
                if dst < num_nodes && src != dst {
                    return Some((src as u32, dst as u32));
                }
            })
            .take(num_edges)
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: u32) -> usize {
        let n = node as usize;
        (self.row_ptr[n + 1] - self.row_ptr[n]) as usize
    }

    /// Neighbors of `node`.
    pub fn neighbors(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.col_idx[self.row_ptr[n] as usize..self.row_ptr[n + 1] as usize]
    }

    /// The row-pointer array (for address generation over the CSR
    /// buffers).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Maximum out-degree (hub size).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32)
            .map(|n| self.degree(n))
            .max()
            .unwrap_or(0)
    }

    /// Gini-style skew indicator: fraction of edges owned by the top 1% of
    /// nodes by degree.
    pub fn top1pct_edge_share(&self) -> f64 {
        if self.num_edges() == 0 {
            return 0.0;
        }
        let mut degrees: Vec<usize> = (0..self.num_nodes() as u32)
            .map(|n| self.degree(n))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = (self.num_nodes() / 100).max(1);
        let owned: usize = degrees[..top].iter().sum();
        owned as f64 / self.num_edges() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_correct_csr() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_validates_endpoints() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn rmat_is_deterministic() {
        let g1 = CsrGraph::rmat(256, 1024, RmatParams::default(), 7);
        let g2 = CsrGraph::rmat(256, 1024, RmatParams::default(), 7);
        assert_eq!(g1, g2);
        let g3 = CsrGraph::rmat(256, 1024, RmatParams::default(), 8);
        assert_ne!(g1, g3);
    }

    #[test]
    fn rmat_has_requested_shape() {
        let g = CsrGraph::rmat(1000, 5000, RmatParams::default(), 1);
        assert_eq!(g.num_nodes(), 1000);
        assert_eq!(g.num_edges(), 5000);
        // row_ptr is monotone and ends at num_edges.
        assert!(g.row_ptr().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*g.row_ptr().last().unwrap() as usize, 5000);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = CsrGraph::rmat(1 << 12, 1 << 15, RmatParams::default(), 42);
        let avg = g.num_edges() / g.num_nodes();
        assert!(
            g.max_degree() > 10 * avg,
            "hub degree {} should dwarf average {avg}",
            g.max_degree()
        );
        assert!(
            g.top1pct_edge_share() > 0.05,
            "top 1% share {:.3} should reflect skew",
            g.top1pct_edge_share()
        );
    }

    #[test]
    fn uniform_params_are_not_skewed() {
        let uniform = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let g = CsrGraph::rmat(1 << 12, 1 << 15, uniform, 42);
        let skewed = CsrGraph::rmat(1 << 12, 1 << 15, RmatParams::default(), 42);
        assert!(g.max_degree() < skewed.max_degree());
        assert!((uniform.d() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn self_loops_excluded() {
        let g = CsrGraph::rmat(128, 512, RmatParams::default(), 3);
        for n in 0..g.num_nodes() as u32 {
            assert!(!g.neighbors(n).contains(&n), "self loop at {n}");
        }
    }

    /// The generators as they were before the edge stream and the
    /// branch-free quadrant pick: an if-chain per level, every edge drawn
    /// into a list, then the CSR built from it.
    fn materialized(
        num_nodes: usize,
        num_edges: usize,
        params: RmatParams,
        clustered: Option<(f64, usize)>,
        seed: u64,
    ) -> CsrGraph {
        let levels = usize::BITS - (num_nodes - 1).leading_zeros();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(num_edges);
        while edges.len() < num_edges {
            let (mut src, mut dst) = (0usize, 0usize);
            for _ in 0..levels {
                let r: f64 = rng.gen();
                let (sbit, dbit) = if r < params.a {
                    (0, 0)
                } else if r < params.a + params.b {
                    (0, 1)
                } else if r < params.a + params.b + params.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src = (src << 1) | sbit;
                dst = (dst << 1) | dbit;
            }
            if let Some((locality, window)) = clustered {
                if src >= num_nodes {
                    continue;
                }
                if rng.gen::<f64>() < locality {
                    let delta = rng.gen_range(0..=2 * window) as i64 - window as i64;
                    dst = (src as i64 + delta).rem_euclid(num_nodes as i64) as usize;
                }
            }
            if src < num_nodes && dst < num_nodes && src != dst {
                edges.push((src as u32, dst as u32));
            }
        }
        CsrGraph::from_edges(num_nodes, &edges)
    }

    #[test]
    fn streamed_generators_equal_the_materialized_edge_lists() {
        // The defaults, uniform quadrants, and a degenerate split with a
        // negative probability (thresholds out of order), which the
        // branch-free pick must resolve as the if-chain does.
        let skews = [
            RmatParams::default(),
            RmatParams {
                a: 0.25,
                b: 0.25,
                c: 0.25,
            },
            RmatParams {
                a: 0.6,
                b: -0.2,
                c: 0.5,
            },
        ];
        for (nodes, degree, seed) in [(1 << 10, 8, 42), (1000, 12, 7), (1 << 12, 12, 1)] {
            let edges = nodes * degree;
            let window = (nodes / 128).max(64);
            for params in skews {
                assert_eq!(
                    CsrGraph::rmat(nodes, edges, params, seed),
                    materialized(nodes, edges, params, None, seed),
                    "rmat {params:?} {nodes} nodes, seed {seed}"
                );
                assert_eq!(
                    CsrGraph::clustered_rmat(nodes, edges, params, 0.6, window, seed),
                    materialized(nodes, edges, params, Some((0.6, window)), seed),
                    "clustered_rmat {params:?} {nodes} nodes, seed {seed}"
                );
            }
        }
    }
}
