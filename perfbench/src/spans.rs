//! In-memory span recording and self-time attribution for the traced run.
//!
//! A span is `(id, parent, name, start, end)`, recorded from the
//! benchmark's own code around a call into one layer's public API. The
//! layer is the span name up to its first `.` (`gpu_sim.run` belongs to
//! `gpu_sim`). Spans are kept in memory and attributed after the run.
//!
//! Attribution splits the root span's wall time into per-layer self time:
//! every instant inside the root is credited to the innermost spans open
//! at that instant (the open spans with no open child), shared equally
//! when several run at once on different threads. Instants where only the
//! root is open are `unattributed`. Serially this is the usual "span
//! minus the part its children cover"; with parallel grid workers it is
//! each layer's share of the wall clock. Either way the self times plus
//! `unattributed` equal the root's duration exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span identifier; [`SpanId::NONE`] is the parent of a root span and
/// the id handed out while tracing is off.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(0);
}

/// One recorded span, in nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn time<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.enabled {
            return f(SpanId::NONE);
        }
        let id = SpanId(self.next.fetch_add(1, Ordering::Relaxed));
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Per-layer self time of one root span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// The root span's duration, in seconds.
    pub wall_s: f64,
    /// Self seconds per layer, over the root's descendants.
    pub self_s: BTreeMap<String, f64>,
    /// Seconds during which only the root was open.
    pub unattributed_s: f64,
}

impl Attribution {
    /// `Σ self_s + unattributed_s - wall_s`; zero up to float rounding.
    pub fn identity_gap(&self) -> f64 {
        self.self_s.values().sum::<f64>() + self.unattributed_s - self.wall_s
    }
}

/// The spans of `root`'s subtree, root first and every parent before
/// its children; empty when `root` was not recorded.
pub fn subtree(spans: &[Span], root: SpanId) -> Vec<Span> {
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.id != s.parent) {
        children.entry(s.parent).or_default().push(s);
    }
    let Some(r) = spans.iter().find(|s| s.id == root) else {
        return Vec::new();
    };
    let mut tree = vec![r.clone()];
    let mut k = 0;
    while k < tree.len() {
        if let Some(kids) = children.get(&tree[k].id) {
            tree.extend(kids.iter().map(|&s| s.clone()));
        }
        k += 1;
    }
    tree
}

/// Attributes the wall time of span `root` to the layers of its
/// descendants (see the module docs). Each span is clipped to its
/// parent's interval.
pub fn attribute(spans: &[Span], root: SpanId) -> Attribution {
    let tree = subtree(spans, root);
    let Some(root_span) = tree.first() else {
        return Attribution::default();
    };
    let (lo, hi) = (root_span.start_ns, root_span.end_ns.max(root_span.start_ns));
    let pos_of: BTreeMap<SpanId, usize> = tree.iter().enumerate().map(|(p, s)| (s.id, p)).collect();
    // Each span clipped to its (already clipped) parent's interval.
    let mut iv: Vec<(u64, u64)> = Vec::with_capacity(tree.len());
    for (p, s) in tree.iter().enumerate() {
        let (plo, phi) = match p {
            0 => (lo, hi),
            _ => iv[pos_of[&s.parent]],
        };
        let a = s.start_ns.clamp(plo, phi);
        iv.push((a, s.end_ns.clamp(a, phi)));
    }

    let mut cuts: Vec<u64> = iv.iter().flat_map(|&(a, b)| [a, b]).collect();
    cuts.sort_unstable();
    cuts.dedup();

    let mut out = Attribution {
        wall_s: (hi - lo) as f64 * 1e-9,
        ..Attribution::default()
    };
    let mut open = vec![false; tree.len()];
    let mut has_open_child = vec![false; tree.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        for (p, &(s, e)) in iv.iter().enumerate() {
            open[p] = s <= a && e >= b;
            has_open_child[p] = false;
        }
        for (p, s) in tree.iter().enumerate().skip(1) {
            if open[p] {
                has_open_child[pos_of[&s.parent]] = true;
            }
        }
        let frontier: Vec<usize> = (0..tree.len())
            .filter(|&p| open[p] && !has_open_child[p])
            .collect();
        if frontier.is_empty() {
            continue;
        }
        let share = (b - a) as f64 * 1e-9 / frontier.len() as f64;
        for p in frontier {
            if p == 0 {
                out.unattributed_s += share;
            } else {
                *out.self_s.entry(tree[p].layer().to_owned()).or_default() += share;
            }
        }
    }
    out
}

/// Total duration, in seconds, of the spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn serial_self_time_is_span_minus_children() {
        // root 0..100; bench 10..90 containing gpu_sim 20..50 and
        // workloads 60..70.
        let spans = vec![
            span(1, 0, "iteration", 0, 100),
            span(2, 1, "bench.section", 10, 90),
            span(3, 2, "gpu_sim.run", 20, 50),
            span(4, 2, "workloads.get", 60, 70),
        ];
        let a = attribute(&spans, SpanId(1));
        assert!(close(a.wall_s, 100e-9));
        assert!(close(a.self_s["bench"], 40e-9));
        assert!(close(a.self_s["gpu_sim"], 30e-9));
        assert!(close(a.self_s["workloads"], 10e-9));
        assert!(close(a.unattributed_s, 20e-9));
        assert!(a.identity_gap().abs() < 1e-15);
    }

    #[test]
    fn parallel_children_share_the_wall_clock() {
        // Two workers under one section: 0..60 and 30..90.
        let spans = vec![
            span(1, 0, "iteration", 0, 100),
            span(2, 1, "bench.section", 0, 100),
            span(3, 2, "gpu_sim.run", 0, 60),
            span(4, 2, "analysis.streams", 30, 90),
        ];
        let a = attribute(&spans, SpanId(1));
        // 0..30 gpu_sim alone, 30..60 shared, 60..90 analysis alone.
        assert!(close(a.self_s["gpu_sim"], 45e-9));
        assert!(close(a.self_s["analysis"], 45e-9));
        assert!(close(a.self_s["bench"], 10e-9));
        assert!(close(a.unattributed_s, 0.0));
        assert!(a.identity_gap().abs() < 1e-15);
    }

    #[test]
    fn unattributed_identity_holds_on_ragged_trees() {
        // Children that overrun their parent are clipped; spans outside
        // the root's subtree are ignored.
        let spans = vec![
            span(1, 0, "iteration", 100, 1000),
            span(2, 1, "gpu_sim.construct", 50, 150),
            span(3, 1, "gpu_sim.run", 150, 700),
            span(4, 3, "workloads.decode", 200, 1200),
            span(5, 0, "other_root", 0, 5000),
            span(6, 1, "bench.cell", 640, 660),
        ];
        let a = attribute(&spans, SpanId(1));
        assert!(a.identity_gap().abs() < 1e-15);
        assert!(close(a.wall_s, 900e-9));
        assert!(!a.self_s.contains_key("other_root"));
        // 100..150 construct; 150..200 run; 200..700 decode (clipped to
        // its parent), except 640..660 where it shares with bench.cell;
        // 700..1000 only the root is open.
        assert!(close(a.self_s["gpu_sim"], 100e-9));
        assert!(close(a.self_s["workloads"], 490e-9));
        assert!(close(a.self_s["bench"], 10e-9));
        assert!(close(a.unattributed_s, 300e-9));
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let off = Tracer::new(false);
        let got = off.time("gpu_sim.run", SpanId::NONE, |id| {
            assert_eq!(id, SpanId::NONE);
            7
        });
        assert_eq!(got, 7);
        assert!(off.take().is_empty());

        let on = Tracer::new(true);
        let root = on.time("iteration", SpanId::NONE, |root| {
            on.time("gpu_sim.run", root, |_| ());
            root
        });
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "gpu_sim.run").unwrap();
        assert_eq!(child.parent, root);
        assert_eq!(child.layer(), "gpu_sim");
        let a = attribute(&spans, root);
        assert!(a.identity_gap().abs() < 1e-12);
    }
}
