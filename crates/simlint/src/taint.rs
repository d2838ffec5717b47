//! Nondeterminism taint: does any nondeterministic source influence a
//! result sink?
//!
//! *Sinks* are items that produce externally visible results: anything
//! naming `SimReport`, a CSV writer (identifier containing `csv`), or a
//! string literal marking an emitted artifact (`BENCH_*`, `*.csv`,
//! golden files). *Sources* are the places nondeterminism enters:
//! `HashMap`/`HashSet` iteration (bound through let/param/field names),
//! wall-clock reads, unseeded RNG, channel arrival-order observation
//! (`try_recv`/`recv_timeout`/`try_iter`), and pointer-identity values
//! (`as *const`/`as_ptr`).
//!
//! The *influence set* is the transitive callee closure of the sink
//! items: every function whose return values or effects a sink can
//! package into a result. A source inside the influence set is a
//! violation. [`result_crates`] exposes the crates holding that set,
//! which scope the lexical `hash-iter` and `lossy-cast` rules.
//!
//! A source token on a line waived for the corresponding lexical rule
//! (`hash-iter`, `wall-clock`, `unseeded-rng`) — or for
//! `taint-reaches-report` itself — is not seeded: the allow's reason
//! already justifies the nondeterminism. Such allows count as *used* for
//! the stale-allow analysis.

use crate::graph::{ItemId, Workspace};
use crate::lexer::TokKind;
use crate::parser::ItemKind;
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// Rule name this module reports under.
pub const RULE: &str = "taint-reaches-report";

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain",
    "into_values",
];

/// Allow lookup: `(rel, line) -> rules waived there`.
pub type Allows = BTreeMap<(String, usize), BTreeSet<String>>;

/// One seeded source occurrence.
struct Source {
    line: usize,
    /// Short source-kind label for the message.
    kind: &'static str,
    detail: String,
}

/// Analysis result: violations plus the allow sites the seeding
/// consumed (for stale-allow accounting).
pub struct TaintReport {
    /// `taint-reaches-report` findings (pre-allow-suppression).
    pub violations: Vec<Violation>,
    /// Allow sites used up by suppressing a seed: `(rel, line, rule)`.
    pub used_allows: Vec<(String, usize, String)>,
    /// Crates containing result-influencing items.
    pub result_crates: BTreeSet<String>,
    /// Files containing result-influencing items.
    pub result_files: BTreeSet<String>,
}

/// Runs the taint analysis over the workspace.
pub fn analyze(ws: &Workspace, allows: &Allows) -> TaintReport {
    let sinks = sink_items(ws);
    let influence = ws.reach(&sinks);
    let mut used_allows = Vec::new();
    let mut violations = Vec::new();

    let mut result_crates = BTreeSet::new();
    let mut result_files = BTreeSet::new();
    for &id in influence.keys() {
        result_crates.insert(ws.krate(id).to_string());
        result_files.insert(ws.rel(id).to_string());
    }

    for &id in influence.keys() {
        let it = ws.item(id);
        if it.is_test || !matches!(it.kind, ItemKind::Fn | ItemKind::Const) {
            continue;
        }
        let rel = ws.rel(id);
        for src in find_sources(ws, id, allows, &mut used_allows) {
            let path = ws.path_to(&influence, id);
            violations.push(Violation {
                file: rel.to_string(),
                line: src.line,
                rule: RULE.into(),
                message: format!(
                    "{} in `{}` can flow into a result sink ({}): {}",
                    src.kind,
                    ws.qual_name(id),
                    path,
                    src.detail
                ),
            });
        }
    }
    violations.sort();
    violations.dedup();
    TaintReport {
        violations,
        used_allows,
        result_crates,
        result_files,
    }
}

/// Items that serialize or emit results. The linter's own crate is
/// excluded: its sources *name* the markers in order to detect them.
pub fn sink_items(ws: &Workspace) -> Vec<ItemId> {
    ws.items_where(|ws, id| {
        if ws.krate(id) == "simlint" {
            return false;
        }
        let it = ws.item(id);
        if it.is_test || !matches!(it.kind, ItemKind::Fn | ItemKind::Const) {
            return false;
        }
        sink_marker(ws, id).is_some()
    })
}

/// Why an item is a sink, if it is one.
pub fn sink_marker(ws: &Workspace, id: ItemId) -> Option<String> {
    let (fi, it) = &ws.items[id];
    let toks = &ws.files[*fi].toks;
    let (start, end) = it.span;
    for t in &toks[start.min(toks.len())..end.min(toks.len())] {
        match t.kind {
            TokKind::Ident => {
                if t.text == "SimReport" {
                    return Some("names SimReport".into());
                }
                if t.text.to_ascii_lowercase().contains("csv") {
                    return Some(format!("CSV writer `{}`", t.text));
                }
                if t.text.to_ascii_lowercase().contains("tracewriter") {
                    return Some(format!("trace writer `{}`", t.text));
                }
            }
            TokKind::Str => {
                if t.text.contains("BENCH_") {
                    return Some(format!("emits \"{}\"", first_marker(&t.text, "BENCH_")));
                }
                if t.text.contains(".csv") {
                    return Some("writes a .csv artifact".into());
                }
                if t.text.contains("golden") {
                    return Some("produces a golden file".into());
                }
                if t.text.contains(".trace") {
                    return Some("writes a .trace artifact".into());
                }
            }
            _ => {}
        }
    }
    None
}

fn first_marker(s: &str, pat: &str) -> String {
    let start = s.find(pat).unwrap_or(0);
    s[start..].chars().take(24).collect()
}

/// Lexical rule whose allow also waives a given source kind.
fn lexical_twin(kind: &'static str) -> Option<&'static str> {
    match kind {
        "HashMap/HashSet iteration" => Some("hash-iter"),
        "wall-clock read" => Some("wall-clock"),
        "unseeded RNG" => Some("unseeded-rng"),
        _ => None,
    }
}

/// Scans one item for nondeterminism sources, honoring allows.
fn find_sources(
    ws: &Workspace,
    id: ItemId,
    allows: &Allows,
    used: &mut Vec<(String, usize, String)>,
) -> Vec<Source> {
    let (fi, it) = &ws.items[id];
    let toks = &ws.files[*fi].toks;
    let rel = ws.rel(id).to_string();
    let (start, end) = it.span;
    let end = end.min(toks.len());
    let txt = |k: usize| -> &str { toks.get(k).map(|t| t.text.as_str()).unwrap_or("") };
    let is_id = |k: usize| toks.get(k).map(|t| t.kind == TokKind::Ident).unwrap_or(false);

    // Waived check: returns true (and records the use) when the line
    // carries an allow for the taint rule or the lexical twin.
    let mut waived = |line: usize, kind: &'static str| -> bool {
        let mut any = false;
        for rule in [Some(RULE), lexical_twin(kind)].into_iter().flatten() {
            if allows
                .get(&(rel.clone(), line))
                .is_some_and(|set| set.contains(rule))
            {
                used.push((rel.clone(), line, rule.to_string()));
                any = true;
            }
        }
        any
    };

    let mut out = Vec::new();

    // --- Hash iteration: bind names, then look for iteration uses. ---
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    for p in &it.params {
        if p.ty_idents.iter().any(|t| t == "HashMap" || t == "HashSet") {
            hash_names.insert(p.name.clone());
        }
    }
    let hash_fields: BTreeSet<String> = it
        .self_ty
        .as_deref()
        .and_then(|ty| ws.typed_fields(ty))
        .map(|fs| {
            fs.iter()
                .filter(|(_, ty)| ty.as_str() == "HashMap" || ty.as_str() == "HashSet")
                .map(|(n, _)| n.clone())
                .collect()
        })
        .unwrap_or_default();
    for (k, t) in toks.iter().enumerate().take(end).skip(start) {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if waived(t.line, "HashMap/HashSet iteration") {
            continue;
        }
        // Backscan for the binding this mention annotates or initializes.
        let lo = k.saturating_sub(14).max(start);
        for j in (lo..k).rev() {
            if txt(j) == "let" {
                let mut m = j + 1;
                while matches!(txt(m), "mut" | "ref") {
                    m += 1;
                }
                if is_id(m) {
                    hash_names.insert(txt(m).to_string());
                }
                break;
            }
            if txt(j) == ":" && txt(j + 1) != ":" && txt(j.wrapping_sub(1)) != ":" && is_id(j.wrapping_sub(1)) {
                hash_names.insert(txt(j.wrapping_sub(1)).to_string());
                break;
            }
            if matches!(txt(j), ";" | "{" | "}") {
                break;
            }
        }
    }
    if !hash_names.is_empty() || !hash_fields.is_empty() {
        for (k, t) in toks.iter().enumerate().take(end).skip(start) {
            if t.kind != TokKind::Ident {
                continue;
            }
            // `name.iter()` / `self.field.iter()`.
            if ITER_METHODS.contains(&t.text.as_str()) && txt(k + 1) == "(" && txt(k.wrapping_sub(1)) == "." {
                let recv = txt(k.wrapping_sub(2));
                let hit = hash_names.contains(recv)
                    || (txt(k.wrapping_sub(3)) == "."
                        && txt(k.wrapping_sub(4)) == "self"
                        && hash_fields.contains(recv));
                if hit && !waived(t.line, "HashMap/HashSet iteration") {
                    out.push(Source {
                        line: t.line,
                        kind: "HashMap/HashSet iteration",
                        detail: format!(
                            "`.{}()` observes randomized iteration order; use BTreeMap/BTreeSet \
                             or collect-and-sort first",
                            t.text
                        ),
                    });
                }
            }
            // `for x in [&mut] name` / `for x in &self.field`. When the
            // collection is followed by `.`, the method-call arm above
            // already covers it (`for x in m.iter()`): skip to avoid a
            // double report.
            if t.text == "in" {
                let mut j = k + 1;
                while matches!(txt(j), "&" | "mut") {
                    j += 1;
                }
                let (recv, after) = if txt(j) == "self" && txt(j + 1) == "." {
                    (txt(j + 2).to_string(), j + 3)
                } else {
                    (txt(j).to_string(), j + 1)
                };
                let line = toks[k].line;
                let hit = txt(after) != "."
                    && (hash_names.contains(&recv)
                        || (txt(j) == "self" && hash_fields.contains(&recv)));
                if hit && !waived(line, "HashMap/HashSet iteration") {
                    out.push(Source {
                        line,
                        kind: "HashMap/HashSet iteration",
                        detail: format!("`for … in {recv}` iterates in randomized order"),
                    });
                }
            }
        }
    }

    // --- Token-level sources. ---
    for (k, t) in toks.iter().enumerate().take(end).skip(start) {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime"
                if !waived(t.line, "wall-clock read") => {
                    out.push(Source {
                        line: t.line,
                        kind: "wall-clock read",
                        detail: format!("`{}` depends on host timing", t.text),
                    });
                }
            "thread_rng" | "from_entropy" | "OsRng"
                if !waived(t.line, "unseeded RNG") => {
                    out.push(Source {
                        line: t.line,
                        kind: "unseeded RNG",
                        detail: format!("`{}` draws OS entropy", t.text),
                    });
                }
            "random" if txt(k.wrapping_sub(1)) == ":" && txt(k.wrapping_sub(3)) == "rand"
                && !waived(t.line, "unseeded RNG") => {
                    out.push(Source {
                        line: t.line,
                        kind: "unseeded RNG",
                        detail: "`rand::random` uses the thread-local OS-seeded generator".into(),
                    });
                }
            "try_recv" | "recv_timeout" | "try_iter"
                if !waived(t.line, "channel arrival order") => {
                    out.push(Source {
                        line: t.line,
                        kind: "channel arrival order",
                        detail: format!(
                            "`{}` observes cross-thread arrival order, which the OS scheduler \
                             controls",
                            t.text
                        ),
                    });
                }
            "as_ptr" if txt(k + 1) == "("
                && !waived(t.line, "pointer-identity value") => {
                    out.push(Source {
                        line: t.line,
                        kind: "pointer-identity value",
                        detail: "`.as_ptr()` yields allocator-dependent addresses".into(),
                    });
                }
            "as" if txt(k + 1) == "*" && matches!(txt(k + 2), "const" | "mut")
                && !waived(t.line, "pointer-identity value") => {
                    out.push(Source {
                        line: t.line,
                        kind: "pointer-identity value",
                        detail: "raw-pointer casts yield allocator-dependent addresses".into(),
                    });
                }
            _ => {}
        }
    }
    out
}

/// The computed result-crate set (crates containing items the sinks can
/// reach).
pub fn result_crates(ws: &Workspace) -> BTreeSet<String> {
    let sinks = sink_items(ws);
    let influence = ws.reach(&sinks);
    influence.keys().map(|&id| ws.krate(id).to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| parse_file(rel, lex(src)))
                .collect(),
        )
    }

    const REPORT: &str = "pub struct SimReport { pub cycles: u64 }\n\
        pub fn emit(r: &SimReport) -> u64 { summarize(r) }\n";

    #[test]
    fn hash_iteration_reaching_a_sink_is_flagged() {
        let w = ws(&[
            ("crates/app/src/report.rs", REPORT),
            (
                "crates/app/src/calc.rs",
                "use std::collections::HashMap;\n\
                 pub fn summarize(_r: &super::SimReport) -> u64 {\n\
                     let m: HashMap<u64, u64> = HashMap::new();\n\
                     let mut s = 0;\n\
                     for (_k, v) in m.iter() { s += v; }\n\
                     s\n\
                 }\n",
            ),
        ]);
        let r = analyze(&w, &Allows::new());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, RULE);
        assert_eq!(r.violations[0].file, "crates/app/src/calc.rs");
        assert!(r.violations[0].message.contains("HashMap/HashSet iteration"));
        assert!(r.result_crates.contains("app"));
    }

    #[test]
    fn keyed_access_only_is_not_a_source() {
        let w = ws(&[
            ("crates/app/src/report.rs", REPORT),
            (
                "crates/app/src/calc.rs",
                "use std::collections::HashMap;\n\
                 pub fn summarize(_r: &super::SimReport) -> u64 {\n\
                     let m: HashMap<u64, u64> = HashMap::new();\n\
                     *m.get(&1).unwrap_or(&0)\n\
                 }\n",
            ),
        ]);
        assert!(analyze(&w, &Allows::new()).violations.is_empty());
    }

    #[test]
    fn source_not_reachable_from_any_sink_is_quiet() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn unrelated() { let m: HashMap<u8,u8> = HashMap::new(); for _ in m.iter() {} }\n",
        )]);
        assert!(analyze(&w, &Allows::new()).violations.is_empty());
    }

    #[test]
    fn wall_clock_behind_a_call_chain_is_found_with_path() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "pub struct SimReport;\n\
             pub fn emit() -> SimReport { mid(); SimReport }\n\
             pub fn mid() { leaf(); }\n\
             pub fn leaf() { let _t = std::time::Instant::now(); }\n",
        )]);
        let r = analyze(&w, &Allows::new());
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("`emit` → `mid` → `leaf`"), "{}", r.violations[0].message);
    }

    #[test]
    fn allows_suppress_seeding_and_are_recorded_used() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "pub struct SimReport;\n\
             pub fn emit() -> SimReport { let _t = std::time::Instant::now(); SimReport }\n",
        )]);
        let mut allows = Allows::new();
        allows
            .entry(("crates/app/src/lib.rs".into(), 2))
            .or_default()
            .insert("wall-clock".into());
        let r = analyze(&w, &allows);
        assert!(r.violations.is_empty());
        assert_eq!(r.used_allows, vec![("crates/app/src/lib.rs".into(), 2, "wall-clock".into())]);
    }

    #[test]
    fn channel_order_and_ptr_identity_are_sources() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "pub struct SimReport;\n\
             pub fn emit(rx: &std::sync::mpsc::Receiver<u64>) -> SimReport {\n\
                 while let Ok(_v) = rx.try_recv() {}\n\
                 SimReport\n\
             }\n\
             pub fn emit2(v: &[u8]) -> SimReport { let _p = v.as_ptr(); SimReport }\n",
        )]);
        let r = analyze(&w, &Allows::new());
        let kinds: Vec<&str> = r.violations.iter().map(|v| v.message.split(" in ").next().unwrap()).collect();
        assert_eq!(kinds.len(), 2, "{:?}", r.violations);
        assert!(kinds.iter().any(|k| k.contains("channel arrival order")));
        assert!(kinds.iter().any(|k| k.contains("pointer-identity")));
    }

    #[test]
    fn hash_field_iteration_on_self_is_a_source() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub struct SimReport;\n\
             pub struct Agg { counts: HashMap<u64, u64> }\n\
             impl Agg {\n\
                 pub fn emit(&self) -> SimReport { for _ in self.counts.keys() {} SimReport }\n\
             }\n",
        )]);
        let r = analyze(&w, &Allows::new());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }
}
