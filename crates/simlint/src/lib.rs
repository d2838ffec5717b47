//! # simlint — workspace-specific static analysis for the simulator
//!
//! A std-only analyzer enforcing the determinism and robustness rules
//! this reproduction depends on (see `DESIGN.md`, "Correctness tooling"
//! and "simlint v2 architecture"). It runs in two layers:
//!
//! **Lexical rules** (v1, per file, exact token patterns):
//!
//! * **hash-iter** — no `HashMap`/`HashSet` in result-producing crates
//!   (the crates [`taint::result_crates`] computes from the item graph):
//!   their iteration order is seeded per process and would make figures
//!   non-reproducible.
//! * **wall-clock** — no `Instant`/`SystemTime` outside the vendored
//!   `criterion-compat`: simulated time must come from the engine clock.
//! * **unseeded-rng** — no `thread_rng`/`from_entropy`/`OsRng`/
//!   `rand::random`: every stochastic choice must flow from the workload
//!   seed.
//! * **lossy-cast** — no narrowing `as` cast in result-producing crates
//!   in expressions that touch VPN/PPN/address values:
//!   `(vpn.raw() as usize) % n` truncates before the modulo on 32-bit
//!   hosts and silently changes set indices.
//! * **hot-unwrap** — no `.unwrap()`/`.expect()` in the engine hot path
//!   (TLB lookup/insert and the cycle loop): a panic mid-simulation is
//!   only acceptable via the sanitizer, which attaches a state dump.
//!
//! **Graph rules** (v2, workspace-wide, over the [`graph::Workspace`]
//! item/call graph built by [`parser`] on the [`lexer`] token stream):
//!
//! * **taint-reaches-report** ([`taint`]) — a nondeterminism source
//!   (hash iteration, wall clock, unseeded RNG, channel arrival order,
//!   pointer identity) inside the transitive callee closure of a result
//!   sink (`SimReport`, CSV writers, `BENCH_*`/golden emitters). The
//!   crates holding that closure are the result crates the lexical
//!   `hash-iter` and `lossy-cast` rules are scoped to.
//! * **stale-allow** — a `// simlint: allow(...)` escape whose rule no
//!   longer fires on (or suppresses a taint seed at) its target line.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions, `tests/`,
//! `benches/`, `examples/` directories) and the vendored `*-compat`
//! crates are exempt. Individual occurrences can be waived with an escape
//! comment that names the rule and justifies itself:
//!
//! ```text
//! // simlint: allow(lossy-cast, reason = "masked to 5 bits first")
//! ```
//!
//! placed either at the end of the offending line or alone on the line
//! above it. An allow with an unknown rule name or a missing reason is
//! itself a violation (`bad-allow`), and an allow nothing fires against
//! is flagged `stale-allow` so escapes cannot outlive their reasons.
//!
//! Workspace runs can additionally be gated by a checked-in
//! [`baseline`] file with a monotonic ratchet (see `simlint.baseline`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod taint;

use lexer::{LineComment, Tok};
use parser::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Files forming the engine hot path (scope of `hot-unwrap`): the cycle
/// loop plus every TLB organization's lookup/insert code and the
/// private/shared hierarchy split. Cross-checked against graph-derived
/// facts (every `TranslationBuffer` impl, the engine's `step_sm` and the
/// `Hierarchy`/`PerSmFront` methods it drives must live in one of these
/// files).
pub const HOT_PATHS: [&str; 12] = [
    "crates/gpu-sim/src/engine.rs",
    "crates/gpu-sim/src/feed.rs",
    "crates/gpu-sim/src/corun.rs",
    "crates/mem-hier/src/hierarchy.rs",
    "crates/mem-hier/src/split.rs",
    "crates/mem-hier/src/stages.rs",
    "crates/mem-hier/src/ports.rs",
    "crates/tlb/src/set_assoc.rs",
    "crates/tlb/src/compressed.rs",
    "crates/tlb/src/sub_entry.rs",
    "crates/core/src/partitioned.rs",
    "crates/core/src/way_partitioned.rs",
];

/// Narrowing cast targets that can drop address bits (`usize` included:
/// it is 32-bit on 32-bit hosts).
const NARROW_TYPES: [&str; 9] = [
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize", "f32",
];

/// Identifier fragments that mark a value as address-typed for
/// `lossy-cast` (matched case-insensitively as substrings, except `raw`
/// which must match a whole identifier — the accessor on `Vpn`/`Ppn`).
const ADDR_MARKERS: [&str; 4] = ["vpn", "ppn", "addr", "pfn"];

/// Every rule an allow comment may waive. `bad-allow` and `stale-allow`
/// are deliberately absent: escapes cannot waive the escape hygiene
/// rules themselves.
pub const RULES: [&str; 6] = [
    "hash-iter",
    "wall-clock",
    "unseeded-rng",
    "lossy-cast",
    "hot-unwrap",
    "taint-reaches-report",
];

/// Metadata for one rule (drives `--list-rules` and the README table).
pub struct RuleInfo {
    /// Rule name as it appears in findings and allow comments.
    pub name: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// All rules simlint can report, in display order.
pub const RULE_INFOS: [RuleInfo; 8] = [
    RuleInfo {
        name: "hash-iter",
        scope: "result crates (call graph)",
        summary: "`HashMap`/`HashSet` in result-producing code: iteration order is randomized per process",
    },
    RuleInfo {
        name: "wall-clock",
        scope: "all non-test code",
        summary: "`Instant`/`SystemTime`: simulation results must depend only on the simulated clock",
    },
    RuleInfo {
        name: "unseeded-rng",
        scope: "all non-test code",
        summary: "`thread_rng`/`from_entropy`/`OsRng`/`rand::random`: randomness must flow from the workload seed",
    },
    RuleInfo {
        name: "lossy-cast",
        scope: "result crates (call graph)",
        summary: "narrowing `as` cast on a VPN/PPN/address value: truncates on 32-bit hosts before set indexing",
    },
    RuleInfo {
        name: "hot-unwrap",
        scope: "engine hot path",
        summary: "`.unwrap()`/`.expect()` in the cycle loop or TLB lookup/insert: panics without a state dump",
    },
    RuleInfo {
        name: "taint-reaches-report",
        scope: "call graph (sink influence set)",
        summary: "a nondeterminism source can flow into a `SimReport`/CSV/`BENCH_*`/golden sink",
    },
    RuleInfo {
        name: "stale-allow",
        scope: "allow escapes",
        summary: "a `// simlint: allow(...)` whose rule no longer fires on its target line",
    },
    RuleInfo {
        name: "bad-allow",
        scope: "allow escapes",
        summary: "a malformed allow: unknown rule name or missing `reason = \"...\"`",
    },
];

/// The `--list-rules` table (markdown; README's rules section is
/// generated from this so docs cannot drift).
pub fn rules_table_markdown() -> String {
    let mut s = String::from("| rule | scope | description |\n|---|---|---|\n");
    for r in &RULE_INFOS {
        s.push_str(&format!("| `{}` | {} | {} |\n", r.name, r.scope, r.summary));
    }
    s
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule name (one of [`RULE_INFOS`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Line ranges (inclusive) covered by `#[test]` / `#[cfg(test)]` items,
/// over the code-token stream.
fn test_regions(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].text != "#" {
            i += 1;
            continue;
        }
        // `#[...]` or `#![...]`.
        let mut j = i + 1;
        if tokens.get(j).map(|t| t.text.as_str()) == Some("!") {
            j += 1;
        }
        if tokens.get(j).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut depth = 0;
        let mut close = None;
        for (k, t) in tokens.iter().enumerate().skip(j) {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { break };
        let is_test = tokens[j + 1..close].iter().any(|t| t.text == "test");
        if !is_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = close + 1;
        while tokens.get(k).map(|t| t.text.as_str()) == Some("#") {
            let mut depth = 0;
            let mut advanced = false;
            for (m, t) in tokens.iter().enumerate().skip(k + 1) {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            k = m + 1;
                            advanced = true;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if !advanced {
                break;
            }
        }
        // The item extends to the matching `}` of its first block, or to
        // a `;` for block-less items (e.g. `#[cfg(test)] use ...;`).
        let mut end_line = tokens[close].line;
        let mut brace_depth = 0;
        let mut m = k;
        while m < tokens.len() {
            match tokens[m].text.as_str() {
                "{" => brace_depth += 1,
                "}" => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        end_line = tokens[m].line;
                        break;
                    }
                }
                ";" if brace_depth == 0 => {
                    end_line = tokens[m].line;
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        regions.push((tokens[i].line, end_line));
        i = close + 1;
    }
    regions
}

/// Parsed `simlint: allow(rule, reason = "...")` escape.
enum AllowParse {
    /// Not a simlint comment at all.
    NotAllow,
    /// A well-formed allow for `rule`.
    Allow(String),
    /// A malformed allow (its own violation).
    Bad(String),
}

fn parse_allow(comment: &str) -> AllowParse {
    let t = comment.trim();
    let Some(rest) = t.strip_prefix("simlint:") else {
        return AllowParse::NotAllow;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return AllowParse::Bad(format!(
            "malformed simlint comment (expected `allow(<rule>, reason = \"...\")`): {t}"
        ));
    };
    let Some(body) = rest.strip_suffix(')') else {
        return AllowParse::Bad(String::from("unterminated simlint allow (missing `)`)"));
    };
    let mut parts = body.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_string();
    if !RULES.contains(&rule.as_str()) {
        return AllowParse::Bad(format!(
            "unknown rule '{rule}' in simlint allow (known: {})",
            RULES.join(", ")
        ));
    }
    let reason = parts.next().unwrap_or("").trim();
    let has_reason = reason
        .strip_prefix("reason")
        .map(|r| r.trim_start().strip_prefix('=').is_some_and(|v| v.trim().len() > 2))
        .unwrap_or(false);
    if !has_reason {
        return AllowParse::Bad(format!(
            "simlint allow({rule}) without a `reason = \"...\"` justification"
        ));
    }
    AllowParse::Allow(rule)
}

/// True when `rel` (a `/`-separated workspace-relative path) is inside a
/// directory the linter skips entirely.
fn skipped_path(rel: &str) -> bool {
    rel.split('/').any(|seg| {
        seg == "target"
            || seg == "tests"
            || seg == "benches"
            || seg == "examples"
            || seg.ends_with("-compat")
    })
}

/// One parsed allow escape with its resolved target line.
struct AllowSite {
    /// Line the comment itself sits on.
    comment_line: usize,
    /// Line the allow waives (the comment's line, or the next code line
    /// for standalone comments).
    target_line: usize,
    rule: String,
    /// True when the comment sits inside a test region (exempt from
    /// staleness: test code is not linted, so nothing can fire there).
    in_test: bool,
}

/// Per-file lexical results, pre-allow-filtering.
struct FilePass {
    /// Lexical findings outside test regions (allows NOT yet applied).
    fired: Vec<Violation>,
    /// Parsed allow escapes.
    allows: Vec<AllowSite>,
    /// Malformed allows (already final violations).
    bad_allows: Vec<Violation>,
}

/// Runs the per-file lexical layer: allow collection plus the v1 token
/// rules. `code` must be the code-token stream of the file;
/// `in_result_crate` turns on the result-crate-scoped rules.
fn lexical_pass(
    rel: &str,
    code: &[Tok],
    comments: &[LineComment],
    in_result_crate: bool,
) -> FilePass {
    let regions = test_regions(code);
    let in_test = |line: usize| regions.iter().any(|&(a, b)| line >= a && line <= b);

    let mut allows: Vec<AllowSite> = Vec::new();
    let mut bad_allows: Vec<Violation> = Vec::new();
    for c in comments {
        match parse_allow(&c.text) {
            AllowParse::NotAllow => {}
            AllowParse::Bad(msg) => {
                if !in_test(c.line) {
                    bad_allows.push(Violation {
                        file: rel.to_string(),
                        line: c.line,
                        rule: "bad-allow".into(),
                        message: msg,
                    });
                }
            }
            AllowParse::Allow(rule) => {
                let target = if c.standalone {
                    code.iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.line)
                        .unwrap_or(c.line + 1)
                } else {
                    c.line
                };
                allows.push(AllowSite {
                    comment_line: c.line,
                    target_line: target,
                    rule,
                    in_test: in_test(c.line),
                });
            }
        }
    }

    let mut fired: Vec<Violation> = Vec::new();
    let mut push = |line: usize, rule: &str, message: String| {
        if !in_test(line) {
            fired.push(Violation {
                file: rel.to_string(),
                line,
                rule: rule.into(),
                message,
            });
        }
    };

    let hot = HOT_PATHS.contains(&rel);

    for (i, t) in code.iter().enumerate() {
        let prev = |k: usize| {
            i.checked_sub(k)
                .map(|j| code[j].text.as_str())
                .unwrap_or("")
        };
        match t.text.as_str() {
            "HashMap" | "HashSet" if in_result_crate => push(
                t.line,
                "hash-iter",
                format!(
                    "{} iteration order is randomized per process; use BTreeMap/BTreeSet \
                     or an index-keyed Vec in result-producing code",
                    t.text
                ),
            ),
            "Instant" | "SystemTime" => push(
                t.line,
                "wall-clock",
                format!(
                    "{} reads wall-clock time; simulation results must depend only on \
                     the simulated cycle counter",
                    t.text
                ),
            ),
            "thread_rng" | "from_entropy" | "OsRng" => push(
                t.line,
                "unseeded-rng",
                format!(
                    "{} draws OS entropy; every random choice must derive from the \
                     workload seed for reproducibility",
                    t.text
                ),
            ),
            "random" if prev(1) == ":" && prev(2) == ":" && prev(3) == "rand" => push(
                t.line,
                "unseeded-rng",
                String::from(
                    "rand::random draws from the thread-local OS-seeded generator; \
                     use the seeded workload RNG",
                ),
            ),
            "as" if in_result_crate => {
                let target = code.get(i + 1).map(|t| t.text.as_str()).unwrap_or("");
                if NARROW_TYPES.contains(&target) {
                    // Look back within the expression for an
                    // address-typed identifier (14 tokens reaches
                    // through a masking subexpression like
                    // `(vpn.raw() & (self.degree() - 1)) as u32`).
                    // `,` and `:` end the scan: an address ident on the
                    // other side of an argument or field boundary
                    // belongs to a different subexpression than the
                    // cast operand.
                    let tainted = (1..=14)
                        .map(prev)
                        .take_while(|p| !matches!(*p, ";" | "{" | "}" | "," | ":" | ""))
                        .any(|p| {
                            let lower = p.to_ascii_lowercase();
                            p == "raw" || ADDR_MARKERS.iter().any(|m| lower.contains(m))
                        });
                    if tainted {
                        push(
                            t.line,
                            "lossy-cast",
                            format!(
                                "narrowing `as {target}` on an address-typed value can \
                                 truncate on 32-bit hosts; do the arithmetic in u64 and \
                                 narrow last (or mask explicitly and allow)"
                            ),
                        );
                    }
                }
            }
            "unwrap" | "expect" if hot && prev(1) == "." => push(
                t.line,
                "hot-unwrap",
                format!(
                    ".{}() in the engine hot path panics without simulator state; \
                     return an error or let the sanitizer report it with a dump",
                    t.text
                ),
            ),
            _ => {}
        }
    }

    FilePass {
        fired,
        allows,
        bad_allows,
    }
}

/// Lints one source file in isolation (lexical layer only — the graph
/// analyses need the whole workspace; see [`lint_tree`]). Stale allows
/// are not reported here for the same reason, and without the graph the
/// file is conservatively treated as part of a result crate.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    if skipped_path(rel) {
        return Vec::new();
    }
    let lexed = lexer::lex(src);
    let code = lexed.code_tokens();
    let pass = lexical_pass(rel, &code, &lexed.comments, true);
    let allowed = |line: usize, rule: &str| {
        pass.allows
            .iter()
            .any(|a| a.target_line == line && a.rule == rule)
    };
    let mut violations: Vec<Violation> = pass
        .fired
        .into_iter()
        .filter(|v| !allowed(v.line, &v.rule))
        .collect();
    violations.extend(pass.bad_allows);
    violations.sort();
    violations
}

/// A full workspace run: every violation plus the artifacts the CLI and
/// cross-check tests need.
pub struct TreeReport {
    /// All findings, sorted by `(file, line, rule)`, allows applied.
    pub violations: Vec<Violation>,
    /// Crates the taint analysis computed as result-influencing.
    pub result_crates: BTreeSet<String>,
    /// Files the taint analysis computed as result-influencing.
    pub result_files: BTreeSet<String>,
}

/// Recursively lints every `.rs` file under `root/src` and
/// `root/crates`: the workspace graph first (it decides which crates
/// produce results), then the lexical layer per file, then the graph
/// analyses (taint, allow hygiene).
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(lint_tree_report(root)?.violations)
}

/// [`lint_tree`] with the computed influence sets exposed.
pub fn lint_tree_report(root: &Path) -> io::Result<TreeReport> {
    let mut files: Vec<(String, std::path::PathBuf)> = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, top, &mut files)?;
        }
    }
    files.sort();

    let mut lexed_files: Vec<(String, Vec<Tok>, Vec<LineComment>)> = Vec::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    for (rel, path) in files {
        let src = fs::read_to_string(&path)?;
        if skipped_path(&rel) {
            continue;
        }
        let lexed = lexer::lex(&src);
        lexed_files.push((rel.clone(), lexed.code_tokens(), lexed.comments.clone()));
        parsed.push(parser::parse_file(&rel, lexed));
    }

    let ws = graph::Workspace::build(parsed);
    let result_crates = taint::result_crates(&ws);

    let mut fired: Vec<Violation> = Vec::new();
    let mut bad_allows: Vec<Violation> = Vec::new();
    let mut allow_sites: Vec<(String, AllowSite)> = Vec::new();
    for (rel, code, comments) in &lexed_files {
        let in_result_crate = result_crates.contains(&parser::crate_of(rel));
        let pass = lexical_pass(rel, code, comments, in_result_crate);
        fired.extend(pass.fired);
        bad_allows.extend(pass.bad_allows);
        allow_sites.extend(pass.allows.into_iter().map(|a| (rel.clone(), a)));
    }

    // Allow lookup for the graph analyses: (file, line) -> rules.
    let mut allow_map: taint::Allows = BTreeMap::new();
    for (rel, a) in &allow_sites {
        allow_map
            .entry((rel.clone(), a.target_line))
            .or_default()
            .insert(a.rule.clone());
    }

    let taint_report = taint::analyze(&ws, &allow_map);
    fired.extend(taint_report.violations);

    // Dedupe by (file, line, rule): a rule can fire more than once on
    // one line.
    fired.sort();
    fired.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);

    // Apply allows; every suppression (and every suppressed taint seed)
    // marks its allow as used.
    let mut used: BTreeSet<(String, usize, String)> = taint_report
        .used_allows
        .into_iter()
        .collect();
    let mut violations: Vec<Violation> = Vec::new();
    for v in fired {
        let key = (v.file.clone(), v.line, v.rule.clone());
        if allow_sites
            .iter()
            .any(|(rel, a)| *rel == v.file && a.target_line == v.line && a.rule == v.rule)
        {
            used.insert(key);
        } else {
            violations.push(v);
        }
    }

    // Allow hygiene: an allow outside test code that suppressed nothing
    // is stale.
    for (rel, a) in &allow_sites {
        if a.in_test {
            continue;
        }
        if !used.contains(&(rel.clone(), a.target_line, a.rule.clone())) {
            violations.push(Violation {
                file: rel.clone(),
                line: a.comment_line,
                rule: "stale-allow".into(),
                message: format!(
                    "allow({}) is stale: the rule does not fire on line {} any more; \
                     remove the escape (or fix the rule name)",
                    a.rule, a.target_line
                ),
            });
        }
    }

    violations.extend(bad_allows);
    violations.sort();
    violations.dedup();
    Ok(TreeReport {
        violations,
        result_crates: taint_report.result_crates,
        result_files: taint_report.result_files,
    })
}

/// Builds the parsed workspace graph for `root` without running any
/// rules (cross-check tests and external tooling use this).
pub fn build_workspace(root: &Path) -> io::Result<graph::Workspace> {
    let mut files: Vec<(String, std::path::PathBuf)> = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, top, &mut files)?;
        }
    }
    files.sort();
    let mut parsed = Vec::new();
    for (rel, path) in files {
        if skipped_path(&rel) {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        parsed.push(parser::parse_file(&rel, lexer::lex(&src)));
    }
    Ok(graph::Workspace::build(parsed))
}

fn collect_rs(
    dir: &Path,
    rel: &str,
    out: &mut Vec<(String, std::path::PathBuf)>,
) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let name = e.file_name().to_string_lossy().into_owned();
        let child_rel = format!("{rel}/{name}");
        let ty = e.file_type()?;
        if ty.is_dir() {
            if !skipped_path(&child_rel) {
                collect_rs(&e.path(), &child_rel, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push((child_rel, e.path()));
        }
    }
    Ok(())
}

fn json_esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders violations as a JSON document (hand-rolled; simlint is
/// dependency-free).
pub fn to_json(violations: &[Violation]) -> String {
    let mut s = String::from("{\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_esc(&v.file),
            v.line,
            json_esc(&v.rule),
            json_esc(&v.message)
        ));
    }
    if !violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!("],\n  \"count\": {}\n}}\n", violations.len()));
    s
}

/// Renders violations as SARIF 2.1.0 (for GitHub code scanning upload).
pub fn to_sarif(violations: &[Violation]) -> String {
    let mut s = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\n      \
         \"name\": \"simlint\",\n      \"rules\": [",
    );
    for (i, r) in RULE_INFOS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n        {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            json_esc(r.name),
            json_esc(r.summary)
        ));
    }
    s.push_str("\n      ]\n    }},\n    \"results\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_esc(&v.rule),
            json_esc(&v.message),
            json_esc(&v.file),
            v.line
        ));
    }
    if !violations.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]\n  }]\n}\n");
    s
}

/// Renders violations as GitHub Actions workflow annotations.
pub fn to_github(violations: &[Violation]) -> String {
    let esc = |s: &str| s.replace('%', "%25").replace('\n', "%0A");
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "::error file={},line={},title=simlint({})::{}\n",
            v.file,
            v.line,
            v.rule,
            esc(&v.message)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: &str = "crates/tlb/src/lib.rs"; // not hot

    /// A result sink: any crate holding this file is a result crate.
    const SINK: &str = "pub struct SimReport;\npub fn emit(_r: &SimReport) {}\n";

    /// Writes `files` (relative path, source) under a fresh temp tree,
    /// lints it, removes it, and returns the findings.
    fn lint_fixture(tag: &str, files: &[(&str, &str)]) -> Vec<Violation> {
        let dir = std::env::temp_dir().join(format!("simlint-{tag}-{}", std::process::id()));
        for (rel, src) in files {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, src).unwrap();
        }
        let v = lint_tree(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        v
    }

    #[test]
    fn hashmap_in_result_crate_is_flagged() {
        let v = lint_source(F, "use std::collections::HashMap;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hash-iter");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn hashmap_outside_result_crates_is_fine() {
        // Only a crate holding something a result sink reaches is in
        // scope: the same file is clean in a sink-free crate and flagged
        // once its crate produces results.
        let map = "use std::collections::HashMap;\n";
        assert!(lint_fixture("no-sink", &[("crates/tool/src/lib.rs", map)]).is_empty());
        let v = lint_fixture(
            "with-sink",
            &[
                ("crates/tool/src/lib.rs", map),
                ("crates/tool/src/report.rs", SINK),
            ],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hash-iter");
    }

    #[test]
    fn hashmap_in_cfg_test_module_is_fine() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(lint_source(F, src).is_empty());
    }

    #[test]
    fn test_attribute_on_single_fn_is_skipped() {
        let src = "#[test]\nfn t() { let _ = std::time::Instant::now(); }\nfn live() { let _ = std::time::Instant::now(); }\n";
        let v = lint_source(F, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[0].rule, "wall-clock");
    }

    #[test]
    fn wall_clock_and_rng_sources_flagged() {
        let v = lint_source(F, "fn f() { let _ = SystemTime::now(); }\n");
        assert_eq!(v[0].rule, "wall-clock");
        let v = lint_source(F, "fn f() { let mut r = rand::thread_rng(); }\n");
        assert_eq!(v[0].rule, "unseeded-rng");
        let v = lint_source(F, "fn f() -> u32 { rand::random() }\n");
        assert_eq!(v[0].rule, "unseeded-rng");
    }

    #[test]
    fn lossy_cast_needs_address_taint_and_narrow_target() {
        let v = lint_source(F, "fn f(vpn: Vpn, n: usize) -> usize { (vpn.raw() as usize) % n }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lossy-cast");
        // Widening is fine.
        assert!(lint_source(F, "fn f(vpn: Vpn) -> u64 { vpn.raw() as u64 }\n").is_empty());
        // Narrowing of non-address values is fine.
        assert!(lint_source(F, "fn f(x: u64) -> usize { x as usize }\n").is_empty());
    }

    #[test]
    fn hot_unwrap_only_in_hot_files() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint_source("crates/gpu-sim/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-unwrap");
        assert!(lint_source(F, src).is_empty());
        // unwrap_or is a different method.
        assert!(lint_source(
            "crates/gpu-sim/src/engine.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n"
        )
        .is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_with_reason() {
        let src = "use std::collections::HashMap; // simlint: allow(hash-iter, reason = \"keyed access only\")\n";
        assert!(lint_source(F, src).is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let src = "// simlint: allow(hash-iter, reason = \"keyed access only\")\nuse std::collections::HashMap;\n";
        assert!(lint_source(F, src).is_empty());
        // ...but not the line after that.
        let src2 = "// simlint: allow(hash-iter, reason = \"keyed access only\")\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let v = lint_source(F, src2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn allow_with_unknown_rule_or_missing_reason_is_a_violation() {
        let v = lint_source(F, "// simlint: allow(made-up-rule, reason = \"x\")\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "bad-allow");
        assert!(v[0].message.contains("unknown rule"));
        let v = lint_source(F, "use std::collections::HashMap; // simlint: allow(hash-iter)\n");
        assert_eq!(v.len(), 2, "{v:?}"); // the bad allow AND the unsuppressed use
        assert!(v.iter().any(|v| v.rule == "bad-allow"));
        assert!(v.iter().any(|v| v.rule == "hash-iter"));
    }

    #[test]
    fn graph_rules_are_allowable() {
        assert!(
            RULES.contains(&"taint-reaches-report"),
            "graph rules must be waivable"
        );
        for r in ["stale-allow", "bad-allow"] {
            assert!(!RULES.contains(&r), "{r} must not be waivable");
        }
        // Every allowable rule is documented; so are the meta rules.
        for r in RULES {
            assert!(RULE_INFOS.iter().any(|i| i.name == r), "{r} missing from RULE_INFOS");
        }
        assert!(rules_table_markdown().contains("| `stale-allow` |"));
    }

    #[test]
    fn strings_comments_and_lifetimes_do_not_trip_rules() {
        let src = concat!(
            "fn f<'a>(x: &'a str) -> &'a str { x }\n",
            "const S: &str = \"HashMap Instant thread_rng\";\n",
            "const R: &str = r#\"HashMap \" quote\"#;\n",
            "/* HashMap /* nested Instant */ still comment */\n",
            "const C: char = '\"';\n",
            "// plain comment mentioning HashMap\n",
        );
        assert!(lint_source(F, src).is_empty(), "{:?}", lint_source(F, src));
    }

    #[test]
    fn compat_and_test_dirs_are_skipped() {
        let bad = "fn f() { let _ = Instant::now(); }\n";
        assert!(lint_source("crates/criterion-compat/src/lib.rs", bad).is_empty());
        assert!(lint_source("crates/tlb/tests/integration.rs", bad).is_empty());
        assert!(lint_source("crates/bench/benches/sweep.rs", bad).is_empty());
    }

    #[test]
    fn json_output_is_well_formed() {
        let v = vec![Violation {
            file: "a.rs".into(),
            line: 3,
            rule: "hash-iter".into(),
            message: "say \"no\"".into(),
        }];
        let j = to_json(&v);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\\\"no\\\""));
        assert_eq!(to_json(&[]), "{\n  \"violations\": [],\n  \"count\": 0\n}\n");
    }

    #[test]
    fn sarif_and_github_outputs_are_well_formed() {
        let v = vec![Violation {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            rule: "taint-reaches-report".into(),
            message: "multi\nline \"msg\"".into(),
        }];
        let s = to_sarif(&v);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"taint-reaches-report\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(s.contains("multi\\nline \\\"msg\\\""));
        // Every known rule is declared in the tool driver.
        for r in &RULE_INFOS {
            assert!(s.contains(&format!("\"id\": \"{}\"", r.name)), "{} missing", r.name);
        }
        let g = to_github(&v);
        assert_eq!(
            g,
            "::error file=crates/x/src/a.rs,line=3,title=simlint(taint-reaches-report)::multi%0Aline \"msg\"\n"
        );
    }

    #[test]
    fn workspace_is_clean() {
        // The acceptance gate: the post-PR workspace must lint clean —
        // lexical rules, graph analyses and allow hygiene included.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let v = lint_tree(&root).expect("workspace sources readable");
        assert!(
            v.is_empty(),
            "workspace has simlint violations:\n{}",
            v.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn injected_violations_in_a_fixture_tree_are_caught() {
        let v = lint_fixture(
            "fixture",
            &[
                (
                    "crates/vmem/src/bad.rs",
                    "use std::collections::HashMap;\n\
                     fn t() -> std::time::Instant { std::time::Instant::now() }\n\
                     fn c(vpn: u64, n: usize) -> usize { (vpn as usize) % n }\n",
                ),
                ("crates/vmem/src/report.rs", SINK),
            ],
        );
        let rules: Vec<&str> = v.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"hash-iter"), "{v:?}");
        assert!(rules.contains(&"wall-clock"), "{v:?}");
        assert!(rules.contains(&"lossy-cast"), "{v:?}");
        assert_eq!(v[0].file, "crates/vmem/src/bad.rs");
    }

    #[test]
    fn stale_allow_is_reported_in_tree_runs_only() {
        let dir = std::env::temp_dir().join(format!("simlint-stale-{}", std::process::id()));
        let src_dir = dir.join("crates/vmem/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("lib.rs"),
            "// simlint: allow(hash-iter, reason = \"it was here once\")\n\
             pub fn fine() {}\n",
        )
        .unwrap();
        let v = lint_tree(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "stale-allow");
        assert_eq!(v[0].line, 1);
        // lint_source cannot judge staleness (no workspace context).
        let alone = lint_source(
            "crates/vmem/src/lib.rs",
            "// simlint: allow(hash-iter, reason = \"it was here once\")\npub fn fine() {}\n",
        );
        assert!(alone.is_empty(), "{alone:?}");
    }

    #[test]
    fn used_allow_is_not_stale() {
        let v = lint_fixture(
            "used",
            &[
                (
                    "crates/vmem/src/lib.rs",
                    "// simlint: allow(hash-iter, reason = \"keyed access only\")\n\
                     use std::collections::HashMap;\n\
                     pub fn get(m: &HashMap<u64, u64>, k: u64) -> u64 { *m.get(&k).unwrap_or(&0) } \
                     // simlint: allow(hash-iter, reason = \"keyed access only\")\n",
                ),
                ("crates/vmem/src/report.rs", SINK),
            ],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn mem_hier_is_a_result_crate_and_its_pipeline_is_hot() {
        // The extracted hierarchy produces the simulation's timing, so the
        // graph must put it in the result-crate scope; so must the
        // differential oracle, whose divergence verdicts are results.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = build_workspace(&root).expect("workspace sources readable");
        let computed = taint::result_crates(&ws);
        for name in ["mem-hier", "sim-oracle"] {
            assert!(computed.contains(name), "{name} missing from {computed:?}");
        }
        // Its per-access pipeline files additionally get `hot-unwrap`.
        for f in [
            "crates/mem-hier/src/hierarchy.rs",
            "crates/mem-hier/src/split.rs",
            "crates/mem-hier/src/stages.rs",
            "crates/mem-hier/src/ports.rs",
            // The lookup fast paths (partitioned `insert`/`place` and the
            // per-organization MRU memos) live in these files and must
            // stay under hot-path scrutiny.
            "crates/tlb/src/set_assoc.rs",
            "crates/tlb/src/compressed.rs",
            "crates/core/src/partitioned.rs",
            // Multi-tenant hot paths: the app-interleaved co-run merge
            // runs per TB launch, and the sub-entry-sharing L2 TLB sits
            // on the shared lookup path.
            "crates/gpu-sim/src/corun.rs",
            "crates/tlb/src/sub_entry.rs",
        ] {
            assert!(HOT_PATHS.contains(&f), "{f} missing from HOT_PATHS");
        }

        let v = lint_fixture(
            "mh-fixture",
            &[
                (
                    "crates/mem-hier/src/stages.rs",
                    "use std::collections::HashMap;\n\
                     fn s(vpn: u64, n: usize) -> usize { (vpn as u32) as usize % n }\n\
                     fn h(x: Option<u64>) -> u64 { x.unwrap() }\n",
                ),
                ("crates/mem-hier/src/report.rs", SINK),
            ],
        );
        let rules: Vec<&str> = v.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"hash-iter"), "{v:?}");
        assert!(rules.contains(&"lossy-cast"), "{v:?}");
        assert!(rules.contains(&"hot-unwrap"), "{v:?}");
    }
}
