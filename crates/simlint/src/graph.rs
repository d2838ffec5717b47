//! Workspace item graph: who defines what, and an approximate call/use
//! graph between items.
//!
//! Resolution strategy (deliberately over-approximate, never panicking):
//!
//! * `Type::method(...)` and `Self::method(...)` — resolved precisely to
//!   methods of that type; `module::func(...)`/`crate_name::func(...)`
//!   to functions in that crate/module. A qualified call whose qualifier
//!   is known but has no matching workspace item produces **no** edge
//!   (it targets std or a vendored shim).
//! * `recv.method(...)` — when the receiver is `self.field`,
//!   `param.field` or a typed parameter, the field/parameter type is
//!   looked up (struct fields are parsed); a `dyn Trait` type resolves
//!   to every impl of that trait plus the trait's default methods.
//!   Unresolvable receivers fall back to *every* method of that name.
//! * `func(...)` — every free function of that name.
//!
//! Item spans keep their string literals, so taint sinks like
//! `"BENCH_engine.json"` are visible to the analyses.

use crate::lexer::TokKind;
use crate::parser::{pick_type_ident, Item, ItemKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Index of an item in [`Workspace::items`].
pub type ItemId = usize;

/// The parsed workspace with its item graph.
pub struct Workspace {
    /// Parsed files, in deterministic (sorted-path) order.
    pub files: Vec<ParsedFile>,
    /// Flattened items as `(file index, item)`.
    pub items: Vec<(usize, Item)>,
    /// Call edges, per item.
    pub calls: Vec<Vec<ItemId>>,
    /// All struct/enum names.
    pub types: BTreeSet<String>,
    /// All trait names.
    pub traits: BTreeSet<String>,
    fn_by_name: BTreeMap<String, Vec<ItemId>>,
    fields_of: BTreeMap<String, BTreeMap<String, String>>,
    impls_of_trait: BTreeMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Builds the graph from parsed files (already path-sorted).
    pub fn build(files: Vec<ParsedFile>) -> Workspace {
        let mut items = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for it in &f.items {
                items.push((fi, it.clone()));
            }
        }
        let mut types = BTreeSet::new();
        let mut traits = BTreeSet::new();
        let mut fn_by_name: BTreeMap<String, Vec<ItemId>> = BTreeMap::new();
        let mut fields_of: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        let mut impls_of_trait: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (id, (_, it)) in items.iter().enumerate() {
            match it.kind {
                ItemKind::Struct => {
                    types.insert(it.name.clone());
                    let fields = fields_of.entry(it.name.clone()).or_default();
                    for f in &it.fields {
                        fields.insert(f.name.clone(), pick_type_ident(&f.ty_idents));
                    }
                }
                ItemKind::Enum => {
                    types.insert(it.name.clone());
                }
                ItemKind::Trait => {
                    traits.insert(it.name.clone());
                }
                ItemKind::Impl => {
                    if let (Some(tr), Some(ty)) = (&it.trait_name, &it.self_ty) {
                        impls_of_trait
                            .entry(tr.clone())
                            .or_default()
                            .insert(ty.clone());
                    }
                }
                ItemKind::Fn => {
                    fn_by_name.entry(it.name.clone()).or_default().push(id);
                }
                _ => {}
            }
        }
        let mut ws = Workspace {
            files,
            items,
            calls: Vec::new(),
            types,
            traits,
            fn_by_name,
            fields_of,
            impls_of_trait,
        };
        for id in 0..ws.items.len() {
            let c = ws.scan_item(id);
            ws.calls.push(c);
        }
        ws
    }

    /// The item's file (workspace-relative path).
    pub fn rel(&self, id: ItemId) -> &str {
        &self.files[self.items[id].0].rel
    }

    /// The item's crate name.
    pub fn krate(&self, id: ItemId) -> &str {
        &self.files[self.items[id].0].krate
    }

    /// The item itself.
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id].1
    }

    /// Display name: `Type::method` for methods, the plain name otherwise.
    pub fn qual_name(&self, id: ItemId) -> String {
        let it = self.item(id);
        match &it.self_ty {
            Some(ty) if it.kind == ItemKind::Fn => format!("{ty}::{}", it.name),
            _ => it.name.clone(),
        }
    }

    /// Methods named `name` on type `ty` (resolving `dyn Trait` types to
    /// every impl of the trait plus trait defaults).
    fn methods_on(&self, ty: &str, name: &str) -> Vec<ItemId> {
        let Some(cands) = self.fn_by_name.get(name) else {
            return Vec::new();
        };
        if self.traits.contains(ty) {
            let impls = self.impls_of_trait.get(ty);
            return cands
                .iter()
                .copied()
                .filter(|&id| {
                    let it = self.item(id);
                    match &it.self_ty {
                        Some(s) => {
                            s == ty || impls.map(|set| set.contains(s)).unwrap_or(false)
                        }
                        None => false,
                    }
                })
                .collect();
        }
        cands
            .iter()
            .copied()
            .filter(|&id| self.item(id).self_ty.as_deref() == Some(ty))
            .collect()
    }

    /// All methods (items with a self type) named `name`.
    fn any_method(&self, name: &str) -> Vec<ItemId> {
        self.fn_by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| self.item(id).self_ty.is_some())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All free functions named `name`.
    fn free_fns(&self, name: &str) -> Vec<ItemId> {
        self.fn_by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| self.item(id).self_ty.is_none())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True when `qual` plausibly names the crate or module of `id`
    /// (crate `mem-hier` matches qualifier `mem_hier`; a file
    /// `walker.rs` matches qualifier `walker`).
    fn in_module(&self, id: ItemId, qual: &str) -> bool {
        let krate = self.krate(id).replace('-', "_");
        if krate == qual {
            return true;
        }
        let rel = self.rel(id);
        rel.rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .map(|stem| stem == qual)
            .unwrap_or(false)
    }

    /// Whether `qual` is a known crate or module name anywhere.
    fn known_module(&self, qual: &str) -> bool {
        self.files.iter().any(|f| {
            f.krate.replace('-', "_") == qual
                || f.rel
                    .rsplit('/')
                    .next()
                    .and_then(|n| n.strip_suffix(".rs"))
                    .map(|stem| stem == qual)
                    .unwrap_or(false)
        })
    }

    /// Scans one item's span for call edges.
    fn scan_item(&self, id: ItemId) -> Vec<ItemId> {
        let (fi, it) = &self.items[id];
        let toks = &self.files[*fi].toks;
        let mut edges: BTreeSet<ItemId> = BTreeSet::new();
        // Containers are scanned via their contained fns.
        if matches!(it.kind, ItemKind::Impl | ItemKind::Mod | ItemKind::Trait) {
            return Vec::new();
        }
        let (start, end) = it.span;
        let params: BTreeMap<&str, String> = it
            .params
            .iter()
            .map(|p| (p.name.as_str(), pick_type_ident(&p.ty_idents)))
            .collect();
        let self_fields = it
            .self_ty
            .as_deref()
            .and_then(|ty| self.fields_of.get(ty));

        let txt = |k: usize| -> &str {
            toks.get(k).map(|t| t.text.as_str()).unwrap_or("")
        };
        let is_id = |k: usize| toks.get(k).map(|t| t.kind == TokKind::Ident).unwrap_or(false);

        for k in start..end.min(toks.len()) {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                continue;
            }
            let name = t.text.as_str();
            if txt(k + 1) != "(" {
                continue;
            }
            if KEYWORDS.contains(&name) {
                continue;
            }
            // Declaration, not a call.
            if txt(k.wrapping_sub(1)) == "fn" {
                continue;
            }
            let targets: Vec<ItemId> = if txt(k.wrapping_sub(1)) == ":" && txt(k.wrapping_sub(2)) == ":" {
                // Qualified: `Qual::name(` — the qualifier is the ident
                // before the `::`.
                let qual = if is_id(k.wrapping_sub(3)) {
                    txt(k.wrapping_sub(3)).to_string()
                } else {
                    String::new()
                };
                self.resolve_qualified(&qual, name, it)
            } else if txt(k.wrapping_sub(1)) == "." {
                self.resolve_method_call(toks, k, it, &params, self_fields)
            } else if txt(k.wrapping_sub(1)) == "!" {
                continue; // macro invocation
            } else {
                self.free_fns(name)
            };
            for t in targets {
                if t != id {
                    edges.insert(t);
                }
            }
        }
        edges.into_iter().collect()
    }

    fn resolve_qualified(&self, qual: &str, name: &str, caller: &Item) -> Vec<ItemId> {
        if qual.is_empty() {
            return Vec::new();
        }
        if qual == "Self" {
            if let Some(ty) = caller.self_ty.as_deref() {
                return self.methods_on(ty, name);
            }
            return Vec::new();
        }
        if self.types.contains(qual) || self.traits.contains(qual) {
            return self.methods_on(qual, name);
        }
        if self.known_module(qual) {
            return self
                .fn_by_name
                .get(name)
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&t| self.in_module(t, qual))
                        .collect()
                })
                .unwrap_or_default();
        }
        // Unknown qualifier (std, Vec, vendored shims): no edge.
        Vec::new()
    }

    /// Resolves `recv.name(` at token `k` (which holds `name`).
    fn resolve_method_call(
        &self,
        toks: &[crate::lexer::Tok],
        k: usize,
        caller: &Item,
        params: &BTreeMap<&str, String>,
        self_fields: Option<&BTreeMap<String, String>>,
    ) -> Vec<ItemId> {
        let name = toks[k].text.as_str();
        let txt = |i: usize| -> &str { toks.get(i).map(|t| t.text.as_str()).unwrap_or("") };
        // Patterns (right to left before the dot):
        //   self . f . name (      → type of field f on Self
        //   self . name (          → method on Self
        //   p . f . name (         → type of field f on param p's type
        //   p . name (             → method on param p's type
        let recv_ty: Option<String> = if txt(k.wrapping_sub(2)) == "self" {
            caller.self_ty.clone()
        } else if toks.get(k.wrapping_sub(2)).map(|t| t.kind) == Some(TokKind::Ident) {
            let base = txt(k.wrapping_sub(2));
            if txt(k.wrapping_sub(3)) == "." {
                let owner_ty: Option<String> = if txt(k.wrapping_sub(4)) == "self" {
                    caller.self_ty.clone()
                } else if toks.get(k.wrapping_sub(4)).map(|t| t.kind) == Some(TokKind::Ident) {
                    params.get(txt(k.wrapping_sub(4))).cloned()
                } else {
                    None
                };
                owner_ty
                    .and_then(|o| self.fields_of.get(&o))
                    .and_then(|fs| fs.get(base))
                    .cloned()
            } else {
                // Bare ident receiver: a parameter, or a local we cannot
                // type. Treat a self-field shadowing name as a field too.
                params.get(base).cloned().or_else(|| {
                    self_fields.and_then(|fs| fs.get(base)).cloned()
                })
            }
        } else {
            None
        };
        match recv_ty {
            Some(ty) if !ty.is_empty() && (self.types.contains(&ty) || self.traits.contains(&ty)) => {
                self.methods_on(&ty, name)
            }
            // Receiver typed but not a workspace type (u64, Vec, ...):
            // only a same-name workspace method could still be the
            // target through auto-deref tricks; stay conservative and
            // emit nothing for known-foreign receivers.
            Some(_) => Vec::new(),
            None => self.any_method(name),
        }
    }

    /// BFS over call edges from `roots`; returns each reached item
    /// mapped to its BFS parent (roots map to themselves).
    pub fn reach(&self, roots: &[ItemId]) -> BTreeMap<ItemId, ItemId> {
        let mut parent: BTreeMap<ItemId, ItemId> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<ItemId> = std::collections::VecDeque::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &next in &self.calls[id] {
                if self.item(next).is_test {
                    continue;
                }
                if parent.insert(next, id).is_none() {
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// The call path root → … → `id` implied by a [`Workspace::reach`]
    /// parent map, as qualified names (truncated in the middle when
    /// longer than five hops).
    pub fn path_to(&self, parents: &BTreeMap<ItemId, ItemId>, id: ItemId) -> String {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
            if chain.len() > 64 {
                break;
            }
        }
        chain.reverse();
        let names: Vec<String> = chain.iter().map(|&i| format!("`{}`", self.qual_name(i))).collect();
        if names.len() > 5 {
            format!(
                "{} → … → {}",
                names[..2].join(" → "),
                names[names.len() - 2..].join(" → ")
            )
        } else {
            names.join(" → ")
        }
    }

    /// Items satisfying a predicate (convenience for analyses).
    pub fn items_where<F: Fn(&Workspace, ItemId) -> bool>(&self, f: F) -> Vec<ItemId> {
        (0..self.items.len()).filter(|&id| f(self, id)).collect()
    }

    /// Parsed fields of a struct, as `name -> picked type ident`.
    pub fn typed_fields(&self, ty: &str) -> Option<&BTreeMap<String, String>> {
        self.fields_of.get(ty)
    }
}

/// Identifiers that look like calls but never are.
const KEYWORDS: [&str; 18] = [
    "if", "while", "match", "for", "loop", "return", "fn", "let", "in", "as", "move", "ref",
    "mut", "else", "break", "continue", "where", "unsafe",
];

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

    fn find(ws: &Workspace, name: &str) -> ItemId {
        (0..ws.items.len())
            .find(|&i| ws.qual_name(i) == name)
            .unwrap_or_else(|| panic!("no item {name}"))
    }

    #[test]
    fn free_and_qualified_calls_resolve() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn top() { helper(); Foo::make(); }\n\
             pub fn helper() {}\n\
             pub struct Foo;\nimpl Foo { pub fn make() {} pub fn other() {} }\n",
        )]);
        let top = find(&w, "top");
        let targets: Vec<String> = w.calls[top].iter().map(|&t| w.qual_name(t)).collect();
        assert!(targets.contains(&"helper".to_string()));
        assert!(targets.contains(&"Foo::make".to_string()));
        assert!(!targets.contains(&"Foo::other".to_string()));
    }

    #[test]
    fn field_typed_receivers_resolve_precisely() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct Inner;\nimpl Inner { pub fn go(&self) {} }\n\
             pub struct Other;\nimpl Other { pub fn go(&self) {} }\n\
             pub struct Holder { x: Inner }\n\
             impl Holder { pub fn run(&self) { self.x.go(); } }\n",
        )]);
        let run = find(&w, "Holder::run");
        let targets: Vec<String> = w.calls[run].iter().map(|&t| w.qual_name(t)).collect();
        assert_eq!(targets, vec!["Inner::go".to_string()]);
    }

    #[test]
    fn dyn_trait_fields_resolve_to_all_impls_and_defaults() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub trait Buf { fn hit(&self); fn opt(&self) -> bool { false } }\n\
             pub struct A;\nimpl Buf for A { fn hit(&self) {} }\n\
             pub struct B;\nimpl Buf for B { fn hit(&self) {} }\n\
             pub struct H { b: Box<dyn Buf> }\n\
             impl H { pub fn go(&self) { self.b.hit(); self.b.opt(); } }\n",
        )]);
        let go = find(&w, "H::go");
        let targets: Vec<String> = w.calls[go].iter().map(|&t| w.qual_name(t)).collect();
        assert!(targets.contains(&"A::hit".to_string()));
        assert!(targets.contains(&"B::hit".to_string()));
        assert!(targets.contains(&"Buf::opt".to_string()), "{targets:?}");
    }

    #[test]
    fn module_qualified_calls_filter_by_crate() {
        let w = ws(&[
            ("crates/mem-hier/src/split.rs", "pub fn apply() {}\n"),
            ("crates/a/src/lib.rs", "pub fn apply() {}\n\
              pub fn top() { mem_hier::apply(); }\n"),
        ]);
        let top = find(&w, "top");
        let t = w.calls[top].clone();
        assert_eq!(t.len(), 1);
        assert_eq!(w.rel(t[0]), "crates/mem-hier/src/split.rs");
    }

    #[test]
    fn foreign_qualifiers_produce_no_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct X;\nimpl X { pub fn new() -> X { X } }\n\
             pub fn top() { let _v: Vec<u8> = Vec::new(); }\n",
        )]);
        let top = find(&w, "top");
        assert!(w.calls[top].is_empty(), "Vec::new must not resolve to X::new");
    }

    #[test]
    fn reach_and_paths() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\npub fn b() { c(); }\npub fn c() {}\n\
             #[cfg(test)]\nmod tests { pub fn t() { super::c(); } }\n",
        )]);
        let a = find(&w, "a");
        let c = find(&w, "c");
        let r = w.reach(&[a]);
        assert!(r.contains_key(&c));
        assert_eq!(w.path_to(&r, c), "`a` → `b` → `c`");
    }
}
