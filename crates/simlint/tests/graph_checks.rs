//! Graph-derived cross-checks over the *real* workspace.
//!
//! The result-crate scope is computed from the item graph; the one
//! hand-written scope left, `HOT_PATHS`, drifts every time a file is
//! added. These tests derive the facts it must cover from the
//! [`simlint::graph::Workspace`] item graph, so they fail when the
//! workspace grows past the list.

use std::collections::BTreeSet;
use std::path::Path;

use simlint::graph::Workspace;
use simlint::parser::ItemKind;
use simlint::{build_workspace, HOT_PATHS};

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    build_workspace(&root).expect("workspace sources readable")
}

/// The engine's per-SM step function: every warp instruction issues
/// from here.
const ENGINE_STEP: &str = "step_sm";

#[test]
fn engine_step_entry_files_are_all_in_the_hot_path() {
    // Every per-access entry point (the engine's `step_sm` plus the
    // `Hierarchy` and `PerSmFront` methods it calls, the code
    // `hot-unwrap` exists to protect) must live in a HOT_PATHS file.
    let ws = real_workspace();
    let entries = ws.items_where(|w, id| {
        let it = w.item(id);
        if it.kind != ItemKind::Fn || it.is_test || w.krate(id) == "simlint" {
            return false;
        }
        match &it.self_ty {
            Some(ty) => ty == "PerSmFront" || ty == "Hierarchy",
            None => it.name == ENGINE_STEP,
        }
    });
    // The method entries alone would keep `entries` non-empty, so check
    // the engine step by name: a rename must not silently drop it.
    assert!(
        entries
            .iter()
            .any(|&id| ws.item(id).name == ENGINE_STEP && ws.krate(id) == "gpu-sim"),
        "engine step `{ENGINE_STEP}` not found in gpu-sim — renamed, or parser regression?"
    );
    for id in entries {
        let rel = ws.rel(id);
        assert!(
            HOT_PATHS.contains(&rel),
            "per-access entry `{}` lives in {rel}, which is not in HOT_PATHS",
            ws.qual_name(id)
        );
    }
}

#[test]
fn translation_buffer_impls_are_hot_or_documented_exceptions() {
    // Every `TranslationBuffer` implementation is lookup/insert code on
    // the per-access path and belongs in HOT_PATHS — except wrappers
    // whose entire point is to sit outside the engine's no-panic /
    // no-lock discipline. Each exception carries its reason; a new impl
    // file showing up here means: add it to HOT_PATHS or justify it.
    const EXCEPTIONS: [(&str, &str); 1] = [(
        "crates/sim-oracle/src/mutate.rs",
        "oracle mutants are correctness references, never on the timing path",
    )];

    let ws = real_workspace();
    let mut impl_files: BTreeSet<&str> = BTreeSet::new();
    for id in ws.items_where(|w, i| {
        w.item(i).trait_name.as_deref() == Some("TranslationBuffer") && !w.item(i).is_test
    }) {
        impl_files.insert(ws.rel(id));
    }
    assert!(
        impl_files.len() >= 4,
        "suspiciously few TranslationBuffer impls found: {impl_files:?}"
    );
    for rel in &impl_files {
        assert!(
            HOT_PATHS.contains(rel) || EXCEPTIONS.iter().any(|(e, _)| e == rel),
            "{rel} implements TranslationBuffer but is neither in HOT_PATHS nor a \
             documented exception"
        );
    }
    // The exception list cannot rot: each entry must still contain an impl.
    for (e, why) in EXCEPTIONS {
        assert!(
            impl_files.contains(e),
            "exception {e} ({why}) no longer implements TranslationBuffer; drop it"
        );
    }
}

#[test]
fn hot_paths_exist_and_every_entry_is_parsed() {
    // HOT_PATHS is string-matched against relative paths; a typo or a
    // file rename would silently un-hot a file. The graph knows every
    // parsed file, so stale entries are detectable.
    let ws = real_workspace();
    let parsed: BTreeSet<&str> = ws.files.iter().map(|f| f.rel.as_str()).collect();
    for p in HOT_PATHS {
        assert!(parsed.contains(p), "HOT_PATHS entry {p} does not exist in the workspace");
    }
}
