//! CLI for the workspace linter. See the crate docs ([`simlint`]) for the
//! rule set.
//!
//! ```text
//! cargo run -p simlint                      # text output; ratchets against
//!                                           # simlint.baseline when present
//! cargo run -p simlint -- --format json     # also: sarif, github
//! cargo run -p simlint -- --list-rules      # markdown rules table
//! cargo run -p simlint -- --update-baseline # rewrite simlint.baseline
//! cargo run -p simlint -- --no-baseline     # plain exit-1-on-any-finding
//! cargo run -p simlint -- --root <dir> --baseline <file>
//! ```
//!
//! With a baseline, the exit code is driven by the ratchet: regressions
//! (any `(file, rule)` count growing past the baseline) fail; findings
//! already covered by the baseline pass, and shrinking counts suggest a
//! baseline refresh.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: simlint [--format text|json|sarif|github] [--root <workspace-dir>]\n\
         \x20              [--baseline <file>] [--update-baseline] [--no-baseline] [--list-rules]"
    );
    std::process::exit(2);
}

/// Walks upward from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut format = String::from("text");
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut no_baseline = false;
    let mut list_rules = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if matches!(f.as_str(), "text" | "json" | "sarif" | "github") => format = f,
                _ => usage(),
            },
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--update-baseline" => update_baseline = true,
            "--no-baseline" => no_baseline = true,
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                eprintln!("simlint: determinism lints for the simulator workspace");
                usage();
            }
            _ => usage(),
        }
    }

    if list_rules {
        print!("{}", simlint::rules_table_markdown());
        return ExitCode::SUCCESS;
    }

    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("simlint: no workspace root found (run inside the repo or pass --root)");
        return ExitCode::from(2);
    };
    let violations = match simlint::lint_tree(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("simlint: failed to read sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let baseline_path = baseline_path.unwrap_or_else(|| root.join("simlint.baseline"));
    if update_baseline {
        let b = simlint::baseline::Baseline::from_violations(&violations);
        if let Err(e) = std::fs::write(&baseline_path, b.render()) {
            eprintln!("simlint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "simlint: baseline updated ({} tolerated finding{}) at {}",
            b.total(),
            if b.total() == 1 { "" } else { "s" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    match format.as_str() {
        "json" => print!("{}", simlint::to_json(&violations)),
        "sarif" => print!("{}", simlint::to_sarif(&violations)),
        "github" => print!("{}", simlint::to_github(&violations)),
        _ => {
            for v in &violations {
                println!("{v}");
            }
        }
    }

    // Ratchet against the checked-in baseline when one exists.
    let baseline = if no_baseline {
        None
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match simlint::baseline::Baseline::parse(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("simlint: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(_) => None,
        }
    };

    match baseline {
        Some(base) => {
            let current = simlint::baseline::Baseline::from_violations(&violations);
            let r = base.ratchet(&current);
            for imp in &r.improvements {
                eprintln!("simlint: note: {imp}");
            }
            for reg in &r.regressions {
                eprintln!("simlint: regression: {reg}");
            }
            eprintln!(
                "simlint: {} finding{} ({} tolerated by baseline), {} regression{} in {}",
                violations.len(),
                if violations.len() == 1 { "" } else { "s" },
                base.total(),
                r.regressions.len(),
                if r.regressions.len() == 1 { "" } else { "s" },
                root.display()
            );
            if r.regressions.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => {
            eprintln!(
                "simlint: {} violation{} in {}",
                violations.len(),
                if violations.len() == 1 { "" } else { "s" },
                root.display()
            );
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
