//! `cae-analysis`: the workspace's dependency-free static-analysis layer.
//!
//! The repo's correctness story rests on a small number of sharp edges —
//! `unsafe` SIMD kernels, a lock-free worker pool, panic-free serving
//! paths, deterministic scoring, crash-safe checkpoints — whose
//! discipline was, until this crate, enforced only by convention.
//! `cae-lint` machine-checks those conventions with a hand-rolled lexer
//! ([`lexer`]), a recursive-descent item parser ([`parser`]), a
//! workspace symbol graph ([`graph`]) and a two-pass rule engine
//! ([`rules`]), because this build environment is offline and
//! stable-toolchain-only: no dylint, no custom clippy lints, no
//! syn/proc-macro stack — just `std`.
//!
//! It keeps only what clippy cannot check: U2 (intrinsics confined to
//! the kernel modules), U3 (no `transmute`, `static mut` or
//! `mem::uninitialized`), C2 (no locks in pool jobs) and the flow rules
//! A1, W1, F1, H1, E1 and R1. `// SAFETY:` notes and thread-spawn sites
//! are checked by clippy's `undocumented_unsafe_blocks`,
//! `missing_safety_doc` and `disallowed_methods`, configured in the root
//! `Cargo.toml` and `clippy.toml`.
//!
//! Run it as the CI gate does:
//!
//! ```text
//! cargo run -p cae-analysis -- --workspace          # exit 1 on findings
//! cargo run -p cae-analysis -- --workspace --json   # machine-readable
//! cargo run -p cae-analysis -- --list-rules         # rule catalog
//! cargo run -p cae-analysis -- --workspace --rule A1    # one rule family
//! cargo run -p cae-analysis -- --workspace --graph-json # symbol graph
//! cargo run -p cae-analysis -- path/to/file.rs …    # lint specific files
//! ```
//!
//! Suppress a finding at a specific site with an inline escape hatch and
//! a reason:
//!
//! ```text
//! // cae-lint: allow(E1) — slot liveness was asserted two lines up
//! let s = self.slots.get(id.slot).expect("invalid StreamId");
//! ```
//!
//! See the README's "Static analysis & safety" section for the rule
//! table.

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use graph::SymbolGraph;
pub use rules::{analyze_source, finish, lint_source, FileAnalysis, Finding, RuleInfo, RULES};

use std::path::{Path, PathBuf};

/// Directories never walked: build output, VCS metadata, and the lint
/// tool's own violation fixtures (each fixture *is* a seeded violation).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Collects every workspace `.rs` file under `root`, sorted, skipping
/// build output, VCS metadata, hidden directories and the lint fixtures.
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Pass 1 over one file on disk; `root` anchors the workspace-relative
/// path used for rule scoping and diagnostics.
pub fn analyze_file(root: &Path, file: &Path) -> std::io::Result<FileAnalysis> {
    let src = std::fs::read_to_string(file)?;
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(analyze_source(&rel, &src))
}

/// Both passes over a set of files on disk, analyzed as one workspace —
/// the flow rules see a symbol graph spanning all of them.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let analyses = analyze_files(root, files)?;
    Ok(finish(&analyses))
}

/// Pass 1 over a set of files on disk, in order.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> std::io::Result<Vec<FileAnalysis>> {
    files.iter().map(|f| analyze_file(root, f)).collect()
}

/// Lints one file on disk as a one-file workspace (cross-file flow-rule
/// context is limited to that file).
pub fn lint_file(root: &Path, file: &Path) -> std::io::Result<Vec<Finding>> {
    lint_files(root, std::slice::from_ref(&file.to_path_buf()))
}

/// Serializes findings as the stable JSON document the CI gate and the
/// fixture tests consume:
///
/// ```json
/// {
///   "files_scanned": 63,
///   "findings": [
///     {"rule": "E1", "path": "crates/x/src/lib.rs", "line": 7, "message": "…"}
///   ]
/// }
/// ```
pub fn findings_to_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.message)
        ));
        out.push('}');
    }
    if findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push('}');
    out
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let findings = vec![Finding {
            rule: "E1",
            path: "a \"b\"\\c.rs".to_string(),
            line: 3,
            message: "line1\nline2".to_string(),
        }];
        let json = findings_to_json(&findings, 2);
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\\\"b\\\"\\\\c.rs"));
        assert!(json.contains("line1\\nline2"));
        let empty = findings_to_json(&[], 0);
        assert!(empty.contains("\"findings\": []"));
    }

    #[test]
    fn workspace_root_is_found_from_a_crate_dir() {
        let here = std::env::current_dir().expect("cwd");
        let root = find_workspace_root(&here).expect("workspace root above crate dir");
        assert!(root.join("Cargo.toml").exists());
        let files = workspace_rs_files(&root).expect("walk");
        assert!(
            files
                .iter()
                .any(|f| f.ends_with("crates/analysis/src/lib.rs")),
            "walker must find this file"
        );
        assert!(
            !files
                .iter()
                .any(|f| f.components().any(|c| c.as_os_str() == "fixtures")),
            "violation fixtures must be excluded from workspace walks"
        );
    }
}
