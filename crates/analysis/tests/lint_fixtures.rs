//! End-to-end fixture tests for `cae-lint`.
//!
//! Each fixture under `tests/fixtures/` seeds exactly the violations its
//! name describes (the directory is excluded from `--workspace` walks for
//! that reason) and redirects rule scoping to a production path with a
//! `// cae-lint: path=…` directive on its first line. The tests pin the
//! exact rule IDs and line numbers, the JSON document shape, the allow
//! suppression semantics, and the binary's exit codes.
//!
//! `u1_missing_safety.rs`, `c1_spawn.rs` and `clean.rs` are also the
//! fixtures of CI's clippy-driver step, which pins the clippy lints that
//! replaced the retired rules U1 and C1 to fire at line 5.

use cae_analysis::{find_workspace_root, findings_to_json, lint_file};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// `(rule, line)` pairs for one fixture, in report order.
fn lint(name: &str) -> Vec<(&'static str, usize)> {
    lint_file(&workspace_root(), &fixture(name))
        .expect("fixture readable")
        .iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn clean_fixture_has_no_findings() {
    assert_eq!(lint("clean.rs"), []);
}

#[test]
fn each_rule_fires_at_its_seeded_line() {
    assert_eq!(lint("u2_intrinsics_outside.rs"), [("U2", 5)]);
    assert_eq!(lint("u3_forbidden.rs"), [("U3", 4), ("U3", 8)]);
    assert_eq!(lint("c2_lock_in_job.rs"), [("C2", 6)]);
    assert_eq!(lint("e1_panics.rs"), [("E1", 5), ("E1", 7)]);
    assert_eq!(lint("r1_recovery_unwrap.rs"), [("R1", 7)]);
    assert_eq!(lint("r1_journal_unwrap.rs"), [("R1", 8)]);
    assert_eq!(lint("a1_relaxed_publish.rs"), [("A1", 8)]);
    assert_eq!(lint("w1_unguarded_cast.rs"), [("W1", 8), ("W1", 13)]);
    assert_eq!(lint("f1_rename_no_sync.rs"), [("F1", 9)]);
    assert_eq!(lint("h1_hot_path_alloc.rs"), [("H1", 12), ("H1", 18)]);
    assert_eq!(lint("h1_obs_clock_raw.rs"), [("H1", 13)]);
}

/// The ObsClock seam (`crates/obs/src/clock.rs`) is the one sanctioned
/// wall-clock location on hot paths; the raw-`Instant` twin fixture
/// above pins that the sanction does not leak past that file.
#[test]
fn h1_obs_clock_seam_is_sanctioned() {
    assert_eq!(lint("h1_obs_clock_ok.rs"), []);
}

#[test]
fn allow_directive_suppresses_trailing_and_preceding_but_not_mismatched() {
    // Lines 6 and 12 are allowed (trailing / preceding comment chain);
    // line 17's `allow(W1)` names the wrong rule, so E1 still fires.
    assert_eq!(lint("allow_suppression.rs"), [("E1", 17)]);
}

#[test]
fn findings_report_the_real_file_path_not_the_override() {
    let findings = lint_file(&workspace_root(), &fixture("e1_panics.rs")).expect("readable");
    for f in &findings {
        assert_eq!(f.path, "crates/analysis/tests/fixtures/e1_panics.rs");
    }
}

#[test]
fn json_document_has_the_stable_shape() {
    let findings = lint_file(&workspace_root(), &fixture("e1_panics.rs")).expect("readable");
    let json = findings_to_json(&findings, 1);
    assert!(json.contains("\"files_scanned\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"E1\""), "{json}");
    assert!(json.contains("\"line\": 5"), "{json}");
    assert!(json.contains("\"line\": 7"), "{json}");
    assert!(
        json.contains("\"path\": \"crates/analysis/tests/fixtures/e1_panics.rs\""),
        "{json}"
    );
}

fn run_lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cae-lint"))
        .current_dir(workspace_root())
        .args(args)
        .output()
        .expect("cae-lint runs")
}

#[test]
fn binary_exits_zero_on_clean_input() {
    let clean = fixture("clean.rs");
    let out = run_lint(&[clean.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("0 finding(s) across 1 file(s)"), "{stdout}");
}

#[test]
fn binary_exits_one_on_findings_with_file_line_diagnostics() {
    let bad = fixture("e1_panics.rs");
    let out = run_lint(&[bad.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("crates/analysis/tests/fixtures/e1_panics.rs:5: [E1]"),
        "{stdout}"
    );
    assert!(stdout.contains("2 finding(s) across 1 file(s)"), "{stdout}");
}

#[test]
fn binary_json_mode_emits_the_document() {
    let bad = fixture("e1_panics.rs");
    let out = run_lint(&["--json", bad.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"findings\": ["), "{stdout}");
    assert!(stdout.contains("\"rule\": \"E1\""), "{stdout}");
}

#[test]
fn binary_exits_two_on_usage_errors() {
    assert_eq!(run_lint(&["--no-such-flag"]).status.code(), Some(2));
    assert_eq!(run_lint(&[]).status.code(), Some(2));
}

#[test]
fn binary_rules_catalog_lists_every_rule() {
    let out = run_lint(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        ids,
        ["U2", "U3", "C2", "A1", "W1", "F1", "H1", "E1", "R1"],
        "{stdout}"
    );
    // D1 was absorbed into H1; U1 and C1 are clippy lints now.
    for gone in ["D1", "U1", "C1"] {
        assert!(!stdout.contains(gone), "{gone} was removed:\n{stdout}");
    }
}

#[test]
fn binary_rule_filter_narrows_and_validates() {
    // The e1 fixture seeds two E1 findings and nothing else; filtering
    // on a different rule reports clean (exit 0), filtering on E1 keeps
    // both, and an unknown ID is a usage error.
    let bad = fixture("e1_panics.rs");
    let path = bad.to_str().expect("utf8 path");

    let out = run_lint(&["--rule", "E1", path]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("2 finding(s)"), "{stdout}");

    let out = run_lint(&["--rule", "W1", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");

    let out = run_lint(&["--rule", "Z9", path]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown rule `Z9`"), "{stderr}");
}

#[test]
fn binary_graph_json_emits_nodes_and_edges() {
    let out = run_lint(&["--graph-json", "--workspace"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    assert!(stdout.trim_start().starts_with('{'), "{stdout:.200}");
    assert!(stdout.contains("\"nodes\": ["), "graph must list nodes");
    assert!(stdout.contains("\"edges\": ["), "graph must list edges");
    // A known workspace symbol with its identity fields.
    assert!(
        stdout.contains("\"fn\": \"write_atomic\""),
        "graph must contain persist::write_atomic"
    );
    assert!(stdout.contains("\"trait_impl\": true"), "{stdout:.200}");

    // Determinism: two runs emit byte-identical documents.
    let again = run_lint(&["--graph-json", "--workspace"]);
    assert_eq!(out.stdout, again.stdout);
}

/// The real workspace must stay lint-clean: this is the same gate CI runs
/// via `cargo run -p cae-analysis -- --workspace`.
#[test]
fn workspace_is_lint_clean() {
    let out = run_lint(&["--workspace"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "findings:\n{stdout}");
}

/// The lines of one `[section]` of a TOML file, up to the next header.
fn toml_section<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .collect()
}

/// The `// SAFETY:` and thread-spawn checks are clippy lints, which
/// `cargo test` does not run: this pins the configuration that enables
/// them, so deleting it cannot go unnoticed.
#[test]
fn clippy_config_enables_the_safety_and_spawn_lints() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let lints = toml_section(&manifest, "[workspace.lints.clippy]");
    for lint in [
        "undocumented_unsafe_blocks",
        "missing_safety_doc",
        "disallowed_methods",
    ] {
        assert!(
            lints
                .iter()
                .any(|l| *l == format!("{lint} = \"warn\"") || *l == format!("{lint} = \"deny\"")),
            "[workspace.lints.clippy] must enable {lint}"
        );
    }

    let clippy = std::fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    let settings: Vec<&str> = clippy
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('#'))
        .collect();
    assert!(
        settings.contains(&"check-private-items = true"),
        "clippy.toml must set check-private-items"
    );
    for path in [
        "std::thread::spawn",
        "std::thread::Builder::spawn",
        "std::thread::Builder::spawn_scoped",
        "std::thread::Scope::spawn",
    ] {
        let entry = format!("path = \"{path}\"");
        assert!(
            settings.iter().any(|l| l.contains(&entry)),
            "clippy.toml must ban {path}"
        );
    }
}
