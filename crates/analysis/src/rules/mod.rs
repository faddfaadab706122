//! The repo-specific lint rules and the two-pass engine driving them.
//!
//! Each rule has a stable ID used in diagnostics, in the JSON output and
//! in the `// cae-lint: allow(<rule>)` escape hatch. The rules encode the
//! safety discipline the performance core (PRs 2–5) established by
//! convention; see the README's "Static analysis & safety" section for
//! the rationale of each.
//!
//! The engine runs in two passes:
//!
//! 1. **Per file** ([`analyze_source`]): lex, parse fn items and their
//!    sites ([`crate::parser`]), collect the allow directives, and run
//!    the token rules (U2, U3, C2, H1) that need no cross-file context.
//! 2. **Per workspace** ([`finish`]): build the symbol graph
//!    ([`crate::graph`]) over every analyzed file and run the flow rules
//!    (A1, W1, F1) that reason about reachability, atomic pairings and
//!    write/sync/rename ordering; then filter everything through the
//!    allow directives.
//!
//! Path scoping uses workspace-relative paths with `/` separators. A
//! fixture (or any file) can override its effective path for scoping
//! with a `// cae-lint: path=<workspace-relative path>` directive on its
//! first lines — the lint-tool test fixtures use this to exercise
//! path-scoped rules from `crates/analysis/tests/fixtures/`.

pub mod flow;
pub mod token;

use crate::graph::SymbolGraph;
use crate::lexer::{lex, Lexed};
use crate::parser::{self, FnItem};
use std::collections::HashMap;

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`U2`, `U3`, `C2`, `A1`, `W1`, `F1`, `H1`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Rule catalog entry, for `--list-rules` and the README table.
#[derive(Debug)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule the engine enforces, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "U2",
        summary: "core::arch / _mm* intrinsics only in cae-tensor's simd.rs and gemm.rs",
    },
    RuleInfo {
        id: "U3",
        summary: "no transmute, static mut, or mem::uninitialized anywhere",
    },
    RuleInfo {
        id: "C2",
        summary: "no Mutex/RwLock acquisition inside par-pool job closures",
    },
    RuleInfo {
        id: "A1",
        summary: "no Relaxed store/rmw on an atomic read from other functions across threads; Release/Acquire-pair it or pin it in the pure-counter allowlist",
    },
    RuleInfo {
        id: "W1",
        summary: "in wire-reader code (persist/journal/snapshot/state), `as usize` values index slices only behind a bounds guard or `get(..)`",
    },
    RuleInfo {
        id: "F1",
        summary: "a fn that renames a file it wrote must sync_all/sync_data on the write path before the rename",
    },
    RuleInfo {
        id: "H1",
        summary: "no Instant/SystemTime in crates/{serve,adapt,core,data,obs}/src except the ObsClock seam (crates/obs/src/clock.rs)",
    },
];

/// Pass-1 output for one file: everything pass 2 needs.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path used in diagnostics.
    pub path: String,
    /// Effective path for rule scoping (`// cae-lint: path=…` override).
    pub scope_path: String,
    /// Parsed fn items, in source order.
    pub fns: Vec<FnItem>,
    /// Per-line allowed rule IDs.
    allows: Vec<Vec<String>>,
    /// Token-rule findings (U2, U3, C2, H1), pre-allow-filtering.
    token_findings: Vec<Finding>,
}

/// Pass 1: lexes, parses and token-lints one file.
pub fn analyze_source(rel_path: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let scope_path = path_override(src).unwrap_or_else(|| rel_path.to_string());
    let allows = allow_lines(&lexed);
    let fns = parser::parse(&lexed);
    let mut token_findings = Vec::new();
    token::run(&lexed, &scope_path, rel_path, &mut token_findings);
    FileAnalysis {
        path: rel_path.to_string(),
        scope_path,
        fns,
        allows,
        token_findings,
    }
}

/// Pass 2: builds the symbol graph over every analyzed file, runs the
/// flow rules, and applies the allow directives to the union.
pub fn finish(files: &[FileAnalysis]) -> Vec<Finding> {
    let graph = SymbolGraph::build(files);
    let mut findings: Vec<Finding> = files
        .iter()
        .flat_map(|f| f.token_findings.iter().cloned())
        .collect();
    flow::run(files, &graph, &mut findings);

    let allows: HashMap<&str, &Vec<Vec<String>>> =
        files.iter().map(|f| (f.path.as_str(), &f.allows)).collect();
    findings.retain(|f| {
        !allows
            .get(f.path.as_str())
            .and_then(|a| a.get(f.line))
            .is_some_and(|a| allows_rule(a, f.rule))
    });
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings.dedup();
    findings
}

/// Lints one source file standalone (both passes over a one-file
/// workspace). `rel_path` is the workspace-relative path used for rule
/// scoping and diagnostics (a `// cae-lint: path=…` directive in the
/// source overrides it for scoping, keeping the real path in the
/// diagnostics).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    finish(&[analyze_source(rel_path, src)])
}

// ---------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------

/// `// cae-lint: path=…` on one of the first lines of the file.
fn path_override(src: &str) -> Option<String> {
    for line in src.lines().take(5) {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("// cae-lint: path=") {
            return Some(rest.trim().to_string());
        }
    }
    None
}

/// For each line, the rules allowed on it.
///
/// A `// cae-lint: allow(A1, W1)` directive suppresses findings on its
/// own line (trailing comment) and — when it sits on a pure-comment line
/// — on the next line that has code (chained through further comment
/// lines, so a reason can follow on its own comment line).
fn allow_lines(lexed: &Lexed<'_>) -> Vec<Vec<String>> {
    let n = lexed.lines.len();
    let mut per_line: Vec<Vec<String>> = vec![Vec::new(); n];
    for (i, info) in lexed.lines.iter().enumerate() {
        let Some(rules) = parse_allow(&info.comment) else {
            continue;
        };
        per_line[i].extend(rules.iter().cloned());
        if info.pure_comment {
            // Propagate to the next code line.
            let mut j = i + 1;
            while j < n && !lexed.lines[j].has_code {
                j += 1;
            }
            if j < n {
                per_line[j].extend(rules);
            }
        }
    }
    per_line
}

fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let at = comment.find("cae-lint: allow(")?;
    let rest = &comment[at + "cae-lint: allow(".len()..];
    let close = rest.find(')')?;
    Some(
        rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

fn allows_rule(allowed: &[String], rule: &str) -> bool {
    allowed.iter().any(|a| a == rule || a == "all")
}

// ---------------------------------------------------------------------
// Path scoping helpers (shared by token and flow rules)
// ---------------------------------------------------------------------

/// Test-ish file locations: integration tests, examples, benches, bins.
/// Rules about production code don't apply there.
pub(crate) fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        || p.contains("/benches/")
        || p.contains("/src/bin/")
}

pub(crate) fn is_intrinsics_sanctioned(path: &str) -> bool {
    path == "crates/tensor/src/simd.rs" || path == "crates/tensor/src/gemm.rs"
}

/// Wire-reader code: every module that decodes length/offset fields
/// from bytes it did not produce in the same process lifetime.
pub(crate) fn is_reader_path(path: &str) -> bool {
    path == "crates/core/src/persist.rs"
        || path == "crates/data/src/journal.rs"
        || path == "crates/serve/src/snapshot.rs"
        || path == "crates/adapt/src/state.rs"
}

/// Hot-path scope for H1: the serving tiers and the scoring and
/// durability layers they drive per observation. The tensor crate is
/// exempt (the pool's spin timer reads the clock to bound its spinning,
/// not to timestamp data), as is cae-chaos.
pub(crate) fn is_hot_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path.starts_with("crates/adapt/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/data/src/")
        || path.starts_with("crates/obs/src/")
}

/// The one sanctioned wall-clock location in the hot scope: `ObsClock`
/// wraps `Instant` behind an injectable seam (mockable, and a single
/// audited site), so latency timers built on it do not trip H1.
/// Everything else in the hot scope must thread time in from a caller.
pub(crate) const H1_SANCTIONED_CLOCK: &str = "crates/obs/src/clock.rs";

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_source(path, src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn u2_scopes_to_kernel_modules() {
        let src = "use core::arch::x86_64::*;\nfn f() { let v = _mm256_setzero_ps(); }\n";
        let found = rules_of("crates/nn/src/linear.rs", src);
        assert_eq!(found, vec![("U2", 1), ("U2", 2)]);
        assert!(rules_of("crates/tensor/src/simd.rs", src).is_empty());
        assert!(rules_of("crates/tensor/src/gemm.rs", src).is_empty());
    }

    #[test]
    fn u3_flags_the_banned_constructs() {
        let src =
            "static mut G: u32 = 0;\nfn f() { let x = std::mem::transmute::<u32, f32>(1); }\n";
        let found = rules_of("crates/x/src/lib.rs", src);
        assert!(found.contains(&("U3", 1)));
        assert!(found.contains(&("U3", 2)));
    }

    #[test]
    fn c2_flags_locks_inside_fan_out_closures() {
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n    par::for_each_index(4, |i| {\n        let _g = m.lock();\n    });\n}\n";
        assert_eq!(
            rules_of("crates/baselines/src/lof.rs", src),
            vec![("C2", 3)]
        );
        // A lock outside the closure span is fine.
        let outside = "fn f(m: &std::sync::Mutex<u32>) {\n    let _g = m.lock();\n    par::for_each_index(4, |i| { work(i); });\n}\n";
        assert!(rules_of("crates/baselines/src/lof.rs", outside).is_empty());
        // `for_each_mut` tasks own their items: a lock there is flagged too.
        let owned = "fn f(tapes: &mut [Mutex<Tape>]) {\n    par::for_each_mut(tapes, |_, t| {\n        t.lock();\n    });\n}\n";
        assert_eq!(rules_of("crates/core/src/shard.rs", owned), vec![("C2", 3)]);
    }

    #[test]
    fn a1_flags_cross_thread_relaxed_publishes() {
        // A Relaxed store on an ALL_CAPS static read elsewhere: flagged.
        let bad = "pub fn set(n: usize) { THREADS.store(n, Ordering::Relaxed); }\n\
                   pub fn get() -> usize { THREADS.load(Ordering::Relaxed) }\n";
        assert_eq!(rules_of("crates/x/src/lib.rs", bad), vec![("A1", 1)]);

        // Release store: clean.
        let rel = "pub fn set(n: usize) { THREADS.store(n, Ordering::Release); }\n\
                   pub fn get() -> usize { THREADS.load(Ordering::Acquire) }\n";
        assert!(rules_of("crates/x/src/lib.rs", rel).is_empty());

        // Same-fn memoization (store + load in one fn): not cross-fn.
        let memo = "pub fn detect() -> bool {\n    match FLAG.load(Ordering::Relaxed) {\n        0 => { FLAG.store(1, Ordering::Relaxed); true }\n        _ => false,\n    }\n}\n";
        assert!(rules_of("crates/x/src/lib.rs", memo).is_empty());

        // Field atomics need a spawn-reachable endpoint.
        let field = "fn worker(&self) { self.done.store(true, Ordering::Relaxed); }\n\
                     fn check(&self) -> bool { self.done.load(Ordering::Acquire) }\n";
        assert!(
            rules_of("crates/x/src/lib.rs", field).is_empty(),
            "no spawn in sight: not provably cross-thread"
        );
        let spawned = "pub fn start(&self) { std::thread::spawn(move || worker()); }\n\
                       fn worker() { DONE_FLAG.store(true, Ordering::Relaxed); }\n\
                       pub fn check() -> bool { DONE_FLAG.load(Ordering::Acquire) }\n";
        assert_eq!(
            rules_of("crates/adapt/src/lib.rs", spawned),
            vec![("A1", 2)]
        );
    }

    #[test]
    fn w1_flags_unguarded_wire_casts_in_reader_scope_only() {
        let bad = "pub fn read(b: &[u8], len: u32) -> u8 { b[len as usize] }\n";
        assert_eq!(rules_of("crates/data/src/journal.rs", bad), vec![("W1", 1)]);
        // Same code outside reader scope: quiet.
        assert!(rules_of("crates/core/src/ensemble.rs", bad).is_empty());
        // Guarded version: quiet even in reader scope.
        let good = "pub fn read(b: &[u8], len: u32) -> Option<&u8> { b.get(len as usize) }\n";
        assert!(rules_of("crates/data/src/journal.rs", good).is_empty());
    }

    #[test]
    fn f1_requires_sync_between_write_and_rename() {
        let bad = "pub fn save(p: &Path, tmp: &Path, b: &[u8]) -> Result<(), E> {\n\
                       let mut f = File::create(tmp)?;\n\
                       f.write_all(b)?;\n\
                       std::fs::rename(tmp, p)?;\n\
                       Ok(())\n\
                   }\n";
        assert_eq!(rules_of("crates/core/src/persist.rs", bad), vec![("F1", 4)]);

        let good = "pub fn save(p: &Path, tmp: &Path, b: &[u8]) -> Result<(), E> {\n\
                        let mut f = File::create(tmp)?;\n\
                        f.write_all(b)?;\n\
                        f.sync_all()?;\n\
                        std::fs::rename(tmp, p)?;\n\
                        Ok(())\n\
                    }\n";
        assert!(rules_of("crates/core/src/persist.rs", good).is_empty());

        // The write and sync may live in a callee.
        let helper = "fn flush(f: &mut File, b: &[u8]) -> Result<(), E> { f.write_all(b)?; f.sync_data()?; Ok(()) }\n\
                      pub fn save(p: &Path, tmp: &Path, f: &mut File, b: &[u8]) -> Result<(), E> {\n\
                          flush(f, b)?;\n\
                          std::fs::rename(tmp, p)?;\n\
                          Ok(())\n\
                      }\n";
        assert!(rules_of("crates/core/src/persist.rs", helper).is_empty());

        // A pure move (rename without any write) is fine.
        let mv =
            "pub fn mv(a: &Path, b: &Path) -> Result<(), E> { std::fs::rename(a, b)?; Ok(()) }\n";
        assert!(rules_of("crates/core/src/persist.rs", mv).is_empty());
    }

    #[test]
    fn h1_flags_every_wall_clock_token_in_the_hot_scope() {
        // A wall-clock read fires wherever it sits in a hot-scope file,
        // reached from a scoring entry or not, item-level state included.
        let clock = "impl FleetDetector {\n\
                         pub fn push(&mut self) { let t = Instant::now(); }\n\
                     }\n\
                     fn cold() -> u64 { since(SystemTime::now()) }\n\
                     struct Timed { at: Instant }\n";
        let fired = vec![("H1", 2), ("H1", 4), ("H1", 5)];
        for path in ["crates/serve/src/lib.rs", "crates/data/src/journal.rs"] {
            assert_eq!(rules_of(path, clock), fired, "{path}");
        }
        // Outside the hot scope (other crates, tests) the clock is free.
        assert!(rules_of("crates/tensor/src/par.rs", clock).is_empty());
        assert!(rules_of("crates/serve/tests/race.rs", clock).is_empty());

        // Allocations are the runtime test's business, not H1's.
        let alloc = "impl FleetDetector {\n\
                         pub fn tick(&mut self) { let v = vec![0.0f32; 8]; }\n\
                     }\n";
        assert!(rules_of("crates/serve/src/lib.rs", alloc).is_empty());
    }

    #[test]
    fn h1_sanctions_only_the_obs_clock_seam() {
        // An `Instant` read stays quiet in the one sanctioned clock file…
        let seam = "impl FleetDetector {\n\
                        pub fn push(&mut self) { self.t = clock_now_ns(); }\n\
                    }\n\
                    pub fn clock_now_ns() -> u64 { let at = Instant::now(); 0 }\n";
        assert!(rules_of(H1_SANCTIONED_CLOCK, seam).is_empty());

        // …and still fires for the identical shape anywhere else in the
        // hot scope — the sanction is a file, not a crate.
        assert_eq!(
            rules_of("crates/obs/src/registry.rs", seam),
            vec![("H1", 4)]
        );
        assert_eq!(rules_of("crates/serve/src/lib.rs", seam), vec![("H1", 4)]);
    }

    #[test]
    fn allow_comment_suppresses_trailing_and_next_line() {
        let journal = "crates/data/src/journal.rs";
        let trailing =
            "pub fn f(b: &[u8], n: u32) -> u8 { b[n as usize] } // cae-lint: allow(W1) n checked\n";
        assert!(rules_of(journal, trailing).is_empty());

        let above = "// cae-lint: allow(W1) — the caller bounds n\npub fn f(b: &[u8], n: u32) -> u8 { b[n as usize] }\n";
        assert!(rules_of(journal, above).is_empty());

        // The wrong rule ID does not suppress.
        let wrong = "// cae-lint: allow(H1)\npub fn f(b: &[u8], n: u32) -> u8 { b[n as usize] }\n";
        assert_eq!(rules_of(journal, wrong), vec![("W1", 2)]);
    }

    #[test]
    fn path_directive_overrides_scoping_but_not_diagnostics() {
        let src = "// cae-lint: path=crates/data/src/journal.rs\npub fn f(b: &[u8], n: u32) -> u8 { b[n as usize] }\n";
        let found = lint_source("crates/analysis/tests/fixtures/w1.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "W1");
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].path, "crates/analysis/tests/fixtures/w1.rs");
    }
}
