//! Pass-1 token rules: U2, U3, C2, H1.
//!
//! These need no cross-file context — they fire on token patterns alone
//! — so they run per file during [`super::analyze_source`]. The flow
//! rules live in [`super::flow`]. The `// SAFETY:` and thread-spawn
//! checks are clippy lints (`undocumented_unsafe_blocks`,
//! `missing_safety_doc`, `disallowed_methods`; see the root
//! `clippy.toml`).

use super::{is_hot_scope, is_intrinsics_sanctioned, is_test_path, Finding, H1_SANCTIONED_CLOCK};
use crate::lexer::Lexed;

/// Runs every token rule over one lexed file.
pub fn run(lexed: &Lexed<'_>, scope_path: &str, path: &str, findings: &mut Vec<Finding>) {
    rule_u2_intrinsics_confined(lexed, scope_path, path, findings);
    rule_u3_forbidden_constructs(lexed, path, findings);
    rule_c2_locks_in_pool_jobs(lexed, scope_path, path, findings);
    rule_h1_wall_clock(lexed, scope_path, path, findings);
}

/// U2: SIMD intrinsics and `core::arch`/`std::arch` imports are confined
/// to the two kernel modules.
fn rule_u2_intrinsics_confined(
    lexed: &Lexed<'_>,
    scope_path: &str,
    path: &str,
    findings: &mut Vec<Finding>,
) {
    if is_intrinsics_sanctioned(scope_path) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let arch_path = t.text == "arch"
            && i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && matches!(toks[i - 3].text, "core" | "std");
        let intrinsic = t.text.starts_with("_mm") && t.is_ident();
        if intrinsic || arch_path {
            findings.push(Finding {
                rule: "U2",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` outside the sanctioned SIMD modules (crates/tensor/src/{{simd,gemm}}.rs)",
                    t.text
                ),
            });
        }
    }
}

/// U3: constructs that are banned workspace-wide, tests included. No
/// clippy or rustc lint flags a `static mut` item, so this stays here.
fn rule_u3_forbidden_constructs(lexed: &Lexed<'_>, path: &str, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let bad = match t.text {
            "transmute" | "transmute_copy" => Some("mem::transmute bypasses every type-level invariant; use typed conversions or raw-pointer casts with a SAFETY contract"),
            "uninitialized" => Some("mem::uninitialized is instant UB; use MaybeUninit"),
            "static" if toks.get(i + 1).is_some_and(|n| n.text == "mut") => {
                Some("static mut is unsynchronized shared mutable state; use atomics or OnceLock")
            }
            _ => None,
        };
        if let Some(why) = bad {
            findings.push(Finding {
                rule: "U3",
                path: path.to_string(),
                line: t.line,
                message: format!("forbidden construct `{}`: {why}", t.text),
            });
        }
    }
}

/// C2: no lock acquisition inside par-pool job closures. The pool runs
/// one job at a time and the submitter participates; a lock shared with
/// the submitting side inverts the pool's ordering assumptions and can
/// deadlock (and any contended lock serializes the fan-out).
fn rule_c2_locks_in_pool_jobs(
    lexed: &Lexed<'_>,
    scope_path: &str,
    path: &str,
    findings: &mut Vec<Finding>,
) {
    // The pool implementation itself synchronizes with its own mutex,
    // outside job closures.
    if scope_path == "crates/tensor/src/par.rs" || is_test_path(scope_path) {
        return;
    }
    const FAN_OUT: &[&str] = &[
        "for_each_chunk",
        "for_each_index",
        "for_each_mut",
        "for_each_span",
        "map_indexed",
        "map_indexed_min",
    ];
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if !(FAN_OUT.contains(&t.text) && toks.get(i + 1).is_some_and(|n| n.text == "(")) {
            i += 1;
            continue;
        }
        // Span of the call's argument list (matching paren).
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        for k in i + 2..j {
            let tk = toks[k];
            let lock_call = tk.text == "lock"
                && k >= 1
                && toks[k - 1].text == "."
                && toks.get(k + 1).is_some_and(|n| n.text == "(");
            let lock_type = matches!(tk.text, "Mutex" | "RwLock");
            if lock_call || lock_type {
                findings.push(Finding {
                    rule: "C2",
                    path: path.to_string(),
                    line: tk.line,
                    message: format!(
                        "`{}` inside a `{}` pool-job closure: pool jobs must write disjoint outputs, not synchronize",
                        tk.text, t.text
                    ),
                });
            }
        }
        i = j + 1;
    }
}

/// H1: no `Instant` or `SystemTime` token in the hot scope outside the
/// `ObsClock` seam. Wall-clock reads break deterministic replay in
/// whichever layer makes them, so every token counts, reachable from a
/// scoring entry or not. That the serving paths allocate nothing is a
/// runtime test (`crates/serve/tests/steady_state_allocs.rs`).
fn rule_h1_wall_clock(
    lexed: &Lexed<'_>,
    scope_path: &str,
    path: &str,
    findings: &mut Vec<Finding>,
) {
    if !is_hot_scope(scope_path) || scope_path == H1_SANCTIONED_CLOCK {
        return;
    }
    for t in lexed
        .tokens
        .iter()
        .filter(|t| matches!(t.text, "Instant" | "SystemTime"))
    {
        findings.push(Finding {
            rule: "H1",
            path: path.to_string(),
            line: t.line,
            message: format!(
                "`{}` in serving, scoring or durability code: wall-clock reads break deterministic replay; thread timestamps in from the caller or time through `ObsClock`",
                t.text
            ),
        });
    }
}
