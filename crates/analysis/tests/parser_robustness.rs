//! Parser robustness over the real workspace and adversarial variants.
//!
//! The lint parser must never panic and must keep its invariants — spans
//! inside the token stream, lines inside the file, items sorted by
//! position, deterministic output — on *any* input: every workspace
//! source file, plus deterministic mutations of each (truncations at
//! arbitrary char boundaries, deleted spans, injected brace noise). The
//! mutations are driven by a fixed-seed LCG so every run checks the
//! exact same corpus.

use cae_analysis::lexer::lex;
use cae_analysis::{find_workspace_root, parser, workspace_rs_files};
use std::path::Path;

/// Deterministic 64-bit LCG (Knuth MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform-ish draw in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 16) as usize % n
    }
}

/// Largest char boundary `<= at`.
fn floor_boundary(s: &str, mut at: usize) -> usize {
    at = at.min(s.len());
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Parses `src` and checks every structural invariant. Returns a stable
/// fingerprint for the determinism check.
fn check(src: &str, what: &str) -> String {
    let lexed = lex(src);
    let fns = parser::parse(&lexed);
    let n_tokens = lexed.tokens.len();
    let n_lines = src.lines().count() + 1;
    for f in &fns {
        assert!(
            f.span.0 <= f.span.1 && f.span.1 <= n_tokens.max(1),
            "{what}: span {:?} outside {n_tokens} tokens for fn `{}`",
            f.span,
            f.name
        );
        assert!(
            f.line >= 1 && f.line <= f.end_line && f.end_line <= n_lines.max(1),
            "{what}: lines {}..{} outside {n_lines} for fn `{}`",
            f.line,
            f.end_line,
            f.name
        );
        assert!(!f.name.is_empty(), "{what}: unnamed fn item");
        let site_lines = f
            .sites
            .wire_casts
            .iter()
            .map(|s| s.line)
            .chain(f.sites.spawns.iter().copied())
            .chain(f.sites.calls.iter().map(|c| c.line));
        for line in site_lines {
            assert!(
                line >= 1 && line <= n_lines.max(1),
                "{what}: site line {line} outside {n_lines}"
            );
        }
    }
    for w in fns.windows(2) {
        assert!(
            w[0].span.0 <= w[1].span.0,
            "{what}: items out of source order"
        );
    }
    format!("{fns:?}")
}

fn corpus() -> Vec<(String, String)> {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    workspace_rs_files(&root)
        .expect("walk workspace")
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable source");
            (p.display().to_string(), src)
        })
        .collect()
}

#[test]
fn every_workspace_file_parses_with_invariants_held() {
    let corpus = corpus();
    assert!(corpus.len() > 50, "workspace walk looks broken");
    for (path, src) in &corpus {
        let a = check(src, path);
        let b = check(src, path);
        assert_eq!(a, b, "{path}: non-deterministic parse");
    }
}

#[test]
fn truncated_variants_never_panic() {
    for (path, src) in &corpus() {
        let mut rng = Lcg(src.len() as u64 ^ 0x9e3779b97f4a7c15);
        // Ten arbitrary truncation points per file plus the two edges.
        let mut cuts = vec![0usize, src.len().saturating_sub(1)];
        for _ in 0..10 {
            cuts.push(floor_boundary(src, rng.below(src.len().max(1))));
        }
        for cut in cuts {
            let truncated = &src[..floor_boundary(src, cut)];
            check(truncated, &format!("{path} truncated at {cut}"));
        }
    }
}

#[test]
fn mutated_variants_never_panic() {
    for (path, src) in &corpus() {
        let mut rng = Lcg(src.len() as u64 ^ 0x5851f42d4c957f2d);
        for round in 0..6 {
            let mut s = src.clone();
            match round % 3 {
                // Delete an arbitrary span.
                0 => {
                    let a = floor_boundary(&s, rng.below(s.len().max(1)));
                    let b = floor_boundary(&s, (a + rng.below(200) + 1).min(s.len()));
                    s.replace_range(a.min(b)..a.max(b), "");
                }
                // Inject unbalanced brace/paren noise.
                1 => {
                    let at = floor_boundary(&s, rng.below(s.len().max(1)));
                    s.insert_str(at, "}}{)(fn ");
                }
                // Strip every occurrence of a structural token.
                _ => {
                    let victim = ["{", "}", "->", "fn", "impl"][rng.below(5)];
                    s = s.replace(victim, " ");
                }
            }
            let a = check(&s, &format!("{path} mutation round {round}"));
            let b = check(&s, &format!("{path} mutation round {round} (again)"));
            assert_eq!(a, b, "{path}: non-deterministic parse of mutant {round}");
        }
    }
}
