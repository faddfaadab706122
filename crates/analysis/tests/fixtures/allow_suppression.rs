// cae-lint: path=crates/serve/src/lib.rs
//! Allow fixture: trailing and preceding `allow` directives suppress a
//! finding; a mismatched rule ID does not.

pub fn trailing(xs: &[f32]) -> f32 {
    *xs.first().unwrap() // cae-lint: allow(E1) — fixture invariant
}

pub fn preceding(xs: &[f32]) -> f32 {
    // cae-lint: allow(E1) — the reason may continue on further
    // comment lines before the code line it suppresses.
    *xs.last().unwrap()
}

pub fn mismatched(xs: &[f32]) -> f32 {
    // cae-lint: allow(W1) — wrong rule: E1 still fires below
    *xs.get(1).unwrap()
}
