// cae-lint: path=crates/data/src/journal.rs
//! Allow fixture: trailing and preceding `allow` directives suppress a
//! finding; a mismatched rule ID does not.

pub fn trailing(buf: &[u8], len: u32) -> u8 {
    buf[len as usize] // cae-lint: allow(W1) — fixture invariant
}

pub fn preceding(buf: &[u8], len: u32) -> u8 {
    // cae-lint: allow(W1) — the reason may continue on further
    // comment lines before the code line it suppresses.
    buf[len as usize]
}

pub fn mismatched(buf: &[u8], len: u32) -> u8 {
    // cae-lint: allow(H1) — wrong rule: W1 still fires below
    buf[len as usize]
}
