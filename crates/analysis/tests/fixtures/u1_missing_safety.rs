//! Clippy fixture for the retired cae-lint rule U1: a bare `unsafe` block
//! with no SAFETY comment; `undocumented_unsafe_blocks` fires at line 5.

pub fn first(xs: &[u8]) -> u8 {
    unsafe { *xs.as_ptr() }
}
