//! Clippy fixture for the retired cae-lint rule R1: an `unwrap` inside a
//! Result-returning recovery-path fn; `unwrap_used` and `unwrap_in_result`
//! fire at line 7. The Option-returning neighbor stays clean.
pub struct ParseError;

pub fn armed_payload() -> Result<u64, ParseError> {
    let raw = std::env::var("CHAOS_PAYLOAD").unwrap(); // line 7
    raw.parse().map_err(|_| ParseError)
}

pub fn armed_payload_opt() -> Option<u64> {
    std::env::var("CHAOS_PAYLOAD").ok()?.parse().ok()
}
