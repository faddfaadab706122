// cae-lint: path=crates/serve/src/lib.rs
//! Clean fixture: nothing in this file fires any rule.

/// Serving code returns typed errors instead of panicking.
pub fn checked_div(a: u32, b: u32) -> Result<u32, String> {
    if b == 0 {
        return Err("division by zero".to_string());
    }
    Ok(a / b)
}

/// A SAFETY-commented unsafe block satisfies `undocumented_unsafe_blocks`.
pub fn first_byte(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assert above guarantees at least one element.
    unsafe { *bytes.as_ptr() }
}
