//! Clippy fixture for the retired cae-lint rule E1: panicking calls in
//! serving-path library code; `unwrap_used` fires at line 5 and `panic`
//! at line 7.
pub fn head(xs: &[f32]) -> f32 {
    let first = *xs.first().unwrap();
    if !first.is_finite() {
        panic!("non-finite head");
    }
    first
}
