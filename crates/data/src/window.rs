//! Sliding windows over a time series.
//!
//! Windows of size `w` slide one observation at a time ("the first window is
//! ⟨s₁, …, s_w⟩ and the second is ⟨s₂, …, s_{w+1}⟩", Section 3). Because
//! [`TimeSeries`](crate::TimeSeries) is time-major, window `i` of a
//! `D`-dimensional series is the contiguous slice `i·D .. (i + w)·D`.

/// Number of sliding windows of size `w` over a series of length `len`
/// (0 when the series is shorter than one window).
pub fn num_windows(len: usize, w: usize) -> usize {
    assert!(w > 0, "window size must be positive");
    len.saturating_sub(w - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_count_arithmetic() {
        assert_eq!(num_windows(10, 3), 8);
        assert_eq!(num_windows(3, 3), 1);
        assert_eq!(num_windows(2, 3), 0);
        assert_eq!(num_windows(0, 4), 0);
    }
}
