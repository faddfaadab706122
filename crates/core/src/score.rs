//! Outlier-score assembly (Eq. 14–15 and Figure 10).
//!
//! The implementations live in [`cae_data::scoring`] because every windowed
//! baseline shares them; this module re-exports them under the paper's
//! names:
//!
//! * [`median`] / [`median_scores`] — Eq. 15, the ensemble's median
//!   aggregation of per-model reconstruction errors (Eq. 14).
//! * [`series_scores_from_window_errors`] — the Figure 10 protocol mapping
//!   overlapping windows to one score per observation.

pub use cae_data::scoring::{median, median_scores, series_scores_from_window_errors};

#[cfg(test)]
mod tests {
    use super::*;

    // The full unit suites live in `cae_data::scoring`; these smoke tests
    // pin the re-exported behaviour the ensemble depends on.

    #[test]
    fn median_reexport_behaves() {
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn protocol_reexport_behaves() {
        let errors = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            series_scores_from_window_errors(&errors, 2, 2),
            vec![1.0, 2.0, 4.0]
        );
    }

    #[test]
    fn median_scores_reexport_behaves() {
        assert_eq!(median_scores(&[vec![1.0], vec![3.0], vec![2.0]]), vec![2.0]);
    }
}
