//! Online (streaming) outlier scoring — the setting of the paper's
//! Section 4.2.7 / Table 8.
//!
//! "In a streaming setting, we aim at returning an outlier score whenever
//! we receive a new observation. To do so, we create a window with the
//! observation and its previous w−1 observations" — training happens
//! offline; the online phase only runs the already-learned ensemble
//! forward on one window.

use crate::CaeEnsemble;
use cae_autograd::Tape;
use cae_tensor::Tensor;

/// Wraps a trained [`CaeEnsemble`] with a ring buffer of the last `w`
/// observations for per-observation scoring.
///
/// Scoring is allocation-free at steady state, like the batch path: the
/// ring of raw observations and the `(1, w, dim)` window tensor are
/// retained and re-filled in place (the window re-scaled via
/// [`cae_data::Scaler::apply_in_place`]), and the members run the
/// tape-free forward ([`crate::Cae::infer`]) on scratch-pool buffers.
/// `crates/serve/tests/steady_state_allocs.rs` counts every allocation
/// of 100 warm pushes, at pools 1 and 2, and requires zero.
///
/// This scores one stream at a time, `B = 1` forwards per observation.
/// To serve many concurrent streams against one loaded ensemble, use the
/// fleet detector in `cae-serve`, which pools all ready streams into one
/// batch per tick via [`CaeEnsemble::score_scaled_windows_into`].
pub struct StreamingDetector<'a> {
    ensemble: &'a CaeEnsemble,
    /// The last `w` raw observations, oldest first; the last `filled`
    /// of them have been pushed since the start or the last reset.
    ring: Vec<f32>,
    filled: usize,
    /// Reused `(1, w, dim)` window tensor.
    window_buf: Tensor,
    /// Reused one-score output buffer.
    score_buf: Vec<f32>,
}

impl std::fmt::Debug for StreamingDetector<'_> {
    /// Fill level only — the ensemble summarizes poorly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingDetector")
            .field("buffered", &self.filled)
            .finish_non_exhaustive()
    }
}

impl<'a> StreamingDetector<'a> {
    /// A streaming scorer over a **fitted** ensemble.
    pub fn new(ensemble: &'a CaeEnsemble) -> Self {
        assert!(
            ensemble.num_members() > 0,
            "StreamingDetector requires a fitted ensemble"
        );
        let (w, dim) = (ensemble.model_config().window, ensemble.model_config().dim);
        StreamingDetector {
            ensemble,
            ring: vec![0.0; w * dim],
            filled: 0,
            window_buf: Tensor::zeros_pooled(&[1, w, dim]),
            score_buf: Vec::with_capacity(1),
        }
    }

    /// Window size `w` of the underlying model.
    pub fn window(&self) -> usize {
        self.ensemble.model_config().window
    }

    /// Number of observations buffered so far (saturates at `w`).
    pub fn buffered(&self) -> usize {
        self.filled
    }

    /// Feeds one observation; returns its outlier score once `w`
    /// observations have been seen (`None` during the warm-up).
    ///
    /// The score is the ensemble-median reconstruction error of the **last**
    /// position of the window ending at this observation — the same
    /// protocol the batch scorer applies to non-initial windows
    /// (Figure 10).
    pub fn push(&mut self, observation: &[f32]) -> Option<f32> {
        let dim = self.ensemble.model_config().dim;
        assert_eq!(
            observation.len(),
            dim,
            "observation dim {} != model dim {dim}",
            observation.len()
        );
        // Shift the oldest observation out and append the new one.
        self.ring.copy_within(dim.., 0);
        let newest = self.ring.len() - dim;
        self.ring[newest..].copy_from_slice(observation);
        self.filled = (self.filled + 1).min(self.window());
        if self.filled < self.window() {
            return None;
        }

        // Copy the window into the pooled tensor and standardize it in
        // place with the training scaler.
        let data = self.window_buf.data_mut();
        data.copy_from_slice(&self.ring);
        if let Some(s) = self.ensemble.scaler() {
            s.apply_in_place(data);
        }

        // Median across members of the last position's error — the shared
        // serving path at batch size 1.
        self.score_buf.clear();
        self.ensemble.score_scaled_windows_into(
            &mut Tape::new(),
            &self.window_buf,
            &mut self.score_buf,
        );
        Some(self.score_buf[0])
    }

    /// Clears the warm-up buffer (e.g. after a stream gap).
    pub fn reset(&mut self) {
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaeConfig, EnsembleConfig};
    use cae_data::{Detector, TimeSeries};

    fn fitted_ensemble() -> CaeEnsemble {
        let series = TimeSeries::univariate((0..200).map(|t| (t as f32 * 0.3).sin()).collect());
        let mc = CaeConfig::new(1).embed_dim(8).window(8).layers(1);
        let ec = EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .batch_size(16)
            .train_stride(2)
            .seed(23);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&series);
        ens
    }

    #[test]
    fn warm_up_returns_none_then_scores() {
        let ens = fitted_ensemble();
        let mut stream = StreamingDetector::new(&ens);
        for t in 0..7 {
            assert!(stream.push(&[(t as f32 * 0.3).sin()]).is_none(), "t={t}");
        }
        let s = stream.push(&[(7.0f32 * 0.3).sin()]);
        assert!(s.is_some());
        assert!(s.unwrap() >= 0.0);
    }

    #[test]
    fn streaming_matches_batch_scores() {
        let ens = fitted_ensemble();
        let test = TimeSeries::univariate((0..60).map(|t| (t as f32 * 0.3).sin()).collect());
        let batch_scores = ens.score(&test);

        let mut stream = StreamingDetector::new(&ens);
        let mut online = Vec::new();
        for t in 0..test.len() {
            if let Some(s) = stream.push(test.observation(t)) {
                online.push((t, s));
            }
        }
        // Streaming scores start at t = w−1 and must equal the batch
        // scores at the same positions (batch t < w−1 come from the first
        // window's interior, which streaming does not emit).
        for &(t, s) in &online {
            assert!(
                (s - batch_scores[t]).abs() < 1e-4,
                "mismatch at t={t}: streaming {s} vs batch {}",
                batch_scores[t]
            );
        }
        assert_eq!(online.len(), test.len() - (ens.model_config().window - 1));
    }

    #[test]
    fn reset_restarts_warm_up() {
        let ens = fitted_ensemble();
        let mut stream = StreamingDetector::new(&ens);
        for t in 0..10 {
            stream.push(&[t as f32]);
        }
        stream.reset();
        assert_eq!(stream.buffered(), 0);
        assert!(stream.push(&[0.0]).is_none());
    }
}
