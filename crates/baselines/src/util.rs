//! Shared helpers for the baseline detectors, including the one
//! training, loss and scoring path of the recurrent autoencoders (RAE,
//! RNNVAE, OmniAnomaly), which reconstruct a window one step at a time.

use cae_autograd::{Tape, Var};
use cae_data::{num_windows, scoring::series_scores_from_window_errors, TimeSeries};
use cae_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Windows per inference chunk when the recurrent baselines score.
const INFERENCE_BATCH: usize = 64;

/// Copies the windows starting at `starts` into a `(B, w, D)` batch tensor.
pub fn gather_windows(series: &TimeSeries, starts: &[usize], w: usize) -> Tensor {
    let d = series.dim();
    let mut data = vec![0.0f32; starts.len() * w * d];
    for (row, &s) in starts.iter().enumerate() {
        let src = &series.data()[s * d..(s + w) * d];
        data[row * w * d..(row + 1) * w * d].copy_from_slice(src);
    }
    Tensor::from_vec(data, &[starts.len(), w, d])
}

/// Copies the observations at `indices` into a `(B, D)` batch tensor.
pub fn gather_observations(series: &TimeSeries, indices: &[usize]) -> Tensor {
    let d = series.dim();
    let mut data = vec![0.0f32; indices.len() * d];
    for (row, &t) in indices.iter().enumerate() {
        data[row * d..(row + 1) * d].copy_from_slice(series.observation(t));
    }
    Tensor::from_vec(data, &[indices.len(), d])
}

/// Observation `t` of every window in a `(B, w, D)` batch, as a `(B, D)`
/// tensor: a recurrent autoencoder's step-`t` input and target.
pub fn step_observations(batch: &Tensor, t: usize) -> Tensor {
    let (b, w, d) = (batch.dims()[0], batch.dims()[1], batch.dims()[2]);
    let mut data = vec![0.0f32; b * d];
    for bi in 0..b {
        data[bi * d..(bi + 1) * d]
            .copy_from_slice(&batch.data()[(bi * w + t) * d..(bi * w + t + 1) * d]);
    }
    Tensor::from_vec(data, &[b, d])
}

/// Runs `epochs` passes of shuffled mini-batches over the windows of
/// `scaled` that start every `stride` observations, calling `step` with
/// each `(B, w, D)` batch and the RNG (for noise draws).
pub fn for_each_batch(
    scaled: &TimeSeries,
    w: usize,
    stride: usize,
    epochs: usize,
    batch_size: usize,
    rng: &mut StdRng,
    mut step: impl FnMut(&Tensor, &mut StdRng),
) {
    let starts: Vec<usize> = (0..=scaled.len() - w).step_by(stride).collect();
    let mut order: Vec<usize> = (0..starts.len()).collect();
    for _ in 0..epochs {
        order.shuffle(rng);
        for chunk in order.chunks(batch_size) {
            let batch_starts: Vec<usize> = chunk.iter().map(|&i| starts[i]).collect();
            step(&gather_windows(scaled, &batch_starts, w), rng);
        }
    }
}

/// The recurrent reconstruction loss: the mean over window positions of
/// the step MSE between `recon` (one `(B, D)` output per position, in
/// forward order) and the observations of `batch`.
pub fn step_recon_loss(tape: &mut Tape, recon: &[Var], batch: &Tensor) -> Var {
    let mut total: Option<Var> = None;
    for (t, &var) in recon.iter().enumerate() {
        let step = tape.mse_loss(var, &step_observations(batch, t));
        total = Some(match total {
            Some(acc) => tape.add(acc, step),
            None => step,
        });
    }
    let total = total.expect("window has at least one step");
    tape.mul_scalar(total, 1.0 / recon.len() as f32)
}

/// Per-window, per-position squared errors of the reconstructions
/// `recon` (as in [`step_recon_loss`]) against `batch`, `(B × w)`
/// row-major.
pub fn step_errors(tape: &Tape, recon: &[Var], batch: &Tensor) -> Vec<f32> {
    let (b, w, d) = (batch.dims()[0], batch.dims()[1], batch.dims()[2]);
    let mut errors = vec![0.0f32; b * w];
    for (t, &var) in recon.iter().enumerate() {
        let out = tape.value(var);
        for bi in 0..b {
            let mut e = 0.0f32;
            for di in 0..d {
                let diff = out.data()[bi * d + di] - batch.data()[(bi * w + t) * d + di];
                e += diff * diff;
            }
            errors[bi * w + t] = e;
        }
    }
    errors
}

/// One score per observation of `scaled`: `window_errors` (a
/// [`step_errors`] row per window) over every window, in inference
/// chunks, mapped by the Figure 10 protocol.
pub fn window_scores(
    scaled: &TimeSeries,
    w: usize,
    window_errors: impl Fn(&Tensor) -> Vec<f32>,
) -> Vec<f32> {
    assert!(scaled.len() >= w, "test series shorter than one window");
    let n_win = num_windows(scaled.len(), w);
    let mut errors = Vec::with_capacity(n_win * w);
    let starts: Vec<usize> = (0..n_win).collect();
    for chunk in starts.chunks(INFERENCE_BATCH) {
        errors.extend(window_errors(&gather_windows(scaled, chunk, w)));
    }
    series_scores_from_window_errors(&errors, n_win, w)
}

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The sine series the recurrent baselines' tests train on.
    pub(crate) fn sine(len: usize) -> TimeSeries {
        TimeSeries::univariate((0..len).map(|t| (t as f32 * 0.4).sin()).collect())
    }

    #[test]
    fn gather_windows_copies_rows() {
        let s = TimeSeries::new((0..12).map(|x| x as f32).collect(), 2);
        let batch = gather_windows(&s, &[0, 2], 3);
        assert_eq!(batch.dims(), &[2, 3, 2]);
        assert_eq!(&batch.data()[..6], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&batch.data()[6..], &[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn gather_observations_copies_points() {
        let s = TimeSeries::new((0..8).map(|x| x as f32).collect(), 2);
        let batch = gather_observations(&s, &[3, 0]);
        assert_eq!(batch.dims(), &[2, 2]);
        assert_eq!(batch.data(), &[6.0, 7.0, 0.0, 1.0]);
    }

    #[test]
    fn sq_dist_known() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }
}
