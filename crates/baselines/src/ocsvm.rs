//! One-class SVM (Schölkopf et al., NIPS 1999) with an RBF kernel.
//!
//! "A one-class classification method that employs Support Vector Machines
//! to learn the boundary of normal data points. We use a radial basis
//! function kernel with ν = 0.5" (paper Section 4.1.2).
//!
//! **Substitution note**: instead of a dual SMO solver, the
//! RBF kernel is approximated with random Fourier features
//! (Rahimi & Recht, 2007): `k(x, y) ≈ z(x)·z(y)` with
//! `z(x) = √(2/R)·cos(Wx + b)`, `W ~ N(0, 2γ)`, `b ~ U[0, 2π)`. The primal
//! ν-OCSVM objective `½‖w‖² − ρ + 1/(νn) Σ max(0, ρ − w·z_i)` is then
//! minimized by plain SGD over `(w, ρ)`. The decision geometry — a soft
//! boundary enclosing the normal data in RBF feature space — is preserved.

use cae_data::{Detector, Scaler, TimeSeries};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ν-OCSVM hyperparameters.
#[derive(Clone, Debug)]
pub struct OcsvmConfig {
    /// Fraction of training points allowed outside the boundary
    /// (paper: 0.5).
    pub nu: f32,
    /// RBF kernel width γ; `None` ⇒ `1 / D` (the "scale" heuristic on
    /// z-scored data).
    pub gamma: Option<f32>,
    /// Number of random Fourier features.
    pub num_features: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OcsvmConfig {
    fn default() -> Self {
        OcsvmConfig {
            nu: 0.5,
            gamma: None,
            num_features: 128,
            epochs: 30,
            learning_rate: 0.05,
            seed: 42,
        }
    }
}

/// The OCSVM baseline.
pub struct OneClassSvm {
    cfg: OcsvmConfig,
    scaler: Option<Scaler>,
    /// RFF projection `(R × D)` row-major.
    proj: Vec<f32>,
    /// RFF phases, length `R`.
    phase: Vec<f32>,
    /// Primal weights, length `R`.
    w: Vec<f32>,
    rho: f32,
    dim: usize,
}

impl std::fmt::Debug for OneClassSvm {
    /// Config and model shape only — the RFF projection is `R × D` floats.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneClassSvm")
            .field("cfg", &self.cfg)
            .field("rho", &self.rho)
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

impl OneClassSvm {
    /// OCSVM with the given configuration.
    pub fn new(cfg: OcsvmConfig) -> Self {
        OneClassSvm {
            cfg,
            scaler: None,
            proj: Vec::new(),
            phase: Vec::new(),
            w: Vec::new(),
            rho: 0.0,
            dim: 0,
        }
    }

    /// OCSVM with the paper's configuration (RBF, ν = 0.5).
    pub fn with_defaults() -> Self {
        Self::new(OcsvmConfig::default())
    }

    /// The random Fourier feature map of one observation.
    fn features(&self, x: &[f32], out: &mut [f32]) {
        let r = self.cfg.num_features;
        let scale = (2.0f32 / r as f32).sqrt();
        for (j, o) in out.iter_mut().enumerate() {
            let row = &self.proj[j * self.dim..(j + 1) * self.dim];
            let dot: f32 = row.iter().zip(x.iter()).map(|(&a, &b)| a * b).sum();
            *o = scale * (dot + self.phase[j]).cos();
        }
    }
}

impl Detector for OneClassSvm {
    fn name(&self) -> &str {
        "OCSVM"
    }

    fn fit(&mut self, train: &TimeSeries) {
        assert!(!train.is_empty(), "cannot fit on an empty series");
        self.scaler = Some(Scaler::fit(train));
        let scaled = self.scaler.as_ref().expect("just set").transform(train);
        self.dim = scaled.dim();
        let gamma = self.cfg.gamma.unwrap_or(1.0 / self.dim as f32);

        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let r = self.cfg.num_features;
        // W ~ N(0, 2γ) so that E[z(x)·z(y)] = exp(−γ‖x−y‖²).
        let std = (2.0 * gamma).sqrt();
        self.proj = (0..r * self.dim)
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                std * (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
            })
            .collect();
        self.phase = (0..r)
            .map(|_| rng.gen_range(0.0..std::f32::consts::TAU))
            .collect();

        // Primal SGD on ½‖w‖² − ρ + 1/(νn) Σ hinge(ρ − w·z_i).
        self.w = vec![0.0f32; r];
        self.rho = 0.0;
        let n = scaled.len();
        // Per-sample objective (× n): ½‖w‖² − ρ + (1/ν)·hinge(ρ − w·z_i),
        // whose stochastic gradients are
        //   ∂w = w − (1/ν)·z·[margin < 0],   ∂ρ = −1 + (1/ν)·[margin < 0].
        let inv_nu = 1.0 / self.cfg.nu;
        let mut z = vec![0.0f32; r];
        let mut order: Vec<usize> = (0..n).collect();
        for epoch in 0..self.cfg.epochs {
            // Simple decay keeps late epochs refining the boundary.
            let lr = self.cfg.learning_rate / (1.0 + epoch as f32 * 0.2);
            for i in 0..n {
                let j = rng.gen_range(i..n);
                order.swap(i, j);
                let t = order[i];
                self.features(scaled.observation(t), &mut z);
                let margin: f32 = self
                    .w
                    .iter()
                    .zip(z.iter())
                    .map(|(&a, &b)| a * b)
                    .sum::<f32>()
                    - self.rho;
                let active = if margin < 0.0 { inv_nu } else { 0.0 };
                for (wj, &zj) in self.w.iter_mut().zip(z.iter()) {
                    *wj -= lr * (*wj - active * zj);
                }
                self.rho -= lr * (-1.0 + active);
            }
        }
    }

    fn score(&self, test: &TimeSeries) -> Vec<f32> {
        assert!(!self.w.is_empty(), "score() before fit()");
        let scaled = self.scaler.as_ref().expect("fitted").transform(test);
        assert_eq!(scaled.dim(), self.dim, "test dim mismatch");
        let mut z = vec![0.0f32; self.cfg.num_features];
        (0..scaled.len())
            .map(|t| {
                self.features(scaled.observation(t), &mut z);
                let f: f32 = self.w.iter().zip(z.iter()).map(|(&a, &b)| a * b).sum();
                // Outlier score: distance below the boundary.
                self.rho - f
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = TimeSeries::empty(2);
        for _ in 0..n {
            s.push(&[rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
        }
        s
    }

    #[test]
    fn far_point_scores_above_inliers() {
        let train = cluster(400, 1);
        let mut test = cluster(40, 2);
        test.push(&[20.0, 20.0]);
        let mut svm = OneClassSvm::with_defaults();
        svm.fit(&train);
        let scores = svm.score(&test);
        let outlier = scores[40];
        let mean_inlier: f32 = scores[..40].iter().sum::<f32>() / 40.0;
        assert!(
            outlier > mean_inlier,
            "outlier {outlier} not above inlier mean {mean_inlier}"
        );
    }

    #[test]
    fn rff_approximates_rbf_kernel() {
        let train = cluster(50, 3);
        let mut svm = OneClassSvm::new(OcsvmConfig {
            num_features: 2048,
            epochs: 1,
            ..OcsvmConfig::default()
        });
        svm.fit(&train);
        // k(x, y) = exp(−γ‖x−y‖²) vs z(x)·z(y) on scaled points.
        let scaled = svm.scaler.as_ref().unwrap().transform(&train);
        let gamma = 1.0f32 / 2.0;
        let r = svm.cfg.num_features;
        let mut zx = vec![0.0; r];
        let mut zy = vec![0.0; r];
        for (a, b) in [(0usize, 1usize), (2, 7), (10, 20)] {
            let x = scaled.observation(a);
            let y = scaled.observation(b);
            svm.features(x, &mut zx);
            svm.features(y, &mut zy);
            let approx: f32 = zx.iter().zip(zy.iter()).map(|(&p, &q)| p * q).sum();
            let exact = (-gamma * crate::util::sq_dist(x, y)).exp();
            assert!(
                (approx - exact).abs() < 0.1,
                "kernel approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let train = cluster(100, 4);
        let test = cluster(10, 5);
        let run = || {
            let mut svm = OneClassSvm::with_defaults();
            svm.fit(&train);
            svm.score(&test)
        };
        assert_eq!(run(), run());
    }
}
