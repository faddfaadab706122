//! Configuration of the CAE basic model and the ensemble trainer.

use cae_nn::Activation;
use serde::{Deserialize, Serialize};

/// What the autoencoder reconstructs and scores against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconstructionTarget {
    /// Reconstruct the embedded window X (paper Algorithm 1 line 13 /
    /// Section 3.1.5). The embedding output is treated as a constant
    /// target (stop-gradient) to rule out the degenerate
    /// shrink-the-embedding shortcut.
    #[default]
    Embedded,
    /// Reconstruct the raw (z-scored) input window — exposed as an
    /// ablation.
    Raw,
}

/// Architecture of one [`Cae`](crate::Cae) basic model (paper Section 3.1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CaeConfig {
    /// Input dimensionality `D` of each observation.
    pub dim: usize,
    /// Embedding dimensionality `D′` (paper default 256; scaled down here).
    pub embed_dim: usize,
    /// Window size `w`.
    pub window: usize,
    /// Number of convolution layers in encoder *and* decoder
    /// (paper default 10; scaled down here).
    pub layers: usize,
    /// Convolution kernel size `k` (paper default 3).
    pub kernel_size: usize,
    /// Whether the per-layer global attention (Section 3.1.4) is applied.
    /// Disabled by the "No attention" ablation of Table 5.
    pub attention: bool,
    /// Activation `f_s`/`f_t` of the embeddings.
    pub embed_activation: Activation,
    /// Activation `f_E`/`f_D` of the conv layers.
    pub conv_activation: Activation,
    /// Activation `f_R` of the reconstruction head.
    pub recon_activation: Activation,
    /// What the model reconstructs.
    pub target: ReconstructionTarget,
}

impl CaeConfig {
    /// Defaults scaled for CPU: `D′ = 32`, 3 layers, `k = 3`, `w = 16`,
    /// attention on, embedded-space reconstruction.
    pub fn new(dim: usize) -> Self {
        CaeConfig {
            dim,
            embed_dim: 32,
            window: 16,
            layers: 3,
            kernel_size: 3,
            attention: true,
            // Identity keeps outlier magnitude visible in the embedded
            // reconstruction target: a saturating f_s (e.g. tanh) squashes
            // extreme observations toward the normal range, which blinds
            // the embedded-space error of Eq. 14 to exactly the points that
            // matter. Non-linearity still enters through the GLU gates.
            embed_activation: Activation::Identity,
            conv_activation: Activation::Tanh,
            recon_activation: Activation::Identity,
            target: ReconstructionTarget::Embedded,
        }
    }

    /// Sets the embedding dimensionality `D′`.
    pub fn embed_dim(mut self, d: usize) -> Self {
        self.embed_dim = d;
        self
    }

    /// Sets the window size `w`.
    pub fn window(mut self, w: usize) -> Self {
        assert!(w >= 2, "window must be at least 2");
        self.window = w;
        self
    }

    /// Sets the encoder/decoder depth.
    pub fn layers(mut self, l: usize) -> Self {
        assert!(l >= 1, "at least one layer required");
        self.layers = l;
        self
    }

    /// Sets the convolution kernel size `k`.
    pub fn kernel_size(mut self, k: usize) -> Self {
        assert!(k >= 1, "kernel size must be at least 1");
        self.kernel_size = k;
        self
    }

    /// Enables or disables the attention module.
    pub fn attention(mut self, on: bool) -> Self {
        self.attention = on;
        self
    }

    /// Sets the reconstruction target.
    pub fn target(mut self, target: ReconstructionTarget) -> Self {
        self.target = target;
        self
    }

    /// Output dimensionality of the reconstruction head.
    pub fn recon_dim(&self) -> usize {
        match self.target {
            ReconstructionTarget::Embedded => self.embed_dim,
            ReconstructionTarget::Raw => self.dim,
        }
    }
}

/// Training configuration of [`CaeEnsemble`](crate::CaeEnsemble)
/// (paper Section 3.2 / Algorithm 1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Number of basic models `M` (paper default 8).
    pub num_models: usize,
    /// Training epochs per basic model `n` (paper: a new model every 50
    /// epochs; scaled down here).
    pub epochs_per_model: usize,
    /// Diversity weight `λ` in `J − λK` (Eq. 13).
    pub lambda: f32,
    /// Parameter-transfer fraction `β` (Figure 9).
    pub beta: f64,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f32,
    /// Mini-batch size in windows (paper: 64).
    pub batch_size: usize,
    /// Stride between training windows (1 reproduces the paper exactly;
    /// larger values subsample windows for CPU-speed training; scoring
    /// always uses stride 1).
    pub train_stride: usize,
    /// Diversity-driven training on/off. Off ⇒ the "No diversity" ablation
    /// of Table 5: basic models train independently (λ = 0, no parameter
    /// transfer, different init seeds).
    pub diversity_driven: bool,
    /// Stability guard, a departure from Eq. 13. Per batch, the weight of
    /// the −λK reward is clamped to `min(λ, λ/(λ+4) · diversity_cap ·
    /// J / K)`, so the reward never exceeds a share of `J` and the
    /// otherwise unbounded objective `J − λK` stays bounded below (see
    /// the stability guard in `ensemble.rs`). The paper uses the fixed λ
    /// and does not discuss this failure mode; 0.5 leaves the sweep range
    /// λ ∈ [1, 64] usable while preventing output-inflation divergence.
    /// `f32::INFINITY` turns the clamp off.
    pub diversity_cap: f32,
    /// Gradient L2-norm clip, a departure from Algorithm 1: before each
    /// Adam step, gradients whose global norm exceeds this are scaled
    /// down to it. The paper trains with plain Adam and no clipping.
    /// `f32::INFINITY` turns clipping off.
    pub grad_clip: f32,
    /// Denoising-training noise level, a departure from Algorithm 1:
    /// Gaussian noise of this standard deviation is added to the
    /// **inputs** of every training window while the reconstruction
    /// target stays clean. The paper trains on the clean windows.
    /// Without it, the over-complete embedding (D′ ≫ D) lets the network
    /// learn the identity map and reconstruct in-range morphology
    /// anomalies perfectly, which blinds the reconstruction error. 0
    /// turns it off.
    pub denoise_std: f32,
    /// Per-member early stopping, a departure from Algorithm 1: a
    /// member's epoch loop ends once its epoch-mean reconstruction loss
    /// improves by less than this relative tolerance. The paper trains
    /// every member for a fixed number of epochs. This is the mechanism
    /// by which parameter transfer reduces ensemble *training time*
    /// (paper Table 7): warm-started members plateau after fewer epochs.
    /// 0 (the default) turns it off.
    pub early_stop_rel_tol: f32,
    /// Whether to z-score the series before windowing (the paper's
    /// pre-processing; off ⇒ the "No re-scaling" ablation of Table 5).
    pub rescale: bool,
    /// RNG seed controlling init, batching, transfer masks.
    pub seed: u64,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl EnsembleConfig {
    /// CPU-scaled defaults: `M = 8`, 8 epochs/model, `λ = 2`, `β = 0.5`,
    /// Adam 1e-3, batch 32, stride 4.
    pub fn new() -> Self {
        EnsembleConfig {
            num_models: 8,
            epochs_per_model: 8,
            lambda: 2.0,
            beta: 0.5,
            learning_rate: 1e-3,
            batch_size: 32,
            train_stride: 4,
            diversity_driven: true,
            diversity_cap: 0.5,
            grad_clip: 5.0,
            denoise_std: 0.1,
            early_stop_rel_tol: 0.0,
            rescale: true,
            seed: 42,
        }
    }

    /// Sets the per-member early-stopping tolerance (0 disables).
    pub fn early_stop_rel_tol(mut self, tol: f32) -> Self {
        assert!(tol >= 0.0, "tolerance must be non-negative");
        self.early_stop_rel_tol = tol;
        self
    }

    /// Enables/disables input re-scaling (Table 5 ablation).
    pub fn rescale(mut self, on: bool) -> Self {
        self.rescale = on;
        self
    }

    /// Sets the denoising-training noise level (0 disables).
    pub fn denoise_std(mut self, std: f32) -> Self {
        assert!(std >= 0.0, "noise level must be non-negative");
        self.denoise_std = std;
        self
    }

    /// Sets the number of basic models `M`.
    pub fn num_models(mut self, m: usize) -> Self {
        assert!(m >= 1, "ensemble needs at least one model");
        self.num_models = m;
        self
    }

    /// Sets the epochs per basic model `n`.
    pub fn epochs_per_model(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one epoch per model");
        self.epochs_per_model = n;
        self
    }

    /// Sets the diversity weight `λ`.
    pub fn lambda(mut self, lambda: f32) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        self.lambda = lambda;
        self
    }

    /// Sets the parameter-transfer fraction `β`.
    pub fn beta(mut self, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
        self.beta = beta;
        self
    }

    /// Sets the Adam learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        assert!(b >= 1, "batch size must be positive");
        self.batch_size = b;
        self
    }

    /// Sets the training-window stride.
    pub fn train_stride(mut self, s: usize) -> Self {
        assert!(s >= 1, "stride must be positive");
        self.train_stride = s;
        self
    }

    /// Enables/disables diversity-driven training (Table 5 ablation).
    pub fn diversity_driven(mut self, on: bool) -> Self {
        self.diversity_driven = on;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = CaeConfig::new(3)
            .embed_dim(16)
            .window(8)
            .layers(2)
            .kernel_size(5)
            .attention(false)
            .target(ReconstructionTarget::Raw);
        assert_eq!(cfg.dim, 3);
        assert_eq!(cfg.embed_dim, 16);
        assert_eq!(cfg.window, 8);
        assert_eq!(cfg.layers, 2);
        assert_eq!(cfg.kernel_size, 5);
        assert!(!cfg.attention);
        assert_eq!(cfg.recon_dim(), 3);
        assert_eq!(CaeConfig::new(3).recon_dim(), 32);
    }

    #[test]
    fn ensemble_builder() {
        let cfg = EnsembleConfig::new()
            .num_models(4)
            .epochs_per_model(2)
            .lambda(8.0)
            .beta(0.9)
            .batch_size(16)
            .train_stride(2)
            .seed(1);
        assert_eq!(cfg.num_models, 4);
        assert_eq!(cfg.lambda, 8.0);
        assert_eq!(cfg.beta, 0.9);
    }

    #[test]
    #[should_panic(expected = "window must be at least 2")]
    fn rejects_degenerate_window() {
        CaeConfig::new(1).window(1);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn rejects_bad_beta() {
        EnsembleConfig::new().beta(1.5);
    }
}
