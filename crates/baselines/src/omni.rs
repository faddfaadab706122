//! OmniAnomaly (Su et al., KDD 2019), simplified.
//!
//! "The method extends the previous variational modeling with an
//! additional component to capture temporal dependencies in the context of
//! stochastic variables" (paper Section 4.1.2): unlike RNNVAE's single
//! per-window latent, OmniAnomaly keeps a **stochastic latent variable at
//! every step**, coupled to a GRU deterministic path.
//!
//! **Substitution note**: the linear-Gaussian state-space
//! transition and planar normalizing flows of the original are omitted;
//! the retained core is the per-step reparameterized Gaussian latent
//! `z_t = μ(h_t) + σ(h_t)·ε_t` feeding the per-step reconstruction, with
//! per-step KL regularization.

use crate::util::{for_each_batch, step_errors, step_observations, step_recon_loss, window_scores};
use cae_autograd::{ParamStore, Tape, Var};
use cae_data::{Detector, Scaler, TimeSeries};
use cae_nn::{Activation, Adam, GruCell, Linear, Optimizer};
use cae_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// OmniAnomaly hyperparameters.
#[derive(Clone, Debug)]
pub struct OmniConfig {
    /// GRU hidden width (paper: 32).
    pub hidden: usize,
    /// Per-step stochastic width (paper: 16).
    pub latent: usize,
    /// Window size `w`.
    pub window: usize,
    /// KL regularization weight (paper: 1e-4).
    pub kl_weight: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Stride between training windows.
    pub train_stride: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Gradient clip.
    pub grad_clip: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OmniConfig {
    fn default() -> Self {
        OmniConfig {
            hidden: 24,
            latent: 8,
            window: 16,
            kl_weight: 1e-4,
            epochs: 8,
            batch_size: 32,
            train_stride: 4,
            learning_rate: 2e-3,
            grad_clip: 5.0,
            seed: 42,
        }
    }
}

struct OmniNet {
    rnn: GruCell,
    mu: Linear,
    logvar: Linear,
    readout_z: Linear,
    readout_h: Linear,
    dim: usize,
    window: usize,
    latent: usize,
}

impl OmniNet {
    fn new(store: &mut ParamStore, cfg: &OmniConfig, dim: usize, rng: &mut StdRng) -> Self {
        OmniNet {
            rnn: GruCell::new(store, "rnn", dim, cfg.hidden, rng),
            mu: Linear::new(
                store,
                "mu",
                cfg.hidden,
                cfg.latent,
                Activation::Identity,
                rng,
            ),
            logvar: Linear::new(
                store,
                "logvar",
                cfg.hidden,
                cfg.latent,
                Activation::Identity,
                rng,
            ),
            readout_z: Linear::new(store, "out_z", cfg.latent, dim, Activation::Identity, rng),
            readout_h: Linear::new(store, "out_h", cfg.hidden, dim, Activation::Identity, rng),
            dim,
            window: cfg.window,
            latent: cfg.latent,
        }
    }

    /// Per-step forward pass. `noise` is `(w × B × latent)` flattened, or
    /// zeros for deterministic scoring. Returns per-step reconstructions
    /// and the per-step (μ, logσ²) pairs.
    #[allow(clippy::type_complexity)]
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &Tensor,
        noise: Option<&Tensor>,
    ) -> (Vec<Var>, Vec<(Var, Var)>) {
        let (b, w, d) = (batch.dims()[0], batch.dims()[1], batch.dims()[2]);
        assert_eq!(w, self.window, "window mismatch");
        assert_eq!(d, self.dim, "dim mismatch");

        let mut h = tape.constant(Tensor::zeros(&[b, self.rnn.hidden_size()]));
        let mut recon = Vec::with_capacity(w);
        let mut stats = Vec::with_capacity(w);
        for t in 0..w {
            let x = tape.constant(step_observations(batch, t));
            h = self.rnn.step(tape, store, x, h);

            // Per-step stochastic latent.
            let mu = self.mu.forward(tape, store, h);
            let logvar = self.logvar.forward(tape, store, h);
            let z = match noise {
                Some(n) => {
                    let step_noise = Tensor::from_vec(
                        n.data()[t * b * self.latent..(t + 1) * b * self.latent].to_vec(),
                        &[b, self.latent],
                    );
                    let half = tape.mul_scalar(logvar, 0.5);
                    let sigma = tape.exp(half);
                    let eps = tape.mul_const(sigma, &step_noise);
                    tape.add(mu, eps)
                }
                None => mu,
            };

            let from_z = self.readout_z.forward(tape, store, z);
            let from_h = self.readout_h.forward(tape, store, h);
            recon.push(tape.add(from_z, from_h));
            stats.push((mu, logvar));
        }
        (recon, stats)
    }

    fn window_errors(&self, store: &ParamStore, batch: &Tensor) -> Vec<f32> {
        let mut tape = Tape::new();
        let (recon, _) = self.forward(&mut tape, store, batch, None);
        step_errors(&tape, &recon, batch)
    }
}

/// The OmniAnomaly baseline.
pub struct OmniAnomaly {
    cfg: OmniConfig,
    scaler: Option<Scaler>,
    net: Option<(OmniNet, ParamStore)>,
}

impl std::fmt::Debug for OmniAnomaly {
    /// Config and fit state only — the net holds a full parameter set.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmniAnomaly")
            .field("cfg", &self.cfg)
            .field("fitted", &self.net.is_some())
            .finish_non_exhaustive()
    }
}

impl OmniAnomaly {
    /// OmniAnomaly with the given configuration.
    pub fn new(cfg: OmniConfig) -> Self {
        OmniAnomaly {
            cfg,
            scaler: None,
            net: None,
        }
    }

    /// OmniAnomaly with CPU-scaled defaults.
    pub fn with_defaults() -> Self {
        Self::new(OmniConfig::default())
    }
}

impl Detector for OmniAnomaly {
    fn name(&self) -> &str {
        "OMNIANOMALY"
    }

    fn fit(&mut self, train: &TimeSeries) {
        assert!(
            train.len() > self.cfg.window,
            "training series shorter than one window"
        );
        self.scaler = Some(Scaler::fit(train));
        let scaled = self.scaler.as_ref().expect("just set").transform(train);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = ParamStore::new();
        let net = OmniNet::new(&mut store, &self.cfg, scaled.dim(), &mut rng);

        let cfg = &self.cfg;
        let mut opt = Adam::new(&store, cfg.learning_rate);
        let (w, stride) = (cfg.window, cfg.train_stride);
        for_each_batch(
            &scaled,
            w,
            stride,
            cfg.epochs,
            cfg.batch_size,
            &mut rng,
            |batch, rng| {
                let noise = Tensor::rand_normal(&[w * batch.dims()[0] * cfg.latent], 0.0, 1.0, rng);
                let mut tape = Tape::new();
                let (recon, stats) = net.forward(&mut tape, &store, batch, Some(&noise));

                // Reconstruction + per-step KL.
                let mut loss = step_recon_loss(&mut tape, &recon, batch);
                for &(mu, logvar) in &stats {
                    // KL = −½ mean(1 + logσ² − μ² − σ²) per step.
                    let mu_sq = tape.square(mu);
                    let var = tape.exp(logvar);
                    let one_plus = tape.add_scalar(logvar, 1.0);
                    let a = tape.sub(one_plus, mu_sq);
                    let bterm = tape.sub(a, var);
                    let mean = tape.mean_all(bterm);
                    let kl = tape.mul_scalar(mean, -0.5 * cfg.kl_weight / w as f32);
                    loss = tape.add(loss, kl);
                }

                tape.backward(loss);
                tape.accumulate_param_grads(&mut store);
                store.clip_grad_norm(cfg.grad_clip);
                opt.step(&mut store);
            },
        );
        self.net = Some((net, store));
    }

    fn score(&self, test: &TimeSeries) -> Vec<f32> {
        let (net, store) = self.net.as_ref().expect("score() before fit()");
        let scaled = self.scaler.as_ref().expect("fitted").transform(test);
        window_scores(&scaled, self.cfg.window, |batch| {
            net.window_errors(store, batch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::sine;

    fn quick() -> OmniConfig {
        OmniConfig {
            hidden: 12,
            latent: 4,
            window: 8,
            epochs: 6,
            batch_size: 16,
            train_stride: 2,
            learning_rate: 5e-3,
            ..OmniConfig::default()
        }
    }

    #[test]
    fn detects_spike() {
        let train = sine(250);
        let mut test = sine(120);
        test.data_mut()[60] += 8.0;
        let mut omni = OmniAnomaly::new(quick());
        omni.fit(&train);
        let scores = omni.score(&test);
        let spike = scores[60];
        let mean: f32 = scores
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != 60)
            .map(|(_, &s)| s)
            .sum::<f32>()
            / 119.0;
        assert!(spike > 2.0 * mean, "spike {spike} vs mean {mean}");
    }

    #[test]
    fn deterministic_scoring() {
        let train = sine(150);
        let test = sine(60);
        let mut omni = OmniAnomaly::new(OmniConfig {
            epochs: 2,
            ..quick()
        });
        omni.fit(&train);
        assert_eq!(omni.score(&test), omni.score(&test));
    }

    #[test]
    fn scores_cover_series() {
        let train = sine(150);
        let test = sine(73);
        let mut omni = OmniAnomaly::new(OmniConfig {
            epochs: 1,
            ..quick()
        });
        omni.fit(&train);
        let scores = omni.score(&test);
        assert_eq!(scores.len(), 73);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
