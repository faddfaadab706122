//! RNNVAE (Sölch et al., 2016): variational recurrent autoencoder.
//!
//! "The model establishes a stochastic latent component in the autoencoder
//! for learning a distribution to improve the reconstruction output"
//! (paper Section 4.1.2). A GRU encoder summarizes the window; a Gaussian
//! latent is sampled via the reparameterization trick; a GRU decoder
//! conditioned on the latent reconstructs the window. The ELBO is the
//! reconstruction MSE plus a KL regularizer against the standard normal
//! prior.

use crate::util::{for_each_batch, step_errors, step_observations, step_recon_loss, window_scores};
use cae_autograd::{ParamStore, Tape, Var};
use cae_data::{Detector, Scaler, TimeSeries};
use cae_nn::{Activation, Adam, GruCell, Linear, Optimizer};
use cae_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// RNNVAE hyperparameters.
#[derive(Clone, Debug)]
pub struct RnnVaeConfig {
    /// GRU hidden width (paper uses 64; scaled down by default).
    pub hidden: usize,
    /// Latent (stochastic) width.
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

impl Default for RnnVaeConfig {
    fn default() -> Self {
        RnnVaeConfig {
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

struct VaeNet {
    encoder: GruCell,
    mu: Linear,
    logvar: Linear,
    latent_to_hidden: Linear,
    decoder: GruCell,
    readout: Linear,
    dim: usize,
    window: usize,
    latent: usize,
}

impl VaeNet {
    fn new(store: &mut ParamStore, cfg: &RnnVaeConfig, dim: usize, rng: &mut StdRng) -> Self {
        VaeNet {
            encoder: GruCell::new(store, "enc", dim, cfg.hidden, rng),
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
            latent_to_hidden: Linear::new(
                store,
                "z2h",
                cfg.latent,
                cfg.hidden,
                Activation::Tanh,
                rng,
            ),
            decoder: GruCell::new(store, "dec", dim, cfg.hidden, rng),
            readout: Linear::new(store, "readout", cfg.hidden, dim, Activation::Identity, rng),
            dim,
            window: cfg.window,
            latent: cfg.latent,
        }
    }

    /// Returns (per-step reconstructions in forward order, μ, log σ²).
    ///
    /// `noise` supplies the reparameterization draw; pass zeros for
    /// deterministic (mean-latent) scoring.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &Tensor,
        noise: &Tensor,
    ) -> (Vec<Var>, Var, Var) {
        let (b, w) = (batch.dims()[0], batch.dims()[1]);
        assert_eq!(w, self.window, "window mismatch");
        // Encoder GRU.
        let mut h = tape.constant(Tensor::zeros(&[b, self.encoder.hidden_size()]));
        for t in 0..w {
            let x = tape.constant(step_observations(batch, t));
            h = self.encoder.step(tape, store, x, h);
        }

        // Latent sample z = μ + exp(½ logσ²) ⊙ ε.
        let mu = self.mu.forward(tape, store, h);
        let logvar = self.logvar.forward(tape, store, h);
        let half = tape.mul_scalar(logvar, 0.5);
        let sigma = tape.exp(half);
        let eps = tape.mul_const(sigma, noise);
        let z = tape.add(mu, eps);

        // Decoder conditioned on z, fed its own previous reconstruction.
        let mut dh = self.latent_to_hidden.forward(tape, store, z);
        let mut prev = tape.constant(Tensor::zeros(&[b, self.dim]));
        let mut recon = Vec::with_capacity(w);
        for _ in 0..w {
            dh = self.decoder.step(tape, store, prev, dh);
            let out = self.readout.forward(tape, store, dh);
            recon.push(out);
            prev = out;
        }
        (recon, mu, logvar)
    }

    /// KL(q ‖ N(0, I)) = −½ · mean(1 + logσ² − μ² − σ²).
    fn kl(&self, tape: &mut Tape, mu: Var, logvar: Var) -> Var {
        let mu_sq = tape.square(mu);
        let var = tape.exp(logvar);
        let one_plus = tape.add_scalar(logvar, 1.0);
        let a = tape.sub(one_plus, mu_sq);
        let b = tape.sub(a, var);
        let mean = tape.mean_all(b);
        tape.mul_scalar(mean, -0.5)
    }

    fn window_errors(&self, store: &ParamStore, batch: &Tensor) -> Vec<f32> {
        let mut tape = Tape::new();
        // Deterministic scoring: zero noise uses the posterior mean.
        let zeros = Tensor::zeros(&[batch.dims()[0], self.latent]);
        let (recon, _, _) = self.forward(&mut tape, store, batch, &zeros);
        step_errors(&tape, &recon, batch)
    }
}

/// The RNNVAE baseline.
pub struct RnnVae {
    cfg: RnnVaeConfig,
    scaler: Option<Scaler>,
    net: Option<(VaeNet, ParamStore)>,
}

impl std::fmt::Debug for RnnVae {
    /// Config and fit state only — the net holds a full parameter set.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RnnVae")
            .field("cfg", &self.cfg)
            .field("fitted", &self.net.is_some())
            .finish_non_exhaustive()
    }
}

impl RnnVae {
    /// RNNVAE with the given configuration.
    pub fn new(cfg: RnnVaeConfig) -> Self {
        RnnVae {
            cfg,
            scaler: None,
            net: None,
        }
    }

    /// RNNVAE with CPU-scaled defaults.
    pub fn with_defaults() -> Self {
        Self::new(RnnVaeConfig::default())
    }
}

impl Detector for RnnVae {
    fn name(&self) -> &str {
        "RNNVAE"
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
        let net = VaeNet::new(&mut store, &self.cfg, scaled.dim(), &mut rng);

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
                let noise = Tensor::rand_normal(&[batch.dims()[0], cfg.latent], 0.0, 1.0, rng);
                let mut tape = Tape::new();
                let (recon, mu, logvar) = net.forward(&mut tape, &store, batch, &noise);
                let rec = step_recon_loss(&mut tape, &recon, batch);
                let kl = net.kl(&mut tape, mu, logvar);
                let kl_scaled = tape.mul_scalar(kl, cfg.kl_weight);
                let loss = tape.add(rec, kl_scaled);

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

    fn quick() -> RnnVaeConfig {
        RnnVaeConfig {
            hidden: 12,
            latent: 4,
            window: 8,
            epochs: 6,
            batch_size: 16,
            train_stride: 2,
            learning_rate: 5e-3,
            ..RnnVaeConfig::default()
        }
    }

    #[test]
    fn detects_spike() {
        let train = sine(250);
        let mut test = sine(120);
        test.data_mut()[60] += 8.0;
        let mut vae = RnnVae::new(quick());
        vae.fit(&train);
        let scores = vae.score(&test);
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
    fn scoring_is_deterministic_despite_stochastic_training() {
        let train = sine(150);
        let test = sine(60);
        let mut vae = RnnVae::new(RnnVaeConfig {
            epochs: 2,
            ..quick()
        });
        vae.fit(&train);
        // Zero-noise scoring: repeated calls must agree exactly.
        assert_eq!(vae.score(&test), vae.score(&test));
    }

    #[test]
    fn kl_term_is_nonnegative_at_init() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let cfg = quick();
        let net = VaeNet::new(&mut store, &cfg, 1, &mut rng);
        let batch = Tensor::zeros(&[2, cfg.window, 1]);
        let noise = Tensor::zeros(&[2, cfg.latent]);
        let mut tape = Tape::new();
        let (_, mu, logvar) = net.forward(&mut tape, &store, &batch, &noise);
        let kl = net.kl(&mut tape, mu, logvar);
        assert!(tape.value(kl).item() >= -1e-6);
    }
}
