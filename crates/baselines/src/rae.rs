//! Recurrent autoencoder (RAE) and the recurrent autoencoder ensemble
//! (RAE-Ensemble, Kieu et al., IJCAI 2019).
//!
//! RAE is the sequence-to-sequence LSTM autoencoder of paper Section 2:
//! the encoder consumes the window, the decoder — initialized with the
//! encoder's final state — reconstructs it **in reverse order**, feeding
//! each reconstructed observation into the next step. Its per-step
//! recurrence is exactly the sequential bottleneck the paper's efficiency
//! comparison (Tables 7–8) measures against the convolutional models.
//!
//! RAE-Ensemble diversifies members *implicitly* through sparse skip
//! recurrent connections: member `m` uses state `h_{t−ℓ_m}` with a random
//! skip length `ℓ_m`, and 20% of the skip connections are randomly dropped
//! (falling back to `h_{t−1}` at those steps), following the sparsely
//! connected RNN construction of the original paper. Scores are median
//! per-observation reconstruction errors.

use crate::util::{for_each_batch, step_errors, step_observations, step_recon_loss, window_scores};
use cae_autograd::{ParamStore, Tape, Var};
use cae_data::{scoring::median_scores, Detector, Scaler, TimeSeries};
use cae_nn::{Activation, Adam, Linear, LstmCell, LstmState, Optimizer};
use cae_tensor::{par, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RAE hyperparameters.
#[derive(Clone, Debug)]
pub struct RaeConfig {
    /// LSTM hidden width.
    pub hidden: usize,
    /// Window size `w`.
    pub window: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Stride between training windows.
    pub train_stride: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Gradient L2 clip (recurrent nets need it).
    pub grad_clip: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RaeConfig {
    fn default() -> Self {
        RaeConfig {
            hidden: 32,
            window: 16,
            epochs: 8,
            batch_size: 32,
            train_stride: 4,
            learning_rate: 1e-3,
            grad_clip: 5.0,
            seed: 42,
        }
    }
}

/// One seq2seq LSTM autoencoder with optional sparse skip recurrence.
struct RaeNet {
    encoder: LstmCell,
    decoder: LstmCell,
    readout: Linear,
    dim: usize,
    window: usize,
    /// Recurrent skip length ℓ (1 = plain LSTM).
    skip: usize,
    /// Steps at which the skip connection is dropped (fall back to ℓ = 1).
    dropped: Vec<bool>,
}

impl RaeNet {
    fn new(
        store: &mut ParamStore,
        dim: usize,
        hidden: usize,
        window: usize,
        skip: usize,
        drop_fraction: f64,
        rng: &mut StdRng,
    ) -> Self {
        let encoder = LstmCell::new(store, "enc", dim, hidden, rng);
        let decoder = LstmCell::new(store, "dec", dim, hidden, rng);
        let readout = Linear::new(store, "readout", hidden, dim, Activation::Identity, rng);
        let dropped = (0..window).map(|_| rng.gen_bool(drop_fraction)).collect();
        RaeNet {
            encoder,
            decoder,
            readout,
            dim,
            window,
            skip,
            dropped,
        }
    }

    /// The recurrent state a step `t` attends to, honoring skip length and
    /// dropped skip connections.
    fn previous_state(&self, states: &[LstmState], t: usize) -> LstmState {
        let lag = if self.skip > 1 && t >= self.skip && !self.dropped[t % self.dropped.len()] {
            self.skip
        } else {
            1
        };
        states[t + 1 - lag] // states[0] is the zero state before step 0
    }

    /// Runs the autoencoder over a `(B, w, D)` batch; returns the per-step
    /// reconstructions in **forward** time order.
    fn forward(&self, tape: &mut Tape, store: &ParamStore, batch: &Tensor) -> Vec<Var> {
        let (b, w, d) = (batch.dims()[0], batch.dims()[1], batch.dims()[2]);
        assert_eq!(w, self.window, "window mismatch");
        assert_eq!(d, self.dim, "dim mismatch");

        // Encoder, over per-step (B, D) input constants.
        let mut states = vec![self.encoder.zero_state(tape, b)];
        for t in 0..w {
            let x = tape.constant(step_observations(batch, t));
            let prev = self.previous_state(&states, states.len() - 1);
            states.push(self.encoder.step(tape, store, x, prev));
        }
        let final_state = *states.last().expect("at least the zero state");

        // Decoder: reverse order, previous reconstruction as input.
        let mut dec_states = vec![final_state];
        let mut recon_rev: Vec<Var> = Vec::with_capacity(w);
        let mut prev_recon = tape.constant(Tensor::zeros(&[b, d]));
        for t in 0..w {
            let prev = self.previous_state(&dec_states, t);
            let state = self.decoder.step(tape, store, prev_recon, prev);
            dec_states.push(state);
            let out = self.readout.forward(tape, store, state.h);
            recon_rev.push(out);
            prev_recon = out;
        }
        recon_rev.reverse(); // emitted ŝ_w … ŝ_1 → return ŝ_1 … ŝ_w
        recon_rev
    }

    /// Per-window, per-position squared errors for a `(B, w, D)` batch,
    /// `(B × w)` row-major.
    fn window_errors(&self, store: &ParamStore, batch: &Tensor) -> Vec<f32> {
        let mut tape = Tape::new();
        let recon = self.forward(&mut tape, store, batch);
        step_errors(&tape, &recon, batch)
    }
}

fn train_net(
    net: &RaeNet,
    store: &mut ParamStore,
    scaled: &TimeSeries,
    cfg: &RaeConfig,
    rng: &mut StdRng,
) {
    let mut opt = Adam::new(store, cfg.learning_rate);
    // One tape per net, cleared each batch: node storage cycles through
    // the scratch pool instead of the allocator.
    let mut tape = Tape::new();
    let (w, stride) = (cfg.window, cfg.train_stride);
    for_each_batch(
        scaled,
        w,
        stride,
        cfg.epochs,
        cfg.batch_size,
        rng,
        |batch, _| {
            tape.clear();
            let recon = net.forward(&mut tape, store, batch);
            let loss = step_recon_loss(&mut tape, &recon, batch);
            tape.backward(loss);
            tape.accumulate_param_grads(store);
            store.clip_grad_norm(cfg.grad_clip);
            opt.step(store);
        },
    );
}

fn score_members(
    members: &[(RaeNet, ParamStore)],
    scaler: &Scaler,
    test: &TimeSeries,
    w: usize,
) -> Vec<f32> {
    let scaled = scaler.transform(test);
    // Checked here too, so a short series fails before the fan-out.
    assert!(scaled.len() >= w, "test series shorter than one window");
    let per_model: Vec<Vec<f32>> = par::map_indexed(members.len(), |m| {
        let (net, store) = &members[m];
        window_scores(&scaled, w, |batch| net.window_errors(store, batch))
    });
    median_scores(&per_model)
}

/// The single RAE baseline.
pub struct Rae {
    cfg: RaeConfig,
    scaler: Option<Scaler>,
    member: Option<(RaeNet, ParamStore)>,
}

impl std::fmt::Debug for Rae {
    /// Config and fit state only — the member holds a full parameter set.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rae")
            .field("cfg", &self.cfg)
            .field("fitted", &self.member.is_some())
            .finish_non_exhaustive()
    }
}

impl Rae {
    /// An RAE with the given configuration.
    pub fn new(cfg: RaeConfig) -> Self {
        Rae {
            cfg,
            scaler: None,
            member: None,
        }
    }

    /// An RAE with CPU-scaled defaults.
    pub fn with_defaults() -> Self {
        Self::new(RaeConfig::default())
    }
}

impl Detector for Rae {
    fn name(&self) -> &str {
        "RAE"
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
        let net = RaeNet::new(
            &mut store,
            scaled.dim(),
            self.cfg.hidden,
            self.cfg.window,
            1,   // plain recurrence
            0.0, // no dropped connections
            &mut rng,
        );
        train_net(&net, &mut store, &scaled, &self.cfg, &mut rng);
        self.member = Some((net, store));
    }

    fn score(&self, test: &TimeSeries) -> Vec<f32> {
        let member = self.member.as_ref().expect("score() before fit()");
        score_members(
            std::slice::from_ref(member),
            self.scaler.as_ref().expect("fitted"),
            test,
            self.cfg.window,
        )
    }
}

/// RAE-Ensemble hyperparameters.
#[derive(Clone, Debug)]
pub struct RaeEnsembleConfig {
    /// Per-member RAE configuration.
    pub rae: RaeConfig,
    /// Number of members (matches the paper's 8-member setups).
    pub num_models: usize,
    /// Skip lengths sampled per member (the sparse-RNN construction).
    pub skip_choices: Vec<usize>,
    /// Fraction of skip connections dropped per member (paper: 0.2).
    pub drop_fraction: f64,
}

impl Default for RaeEnsembleConfig {
    fn default() -> Self {
        RaeEnsembleConfig {
            rae: RaeConfig::default(),
            num_models: 8,
            skip_choices: vec![1, 2, 4],
            drop_fraction: 0.2,
        }
    }
}

/// The RAE-Ensemble baseline.
pub struct RaeEnsemble {
    cfg: RaeEnsembleConfig,
    scaler: Option<Scaler>,
    members: Vec<(RaeNet, ParamStore)>,
}

impl std::fmt::Debug for RaeEnsemble {
    /// Config and member count only — members hold full parameter sets.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaeEnsemble")
            .field("cfg", &self.cfg)
            .field("members", &self.members.len())
            .finish_non_exhaustive()
    }
}

impl RaeEnsemble {
    /// An ensemble with the given configuration.
    pub fn new(cfg: RaeEnsembleConfig) -> Self {
        RaeEnsemble {
            cfg,
            scaler: None,
            members: Vec::new(),
        }
    }

    /// An ensemble with CPU-scaled defaults (8 members).
    pub fn with_defaults() -> Self {
        Self::new(RaeEnsembleConfig::default())
    }

    /// Number of trained members.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }
}

impl Detector for RaeEnsemble {
    fn name(&self) -> &str {
        "RAE-Ensemble"
    }

    fn fit(&mut self, train: &TimeSeries) {
        assert!(
            train.len() > self.cfg.rae.window,
            "training series shorter than one window"
        );
        self.scaler = Some(Scaler::fit(train));
        let scaled = self.scaler.as_ref().expect("just set").transform(train);
        let mut seed_rng = StdRng::seed_from_u64(self.cfg.rae.seed);
        let seeds: Vec<u64> = (0..self.cfg.num_models).map(|_| seed_rng.gen()).collect();

        // Members are independent (implicit diversity) but train
        // *sequentially*: the Table 7 training-time comparison measures the
        // ensemble/single-model cost ratio, which device-level parallelism
        // across members would silently hide.
        self.members = (0..self.cfg.num_models)
            .map(|m| {
                let mut rng = StdRng::seed_from_u64(seeds[m]);
                let skip = self.cfg.skip_choices[m % self.cfg.skip_choices.len()];
                let mut store = ParamStore::new();
                let net = RaeNet::new(
                    &mut store,
                    scaled.dim(),
                    self.cfg.rae.hidden,
                    self.cfg.rae.window,
                    skip,
                    self.cfg.drop_fraction,
                    &mut rng,
                );
                train_net(&net, &mut store, &scaled, &self.cfg.rae, &mut rng);
                (net, store)
            })
            .collect();
    }

    fn score(&self, test: &TimeSeries) -> Vec<f32> {
        assert!(!self.members.is_empty(), "score() before fit()");
        score_members(
            &self.members,
            self.scaler.as_ref().expect("fitted"),
            test,
            self.cfg.rae.window,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::sine;

    fn quick_rae_cfg() -> RaeConfig {
        RaeConfig {
            hidden: 12,
            window: 8,
            epochs: 6,
            batch_size: 16,
            train_stride: 2,
            learning_rate: 5e-3,
            ..RaeConfig::default()
        }
    }

    #[test]
    fn rae_detects_spike() {
        let train = sine(250);
        let mut test = sine(120);
        test.data_mut()[60] += 8.0;
        let mut rae = Rae::new(quick_rae_cfg());
        rae.fit(&train);
        let scores = rae.score(&test);
        assert_eq!(scores.len(), 120);
        let spike = scores[60];
        let mean: f32 = scores
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != 60)
            .map(|(_, &s)| s)
            .sum::<f32>()
            / 119.0;
        assert!(spike > 3.0 * mean, "spike {spike} vs mean {mean}");
    }

    #[test]
    fn ensemble_members_have_different_skips() {
        let train = sine(150);
        let mut ens = RaeEnsemble::new(RaeEnsembleConfig {
            rae: RaeConfig {
                epochs: 1,
                ..quick_rae_cfg()
            },
            num_models: 3,
            skip_choices: vec![1, 2, 4],
            drop_fraction: 0.2,
        });
        ens.fit(&train);
        let skips: Vec<usize> = ens.members.iter().map(|(n, _)| n.skip).collect();
        assert_eq!(skips, vec![1, 2, 4]);
    }

    #[test]
    fn ensemble_scores_whole_series() {
        let train = sine(200);
        let test = sine(80);
        let mut ens = RaeEnsemble::new(RaeEnsembleConfig {
            rae: RaeConfig {
                epochs: 2,
                ..quick_rae_cfg()
            },
            num_models: 2,
            skip_choices: vec![1, 2],
            drop_fraction: 0.2,
        });
        ens.fit(&train);
        let scores = ens.score(&test);
        assert_eq!(scores.len(), 80);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(ens.num_members(), 2);
    }

    #[test]
    fn rae_deterministic() {
        let train = sine(120);
        let test = sine(60);
        let run = || {
            let mut rae = Rae::new(RaeConfig {
                epochs: 2,
                ..quick_rae_cfg()
            });
            rae.fit(&train);
            rae.score(&test)
        };
        assert_eq!(run(), run());
    }
}
