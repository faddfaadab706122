//! The training step over fixed data-parallel shards.
//!
//! Every training batch splits into [`SHARDS`] contiguous shards (a
//! one-window batch runs as one shard). Each shard owns a tape for the
//! whole member, and one step runs in four parts:
//!
//! 1. one pool fan-out runs every shard's forward and its shard-mean
//!    losses `J_s` and, against the diversity anchor, `K_s`;
//! 2. the caller forms the whole-batch `J = Σ (n_s/n)·J_s`, and `K` the
//!    same way, and takes the per-batch `λ` clamp from those two values;
//! 3. a second fan-out runs each shard's backward of
//!    `(n_s/n)·(J_s − λ_eff·K_s)`;
//! 4. the caller adds each shard's parameter gradients into the store in
//!    shard order.
//!
//! The split depends on the batch alone, and pool calls nested inside a
//! shard run inline, so a step is bit-identical at every thread count and
//! a second core runs the second shard.

use crate::config::EnsembleConfig;
use crate::ensemble::CaeEnsemble;
use crate::model::Cae;
use cae_autograd::{ParamStore, Tape, Var};
use cae_data::TimeSeries;
use cae_tensor::{par, scratch, Tensor};
use std::ops::Range;

/// Shards per training batch. A constant, not a setting: the split fixes
/// the order in which gradients are summed, so another value changes the
/// training bits.
pub(crate) const SHARDS: usize = 2;

/// One training batch, as the shards read it.
pub(crate) struct Batch<'a> {
    /// The scaled training series.
    pub series: &'a TimeSeries,
    /// Start in `series` of each batch row's window.
    pub starts: &'a [usize],
    /// Index of each batch row's window into `anchor`.
    pub windows: &'a [usize],
    /// Input corruption `(rows, w, D)` for denoising training.
    pub noise: Option<&'a Tensor>,
    /// The ensemble output `F(X)` (Eq. 8), `w × recon_dim` floats per
    /// window: `Some` adds the diversity term `−λK` (Eq. 13).
    pub anchor: Option<&'a [f32]>,
}

/// One shard: a tape kept across steps, the batch rows it takes, and the
/// losses of its last forward.
struct Shard {
    tape: Tape,
    rows: Range<usize>,
    loss: Option<ShardLoss>,
}

/// A shard's loss nodes with their values: `J_s`, and `K_s` if anchored.
#[derive(Clone, Copy)]
struct ShardLoss {
    j: (Var, f32),
    k: Option<(Var, f32)>,
}

impl Shard {
    /// Records the forward of this shard's rows and its `J_s` (and `K_s`).
    fn forward(&mut self, model: &Cae, store: &ParamStore, batch: &Batch<'_>) {
        let tape = &mut self.tape;
        tape.clear();
        let w = model.config().window;
        let clean = CaeEnsemble::gather_windows(batch.series, &batch.starts[self.rows.clone()], w);
        // Denoising training: corrupt the network input, keep the
        // reconstruction target clean (see `EnsembleConfig::denoise_std`).
        let (out, target) = match batch.noise {
            Some(noise) => {
                let per_row = clean.len() / self.rows.len();
                let noise = &noise.data()[self.rows.start * per_row..self.rows.end * per_row];
                let mut noisy = scratch::take(clean.len());
                noisy.extend(clean.data().iter().zip(noise).map(|(x, z)| x + z));
                let noisy = Tensor::from_vec(noisy, clean.dims());
                let out = model.forward(tape, store, &noisy);
                noisy.recycle();
                (out, model.clean_target_tensor(tape, store, &clean))
            }
            None => {
                let out = model.forward(tape, store, &clean);
                let target = model.target_tensor(tape, &out, &clean);
                (out, target)
            }
        };
        let j = tape.mse_loss(out.recon, &target);
        clean.recycle();
        target.recycle();
        let j = (j, tape.value(j).item());
        let k = batch.anchor.map(|anchor| {
            let span = w * model.config().recon_dim();
            let windows = &batch.windows[self.rows.clone()];
            let mut f = scratch::take(windows.len() * span);
            for &i in windows {
                f.extend_from_slice(&anchor[i * span..(i + 1) * span]);
            }
            let f = Tensor::from_vec(f, &[windows.len(), w, span / w]);
            let k = tape.mse_loss(out.recon, &f);
            f.recycle();
            (k, tape.value(k).item())
        });
        self.loss = Some(ShardLoss { j, k });
    }

    /// Back-propagates `weight · (J_s − λ_eff·K_s)` through this shard's
    /// tape.
    fn backward(&mut self, weight: f32, lambda_eff: f32) {
        let Some(ShardLoss {
            j: (mut loss, _),
            k,
        }) = self.loss
        else {
            return;
        };
        let tape = &mut self.tape;
        if let Some((k, _)) = k {
            let neg_k = tape.mul_scalar(k, -lambda_eff);
            loss = tape.add(loss, neg_k);
        }
        let loss = tape.mul_scalar(loss, weight);
        tape.backward(loss);
    }
}

/// The sharded training step of one member: [`SHARDS`] tapes, kept for
/// the member's whole training so their node storage cycles through the
/// scratch pools instead of the allocator.
pub(crate) struct ShardedStep {
    shards: Vec<Shard>,
}

impl ShardedStep {
    pub(crate) fn new() -> Self {
        let shards = (0..SHARDS)
            .map(|_| Shard {
                tape: Tape::new(),
                rows: 0..0,
                loss: None,
            })
            .collect();
        ShardedStep { shards }
    }

    /// Runs the forward and backward of `batch` and adds its gradient of
    /// `J − λ_eff·K` into the accumulators of `store`. Returns the
    /// whole-batch `(J, K)`; `K` is 0 without an anchor.
    pub(crate) fn run(
        &mut self,
        cfg: &EnsembleConfig,
        model: &Cae,
        store: &mut ParamStore,
        batch: &Batch<'_>,
    ) -> (f32, f32) {
        let n = batch.starts.len();
        let shards = &mut self.shards[..SHARDS.min(n)];
        let used = shards.len();
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.rows = s * n / used..(s + 1) * n / used;
        }
        let weight = |shard: &Shard| shard.rows.len() as f32 / n as f32;

        let params = &*store;
        par::for_each_mut(shards, |_, shard| shard.forward(model, params, batch));
        let (mut j, mut k) = (0.0f32, 0.0f32);
        for shard in shards.iter() {
            if let Some(loss) = shard.loss {
                j += weight(shard) * loss.j.1;
                k += weight(shard) * loss.k.map_or(0.0, |(_, k)| k);
            }
        }
        let lambda_eff = clamped_lambda(cfg, j, k);
        par::for_each_mut(shards, |_, shard| {
            shard.backward(weight(shard), lambda_eff);
        });
        // In shard order. Into zeroed accumulators, two shards' sums
        // commute bit for bit; the fixed order matters from three shards
        // on.
        for shard in shards.iter() {
            shard.tape.accumulate_param_grads(store);
        }
        (j, k)
    }
}

/// The per-batch diversity weight `λ_eff` for whole-batch losses `j` and
/// `k`.
///
/// Stability guard: the raw objective J − λK is unbounded below (scaling
/// all activations by α multiplies both terms by α², so once λK > J the
/// model can diverge by inflating its outputs). The effective weight is
/// clamped per batch so the reward never exceeds a λ-dependent share of
/// J: λ/(λ+4) saturates toward 1, so larger λ yields stronger diversity
/// pressure (the Figure 14 sweep), while accuracy always dominates the
/// objective.
pub(crate) fn clamped_lambda(cfg: &EnsembleConfig, j: f32, k: f32) -> f32 {
    if k > 0.0 {
        let saturation = cfg.lambda / (cfg.lambda + 4.0);
        let bound = saturation * cfg.diversity_cap * j.max(1e-6) / k;
        cfg.lambda.min(bound)
    } else {
        cfg.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CaeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DIM: usize = 2;
    const W: usize = 8;

    fn series(len: usize) -> TimeSeries {
        let mut s = TimeSeries::empty(DIM);
        for t in 0..len {
            let obs: Vec<f32> = (0..DIM)
                .map(|d| ((t as f32) * 0.3 + d as f32).sin() + 0.1 * d as f32)
                .collect();
            s.push(&obs);
        }
        s
    }

    /// The whole batch on one tape: forward, `J − λ_eff·K` with the clamp
    /// taken from this batch's own `J` and `K`, and its backward, with the
    /// parameter gradients added into `store`. Returns `(J, K, λ_eff)`.
    fn single_tape_step(
        cfg: &EnsembleConfig,
        model: &Cae,
        store: &mut ParamStore,
        batch: &Batch<'_>,
    ) -> (f32, f32, f32) {
        let mut tape = Tape::new();
        let clean = CaeEnsemble::gather_windows(batch.series, batch.starts, W);
        let noisy = clean.add(batch.noise.expect("the reference step denoises"));
        let out = model.forward(&mut tape, store, &noisy);
        let target = model.clean_target_tensor(&mut tape, store, &clean);
        let j = tape.mse_loss(out.recon, &target);
        let j_val = tape.value(j).item();
        let (mut loss, mut k_val, mut lambda_eff) = (j, 0.0, 0.0);
        if let Some(anchor) = batch.anchor {
            let span = W * model.config().recon_dim();
            let f: Vec<f32> = batch
                .windows
                .iter()
                .flat_map(|&i| anchor[i * span..(i + 1) * span].iter().copied())
                .collect();
            let f = Tensor::from_vec(f, &[batch.windows.len(), W, span / W]);
            let k = tape.mse_loss(out.recon, &f);
            k_val = tape.value(k).item();
            lambda_eff = clamped_lambda(cfg, j_val, k_val);
            let neg_k = tape.mul_scalar(k, -lambda_eff);
            loss = tape.add(j, neg_k);
        }
        tape.backward(loss);
        tape.accumulate_param_grads(store);
        (j_val, k_val, lambda_eff)
    }

    fn assert_close(what: &str, got: &[f32], want: &[f32]) {
        let scale = want.iter().fold(1e-3f32, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-4 * scale,
                "{what}[{i}]: sharded {g} vs single tape {w} (scale {scale})"
            );
        }
    }

    /// One sharded step against the whole batch on one tape: the loss and
    /// every parameter gradient agree to f32 tolerance, with the anchor's
    /// clamp binding and not binding, at batch sizes 1, 2 and 33.
    #[test]
    fn sharded_step_matches_a_single_tape_step() {
        let model_cfg = CaeConfig::new(DIM).embed_dim(8).window(W).layers(2);
        let n_win = 40;
        let scaled = series(n_win + W);
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let model = Cae::new(model_cfg.clone(), &mut store, &mut rng);
        let span = W * model_cfg.recon_dim();
        // An anchor far from the untrained reconstruction makes K large.
        let far: Vec<f32> = (0..n_win * span).map(|i| (i % 7) as f32 - 3.0).collect();
        for (cap, binds) in [(0.5, true), (f32::INFINITY, false)] {
            let mut cfg = EnsembleConfig::new();
            cfg.diversity_cap = cap;
            for n in [1usize, 2, 33] {
                // Windows out of order, so that rows and window indices differ.
                let windows: Vec<usize> = (0..n).map(|r| (r * 7 + 3) % n_win).collect();
                let starts = windows.clone();
                let noise = Tensor::rand_normal(&[n, W, DIM], 0.0, 0.1, &mut rng);
                let batch = Batch {
                    series: &scaled,
                    starts: &starts,
                    windows: &windows,
                    noise: Some(&noise),
                    anchor: Some(&far),
                };
                let case = format!("cap {cap}, batch {n}");

                let mut reference = store.clone();
                let (j, k, lambda_eff) = single_tape_step(&cfg, &model, &mut reference, &batch);
                assert_eq!(lambda_eff < cfg.lambda, binds, "{case}: clamp binding");
                let mut sharded = store.clone();
                let (js, ks) = ShardedStep::new().run(&cfg, &model, &mut sharded, &batch);
                assert_close(
                    &format!("{case}: J, K, loss"),
                    &[js, ks, js - clamped_lambda(&cfg, js, ks) * ks],
                    &[j, k, j - lambda_eff * k],
                );
                for id in store.ids() {
                    assert_close(
                        &format!("{case}: grad {}", store.name(id)),
                        sharded.grad(id).data(),
                        reference.grad(id).data(),
                    );
                }
            }
        }
    }
}
