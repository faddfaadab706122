//! The diversity-driven ensemble trainer — paper Algorithm 1 / Section 3.2.

use crate::config::{CaeConfig, EnsembleConfig};
use crate::diversity;
use crate::model::{Cae, Positions};
use crate::persist::{self, FallbackExhausted, PersistError, RecoveredLoad};
use crate::shard::{Batch, ShardedStep};
use cae_autograd::{transfer_fraction, ParamStore, Tape};
use cae_data::scoring::{median, median_scores};
use cae_data::{num_windows, Detector, Scaler, TimeSeries};
use cae_nn::{Adam, Optimizer};
use cae_tensor::{par, scratch, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;

/// Batch size used for inference/scoring passes (no gradients, so larger
/// than the training batch).
const INFERENCE_BATCH: usize = 64;

/// One trained basic model: the network and its parameters.
type Member = (Cae, ParamStore);

/// The windows one run of the scoring kernel
/// ([`CaeEnsemble::last_errors`]) reads.
#[derive(Clone, Copy)]
enum Windows<'a> {
    /// The windows of a scaled series starting at the listed
    /// observations, gathered one [`INFERENCE_BATCH`] chunk per task.
    Series(&'a TimeSeries, &'a [usize]),
    /// One gathered `(B, w, D)` batch, scored as a single chunk: a fleet
    /// tick is one forward per member.
    Batch(&'a Tensor),
}

/// Training loss trace: (model index, epoch, mean J, mean K) per epoch.
type LossTrace = Vec<(usize, usize, f32, f32)>;

/// Options controlling [`CaeEnsemble::refit`] — the online-adaptation
/// re-training of an already-fitted ensemble on recent observations.
#[derive(Clone, Debug)]
pub struct RefitOptions {
    /// Training epochs per member (early stopping still applies when
    /// `EnsembleConfig::early_stop_rel_tol` is non-zero).
    pub epochs: usize,
    /// Warm start: each new member begins from the **current parameters**
    /// of the corresponding live member — the paper's parameter-transfer
    /// trick (Figure 9) applied across time instead of across members —
    /// rather than a fresh Xavier initialization.
    pub warm_start: bool,
    /// Fold the recent series into the scaler's running statistics via
    /// [`Scaler::partial_fit`] before scaling; `false` keeps the serving
    /// scaler bit-identical.
    ///
    /// Only applies to scalers that carry accumulator history
    /// (`Scaler::observations() > 0`). A checkpoint-loaded scaler has
    /// none — the sample count is not persisted — so a partial fit would
    /// *replace* the training statistics with reservoir-only ones
    /// instead of merging; to keep adaptation deterministic across a
    /// checkpoint round trip, such scalers stay frozen.
    pub update_scaler: bool,
    /// RNG seed for batch shuffling and denoising noise (and for
    /// initialization plus transfer masks when `warm_start` is off).
    pub seed: u64,
}

impl RefitOptions {
    /// Warm-started re-fit with scaler update — the adaptation default.
    pub fn warm(epochs: usize, seed: u64) -> Self {
        RefitOptions {
            epochs,
            warm_start: true,
            update_scaler: true,
            seed,
        }
    }

    /// Cold re-fit (fresh Xavier init, offline-style member chain) on the
    /// same data and scaler policy — the comparison baseline warm-start
    /// adaptation is measured against.
    pub fn cold(epochs: usize, seed: u64) -> Self {
        RefitOptions {
            warm_start: false,
            ..Self::warm(epochs, seed)
        }
    }
}

/// The CAE-Ensemble detector.
///
/// Basic models are generated **sequentially**: model `m+1` starts from a
/// random fraction `β` of model `m`'s parameters (Figure 9) and is trained
/// with the diversity-driven objective `J − λK` (Eq. 13), where `K`
/// measures the distance to the running ensemble output `F(X)` (Eq. 8).
/// Final outlier scores are per-observation **medians** across members
/// (Eq. 15), assembled per the window protocol of Figure 10.
#[derive(Clone)]
pub struct CaeEnsemble {
    model_cfg: CaeConfig,
    cfg: EnsembleConfig,
    scaler: Option<Scaler>,
    members: Vec<Member>,
    loss_trace: LossTrace,
}

impl std::fmt::Debug for CaeEnsemble {
    /// Configs and member count only — members hold full parameter sets.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaeEnsemble")
            .field("model_cfg", &self.model_cfg)
            .field("cfg", &self.cfg)
            .field("members", &self.members.len())
            .finish_non_exhaustive()
    }
}

impl CaeEnsemble {
    /// A detector with the given architecture and training configuration.
    pub fn new(model_cfg: CaeConfig, cfg: EnsembleConfig) -> Self {
        CaeEnsemble {
            model_cfg,
            cfg,
            scaler: None,
            members: Vec::new(),
            loss_trace: Vec::new(),
        }
    }

    /// The architecture configuration.
    pub fn model_config(&self) -> &CaeConfig {
        &self.model_cfg
    }

    /// The training configuration.
    pub fn ensemble_config(&self) -> &EnsembleConfig {
        &self.cfg
    }

    /// Number of trained basic models (0 before [`Detector::fit`]).
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Training loss trace: one `(model, epoch, mean J, mean K)` entry per
    /// epoch, for diagnostics and the training-dynamics experiments.
    pub fn loss_trace(&self) -> &[(usize, usize, f32, f32)] {
        &self.loss_trace
    }

    /// The scaler fit during training, if re-scaling is enabled.
    pub fn scaler(&self) -> Option<&Scaler> {
        self.scaler.as_ref()
    }

    /// The trained basic models with their parameter stores, in
    /// generation order (empty before [`Detector::fit`]).
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    fn scale(&self, series: &TimeSeries) -> TimeSeries {
        match &self.scaler {
            Some(s) => s.transform(series),
            None => series.clone(),
        }
    }

    /// Copies the windows starting at `starts` into a `(B, w, D)` batch.
    ///
    /// The batch buffer comes from the thread-local [`scratch`] pool, and
    /// every caller recycles the batch after its forward pass. (The rest
    /// of a training step still allocates: see README "Scratch-buffer
    /// reuse".)
    pub(crate) fn gather_windows(series: &TimeSeries, starts: &[usize], w: usize) -> Tensor {
        let d = series.dim();
        let mut data = scratch::take(starts.len() * w * d);
        for &s in starts {
            data.extend_from_slice(&series.data()[s * d..(s + w) * d]);
        }
        Tensor::from_vec(data, &[starts.len(), w, d])
    }

    /// Trains one member in place on the windows of `scaled` listed by
    /// `starts`, optionally against a diversity anchor.
    ///
    /// `anchor` is the ensemble output `F(X)` (Eq. 8) as a flat
    /// `(n_win × w × recon_dim)` buffer indexed by window position:
    /// `Some` enables the diversity-driven objective `J − λK` (Eq. 13)
    /// with the per-batch `λ` clamp, `None` trains on plain
    /// reconstruction. Each batch runs as a [`ShardedStep`].
    /// [`CaeEnsemble::train_chain`] runs it once per member.
    #[allow(clippy::too_many_arguments)]
    fn train_member(
        cfg: &EnsembleConfig,
        model: &Cae,
        store: &mut ParamStore,
        scaled: &TimeSeries,
        starts: &[usize],
        anchor: Option<&[f32]>,
        epochs: usize,
        rng: &mut StdRng,
        loss_trace: &mut LossTrace,
        member_index: usize,
    ) {
        let (w, d) = (model.config().window, scaled.dim());
        let n_win = starts.len();
        let mut opt = Adam::new(store, cfg.learning_rate);
        let mut order: Vec<usize> = (0..n_win).collect();
        let mut prev_epoch_j = f32::INFINITY;
        let mut step = ShardedStep::new();
        let mut batch_starts = Vec::with_capacity(cfg.batch_size);

        for epoch in 0..epochs {
            order.shuffle(rng);
            let (mut j_sum, mut k_sum, mut batches) = (0.0f32, 0.0f32, 0usize);
            for chunk in order.chunks(cfg.batch_size) {
                batch_starts.clear();
                batch_starts.extend(chunk.iter().map(|&i| starts[i]));
                // The whole batch's noise, drawn in one piece so the RNG
                // stream does not depend on the split into shards.
                let noise = (cfg.denoise_std > 0.0)
                    .then(|| Tensor::rand_normal(&[chunk.len(), w, d], 0.0, cfg.denoise_std, rng));
                let batch = Batch {
                    series: scaled,
                    starts: &batch_starts,
                    windows: chunk,
                    noise: noise.as_ref(),
                    anchor,
                };
                let (j_val, k_val) = step.run(cfg, model, store, &batch);
                if let Some(noise) = noise {
                    noise.recycle();
                }
                store.clip_grad_norm(cfg.grad_clip);
                opt.step(store);

                j_sum += j_val;
                k_sum += k_val;
                batches += 1;
            }
            let b = batches.max(1) as f32;
            let epoch_j = j_sum / b;
            loss_trace.push((member_index, epoch, epoch_j, k_sum / b));

            // Early stopping: warm-started members plateau quickly
            // (see `EnsembleConfig::early_stop_rel_tol`).
            if cfg.early_stop_rel_tol > 0.0
                && epoch > 0
                && prev_epoch_j - epoch_j < cfg.early_stop_rel_tol * prev_epoch_j
            {
                break;
            }
            prev_epoch_j = epoch_j;
        }
    }

    /// Algorithm 1's member chain over the training windows of `scaled`:
    /// `num_models` members trained in order, each folded into the
    /// running ensemble output `F(X)` (Eq. 8) that later members
    /// diversify against. Returns the members and the loss trace. This is
    /// the one loop behind [`Detector::fit`] and both kinds of
    /// [`CaeEnsemble::refit`].
    ///
    /// Cold (`warm` is `None`) is the offline chain: fresh Xavier init,
    /// β-transfer from the previous member (Figure 9), and an empty anchor
    /// so member 0 trains on plain reconstruction. Warm starts member `m`
    /// from `warm[m]` and seeds the anchor with the mean reconstruction
    /// of all of `warm` (one pseudo-member). The RNG is consumed in the
    /// order of earlier releases, so fixed-seed training stays
    /// bit-reproducible.
    fn train_chain(
        model_cfg: &CaeConfig,
        cfg: &EnsembleConfig,
        scaled: &TimeSeries,
        warm: Option<&[Member]>,
        num_models: usize,
        epochs: usize,
        seed: u64,
    ) -> (Vec<Member>, LossTrace) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut loss_trace = Vec::new();
        let w = model_cfg.window;
        let starts: Vec<usize> = (0..=scaled.len() - w).step_by(cfg.train_stride).collect();
        let diverse = cfg.diversity_driven && num_models > 1;
        let mut mean_recon = vec![0.0f32; starts.len() * w * model_cfg.recon_dim()];
        // Members folded into `mean_recon` so far (the pseudo-member too).
        let mut anchored = 0usize;
        if let (true, Some(live)) = (diverse, warm) {
            let outputs: Vec<Vec<f32>> = par::map_indexed(live.len(), |m| {
                let (model, store) = &live[m];
                Self::reconstruct_all(model, store, scaled, &starts)
            });
            let inv = 1.0 / outputs.len() as f32;
            for recon in &outputs {
                for (mean, &r) in mean_recon.iter_mut().zip(recon.iter()) {
                    *mean += r * inv;
                }
            }
            anchored = 1;
        }

        let mut members: Vec<Member> = Vec::with_capacity(num_models);
        for m in 0..num_models {
            let (model, mut store) = match warm {
                Some(live) => live[m].clone(),
                None => {
                    let mut store = ParamStore::new();
                    let model = Cae::new(model_cfg.clone(), &mut store, &mut rng);
                    if let (true, Some((_, prev_store))) = (diverse, members.last()) {
                        transfer_fraction(prev_store, &mut store, cfg.beta, &mut rng);
                    }
                    (model, store)
                }
            };
            Self::train_member(
                cfg,
                &model,
                &mut store,
                scaled,
                &starts,
                (anchored > 0).then_some(mean_recon.as_slice()),
                epochs,
                &mut rng,
                &mut loss_trace,
                m,
            );

            // Fold this member in, F ← (k·F + f_m) / (k+1) over the k
            // members already there — only while a later member will read
            // the anchor: with diversity off (or for the final member) the
            // fold is a full inference pass nothing consumes.
            if diverse && m + 1 < num_models {
                let recon = Self::reconstruct_all(&model, &store, scaled, &starts);
                let inv = 1.0 / (anchored + 1) as f32;
                for (mean, &r) in mean_recon.iter_mut().zip(recon.iter()) {
                    *mean += (r - *mean) * inv;
                }
                anchored += 1;
            }
            members.push((model, store));
        }
        scratch::clear();
        (members, loss_trace)
    }

    /// Reconstruction of every listed window under one member, flattened
    /// `(num_starts × w × recon_dim)` row-major. Each chunk of
    /// [`INFERENCE_BATCH`] windows is a pool task; the pieces join in
    /// chunk order.
    pub(crate) fn reconstruct_all(
        model: &Cae,
        store: &ParamStore,
        series: &TimeSeries,
        starts: &[usize],
    ) -> Vec<f32> {
        let w = model.config().window;
        let chunks: Vec<&[usize]> = starts.chunks(INFERENCE_BATCH).collect();
        let pieces = par::map_indexed(chunks.len(), |i| {
            let batch = Self::gather_windows(series, chunks[i], w);
            let mut piece = Vec::new();
            model
                .infer(store, &batch, Positions::All)
                .recon_into(&mut piece);
            batch.recycle();
            piece
        });
        pieces.concat()
    }

    /// Ensemble diversity DIV_F (Eq. 10) measured on the windows of
    /// `series` — the quantity of the paper's Table 6.
    ///
    /// Eq. 9 compares members' *outputs*, which is only meaningful when
    /// members reconstruct a shared space. With the default
    /// [`ReconstructionTarget::Embedded`](crate::ReconstructionTarget)
    /// each member owns its embedding, so inter-member distances are
    /// inflated by arbitrary coordinate differences; measure diversity on
    /// ensembles configured with `ReconstructionTarget::Raw` (as the
    /// Table 6 harness does).
    pub fn diversity_value(&self, series: &TimeSeries) -> f64 {
        assert!(!self.members.is_empty(), "diversity_value before fit()");
        let scaled = self.scale(series);
        let w = self.model_cfg.window;
        assert!(scaled.len() >= w, "series shorter than one window");
        let starts: Vec<usize> = (0..num_windows(scaled.len(), w)).collect();
        let outputs: Vec<Vec<f32>> = par::map_indexed(self.members.len(), |m| {
            let (model, store) = &self.members[m];
            Self::reconstruct_all(model, store, &scaled, &starts)
        });
        diversity::ensemble_diversity(&outputs)
    }

    /// Per-member outlier score series for `test` (before the median
    /// aggregation). Exposed for the ablation and diversity experiments.
    ///
    /// Figure 10: window 0 scores all its positions, every later window
    /// its last one. Every window's last error comes from the scoring
    /// kernel that [`CaeEnsemble::score_scaled_windows_into`] runs too,
    /// one pool task per (member, 64-window chunk); window 0's first
    /// `w − 1` come from one extra one-window [`Positions::All`] forward
    /// per member.
    pub fn member_scores(&self, test: &TimeSeries) -> Vec<Vec<f32>> {
        assert!(!self.members.is_empty(), "member_scores before fit()");
        let scaled = self.scale(test);
        let w = self.model_cfg.window;
        assert!(
            scaled.len() >= w,
            "test series ({} observations) shorter than one window ({w})",
            scaled.len()
        );
        let starts: Vec<usize> = (0..num_windows(scaled.len(), w)).collect();
        let (last, span) = self.last_errors(Windows::Series(&scaled, &starts));
        let first = Self::gather_windows(&scaled, &[0], w);
        let per_member = self
            .members
            .iter()
            .zip(last.chunks_exact(span))
            .map(|((model, store), last)| {
                let mut series = Vec::with_capacity(w + starts.len());
                model
                    .infer(store, &first, Positions::All)
                    .errors_into(&first, &mut series);
                series.truncate(w - 1);
                series.extend_from_slice(&last[..starts.len()]);
                series
            })
            .collect();
        first.recycle();
        scratch::recycle(last);
        per_member
    }

    /// Scores the observations of `test` with the first `m` members only —
    /// used by the Figure 16 experiment (accuracy vs. ensemble size).
    pub fn score_with_first_members(&self, test: &TimeSeries, m: usize) -> Vec<f32> {
        let all = self.member_scores(test);
        assert!(m >= 1 && m <= all.len(), "invalid member count {m}");
        median_scores(&all[..m])
    }

    /// Scores a batch of **already scaled** windows `(B, w, D)`: for each
    /// window, the ensemble-median reconstruction error of its **last**
    /// position — the protocol the batch scorer applies to non-initial
    /// windows (Figure 10) and the streaming scorer applies to every
    /// observation. Appends `B` scores to `out`, one per window in row
    /// order.
    ///
    /// This is the serving hot path shared by [`StreamingDetector`] and
    /// the fleet detector: every member runs on the whole batch, so with
    /// `B` pooled streams inference goes through the packed GEMM kernels
    /// instead of `B` batch-size-1 forwards, and the members run as pool
    /// tasks of the batch scorer's scoring kernel: [`Cae::infer`] for
    /// [`Positions::Last`], which computes only the last position's
    /// receptive field. `_tape` is unused; the parameter stays so
    /// existing callers build unchanged.
    ///
    /// [`StreamingDetector`]: crate::StreamingDetector
    pub fn score_scaled_windows_into(&self, _tape: &mut Tape, batch: &Tensor, out: &mut Vec<f32>) {
        assert!(
            !self.members.is_empty(),
            "score_scaled_windows_into before fit()"
        );
        assert_eq!(batch.rank(), 3, "window batch must be (B, w, D)");
        let b = batch.dims()[0];
        let m = self.members.len();
        // Last-position error per (member, window), member-major.
        let (last, _) = self.last_errors(Windows::Batch(batch));
        let mut column = scratch::take(m);
        out.reserve(b);
        for row in 0..b {
            column.clear();
            column.extend((0..m).map(|i| last[i * b + row]));
            out.push(median(&mut column));
        }
        scratch::recycle(column);
        scratch::recycle(last);
    }

    /// The scoring kernel: the last-position error (Eq. 14) of every
    /// window under every member, from [`Cae::infer`] for
    /// [`Positions::Last`], which computes only the last position's
    /// receptive field. Returns a member-major scratch buffer, one span
    /// of whole chunks per member holding its errors in window order
    /// (a short last chunk leaves its tail unwritten), and the span
    /// length.
    ///
    /// One pool task per (member, chunk): members are independent until
    /// the Eq. 15 median, and each task writes only its own part of its
    /// member's span, so the errors are the same bits at any thread
    /// count.
    fn last_errors(&self, windows: Windows<'_>) -> (Vec<f32>, usize) {
        let w = self.model_cfg.window;
        let (chunk, n_chunks) = match windows {
            Windows::Series(_, starts) => (
                starts.len().min(INFERENCE_BATCH),
                starts.len().div_ceil(INFERENCE_BATCH),
            ),
            Windows::Batch(batch) => (batch.dims()[0], 1),
        };
        let mut out = scratch::take_full(self.members.len() * chunk * n_chunks);
        par::for_each_span(&mut out, chunk, |task, errors| {
            let (model, store) = &self.members[task / n_chunks];
            let i = task % n_chunks;
            match windows {
                Windows::Series(series, starts) => {
                    let starts = &starts[i * chunk..((i + 1) * chunk).min(starts.len())];
                    let batch = Self::gather_windows(series, starts, w);
                    model
                        .infer(store, &batch, Positions::Last)
                        .write_errors(&batch, &mut errors[..starts.len()]);
                    batch.recycle();
                }
                Windows::Batch(batch) => model
                    .infer(store, batch, Positions::Last)
                    .write_errors(batch, errors),
            }
        });
        (out, chunk * n_chunks)
    }

    /// Writes the trained state — both configurations, the training
    /// scaler and every member's parameters — to `path` as a versioned
    /// binary checkpoint (see [`crate::persist`]). The round trip through
    /// [`CaeEnsemble::load`] is bit-exact: a loaded ensemble produces
    /// scores identical to the one that was saved.
    ///
    /// Panics when called before [`Detector::fit`] — only a trained
    /// ensemble is worth shipping, and the reader rejects memberless
    /// files.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        assert!(!self.members.is_empty(), "save() before fit()");
        persist::save_ensemble(
            path.as_ref(),
            &self.model_cfg,
            &self.cfg,
            self.scaler.as_ref(),
            &self.members,
        )
    }

    /// Loads a trained ensemble from a checkpoint written by
    /// [`CaeEnsemble::save`]. The training loss trace is not persisted;
    /// a loaded ensemble has an empty [`CaeEnsemble::loss_trace`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let (model_cfg, cfg, scaler, members) = persist::load_ensemble(path.as_ref())?;
        Ok(Self::from_loaded_parts(model_cfg, cfg, scaler, members))
    }

    /// Loads `primary`, falling back to the `last_good` checkpoint when
    /// the primary is missing, torn, or corrupt. On fallback the primary's
    /// rejection reason is preserved in
    /// [`RecoveredLoad::primary_error`] so callers can log *why* the
    /// fleet started from an older ensemble. Only when both checkpoints
    /// fail does the load error out, with both reasons.
    pub fn load_with_fallback(
        primary: impl AsRef<Path>,
        last_good: impl AsRef<Path>,
    ) -> Result<RecoveredLoad<Self>, FallbackExhausted> {
        match Self::load(primary) {
            Ok(ensemble) => Ok(RecoveredLoad {
                value: ensemble,
                primary_error: None,
            }),
            Err(primary) => match Self::load(last_good) {
                Ok(ensemble) => Ok(RecoveredLoad {
                    value: ensemble,
                    primary_error: Some(primary),
                }),
                Err(fallback) => Err(FallbackExhausted { primary, fallback }),
            },
        }
    }

    /// Warm-started re-fit on recent observations: the online-adaptation
    /// path. Equivalent to [`CaeEnsemble::refit`] with
    /// [`RefitOptions::warm`].
    ///
    /// The live ensemble is untouched (`&self`); the returned ensemble is
    /// the adapted replacement, ready to be checkpointed and hot-swapped
    /// into a fleet. Safe to call from a background thread while the
    /// original keeps serving.
    pub fn refit_warm(&self, recent: &TimeSeries, epochs: usize, seed: u64) -> CaeEnsemble {
        self.refit(recent, &RefitOptions::warm(epochs, seed))
    }

    /// Re-trains every member on `recent` — typically the drift
    /// reservoir's unrolled ring (see `cae_data::ObservationReservoir`) —
    /// and returns the adapted ensemble without touching the live one.
    ///
    /// With [`RefitOptions::warm_start`] each new member begins from the
    /// corresponding live member's current parameters, the paper's
    /// parameter-transfer trick (Figure 9) applied across time: most of
    /// what the model knows about the signal family survives the drift,
    /// so far fewer epochs are needed than a cold re-fit from Xavier
    /// init. The diversity term stays active, **anchored to the live
    /// ensemble**: the anchor `F(X)` (Eq. 8) starts as the deployed
    /// members' mean reconstruction of the recent windows and folds in
    /// each freshly re-fit member, so adaptation cannot collapse the
    /// ensemble onto a single post-drift solution.
    ///
    /// A cold re-fit ([`RefitOptions::cold`]) runs the offline `fit`
    /// member chain (fresh init + inter-member transfer, running-mean
    /// anchor) on the same windows and scaler policy — the controlled
    /// baseline that warm-start adaptation is measured against.
    pub fn refit(&self, recent: &TimeSeries, opts: &RefitOptions) -> CaeEnsemble {
        assert!(!self.members.is_empty(), "refit() before fit()");
        assert!(opts.epochs >= 1, "refit needs at least one epoch");
        self.check_training_series(recent, "recent");

        // Scaler: fold the recent regime into the running statistics
        // (Welford partial fit), or keep the serving scaler bit-identical.
        // History-less scalers (checkpoint-loaded; the sample count is not
        // persisted) stay frozen even with `update_scaler` — a partial fit
        // would replace the training statistics with reservoir-only ones
        // instead of merging (see `RefitOptions::update_scaler`).
        let scaler = match (&self.scaler, opts.update_scaler) {
            (Some(s), true) if s.observations() > 0 => {
                let mut s = s.clone();
                s.partial_fit(recent);
                Some(s)
            }
            (s, _) => s.clone(),
        };
        let mut new = CaeEnsemble {
            scaler,
            ..CaeEnsemble::new(self.model_cfg.clone(), self.cfg.clone())
        };
        let scaled = new.scale(recent);
        (new.members, new.loss_trace) = Self::train_chain(
            &self.model_cfg,
            &self.cfg,
            &scaled,
            opts.warm_start.then_some(self.members.as_slice()),
            self.members.len(),
            opts.epochs,
            opts.seed,
        );
        new
    }

    /// Panics unless `series` (the `what` series, in the message) has the
    /// configured dimensionality and more than one window.
    fn check_training_series(&self, series: &TimeSeries, what: &str) {
        let (dim, w) = (self.model_cfg.dim, self.model_cfg.window);
        assert_eq!(
            series.dim(),
            dim,
            "{what} series dim {} != configured {dim}",
            series.dim()
        );
        assert!(
            series.len() > w,
            "{what} series ({} observations) shorter than window + 1 ({})",
            series.len(),
            w + 1
        );
    }

    /// Reassembles an ensemble from decoded checkpoint parts (the loss
    /// trace is diagnostic state and is not persisted).
    pub(crate) fn from_loaded_parts(
        model_cfg: CaeConfig,
        cfg: EnsembleConfig,
        scaler: Option<Scaler>,
        members: Vec<Member>,
    ) -> Self {
        CaeEnsemble {
            model_cfg,
            cfg,
            scaler,
            members,
            loss_trace: Vec::new(),
        }
    }
}

impl Detector for CaeEnsemble {
    fn name(&self) -> &str {
        "CAE-Ensemble"
    }

    /// Algorithm 1: pre-process, then generate and train the `M` basic
    /// models sequentially with parameter transfer and the
    /// diversity-driven objective.
    fn fit(&mut self, train: &TimeSeries) {
        self.check_training_series(train, "training");

        // Pre-processing: re-scale, then split into windows (Section 3).
        self.scaler = if self.cfg.rescale {
            Some(Scaler::fit(train))
        } else {
            None
        };
        let scaled = self.scale(train);

        (self.members, self.loss_trace) = Self::train_chain(
            &self.model_cfg,
            &self.cfg,
            &scaled,
            None,
            self.cfg.num_models,
            self.cfg.epochs_per_model,
            self.cfg.seed,
        );
    }

    /// Median outlier scores (Eq. 15) per test observation.
    fn score(&self, test: &TimeSeries) -> Vec<f32> {
        assert!(!self.members.is_empty(), "score() before fit()");
        median_scores(&self.member_scores(test))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReconstructionTarget;

    fn sine_series(len: usize, dim: usize) -> TimeSeries {
        let mut s = TimeSeries::empty(dim);
        let mut obs = vec![0.0f32; dim];
        for t in 0..len {
            for (d, o) in obs.iter_mut().enumerate() {
                *o = ((t as f32) * 0.35 + d as f32).sin();
            }
            s.push(&obs);
        }
        s
    }

    fn tiny_configs(dim: usize) -> (CaeConfig, EnsembleConfig) {
        (
            CaeConfig::new(dim).embed_dim(8).window(8).layers(1),
            EnsembleConfig::new()
                .num_models(3)
                .epochs_per_model(2)
                .batch_size(16)
                .train_stride(2)
                .seed(17),
        )
    }

    /// Runs `f` with the process-wide pool at `threads`, serialized
    /// against the other tests that change the pool width, and resets the
    /// pool to 1 thread on exit, panics included.
    fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        struct OneThread;
        impl Drop for OneThread {
            fn drop(&mut self) {
                par::set_threads(1);
            }
        }
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _reset = OneThread;
        par::set_threads(threads);
        f()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `member_scores` takes window 0's first `w − 1` errors from a
    /// one-window all-position forward and every window's last error from
    /// a last-position forward of its chunk; its series must equal those
    /// errors read off all-position forwards, bit for bit, whichever way
    /// the windows split into inference chunks and the (member, chunk)
    /// tasks split over the pool.
    #[test]
    fn member_scores_match_all_position_series_at_chunk_boundaries() {
        let (mc, ec) = tiny_configs(2);
        let mut ens = CaeEnsemble::new(mc, ec.num_models(2).epochs_per_model(1));
        ens.fit(&sine_series(120, 2));
        let w = ens.model_config().window;
        let all_errors = |model: &Cae, store: &ParamStore, batch: &Tensor| {
            let mut errors = Vec::new();
            model
                .infer(store, batch, Positions::All)
                .errors_into(batch, &mut errors);
            errors
        };
        for n_win in [1, 2, 63, 64, 65, 129] {
            let test = sine_series(n_win + w - 1, 2);
            let scaled = ens.scale(&test);
            let starts: Vec<usize> = (0..n_win).collect();
            let first = CaeEnsemble::gather_windows(&scaled, &[0], w);
            let expected: Vec<Vec<u32>> = ens
                .members
                .iter()
                .map(|(model, store)| {
                    let mut series = all_errors(model, store, &first);
                    series.truncate(w - 1);
                    for chunk in starts.chunks(INFERENCE_BATCH) {
                        let batch = CaeEnsemble::gather_windows(&scaled, chunk, w);
                        let errors = all_errors(model, store, &batch);
                        series.extend(errors.chunks_exact(w).map(|row| row[w - 1]));
                    }
                    bits(&series)
                })
                .collect();
            for threads in [1, 2] {
                let per_member = at_threads(threads, || ens.member_scores(&test));
                for (m, scores) in per_member.iter().enumerate() {
                    assert_eq!(
                        bits(scores),
                        expected[m],
                        "member {m}, {n_win} windows, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn fit_then_score_produces_per_observation_scores() {
        let series = sine_series(200, 2);
        let (mc, ec) = tiny_configs(2);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&series);
        assert_eq!(ens.num_members(), 3);
        let scores = ens.score(&series);
        assert_eq!(scores.len(), 200);
        assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn spike_scores_higher_than_normal() {
        let train = sine_series(300, 1);
        let mut test = sine_series(200, 1);
        // Strong spike at t = 100.
        test.data_mut()[100] += 8.0;
        let (mc, mut ec) = tiny_configs(1);
        ec = ec.num_models(2).epochs_per_model(4);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&train);
        let scores = ens.score(&test);
        let spike = scores[100];
        let normal_mean: f32 = scores
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != 100)
            .map(|(_, &s)| s)
            .sum::<f32>()
            / 199.0;
        assert!(
            spike > 3.0 * normal_mean,
            "spike score {spike} not above normal mean {normal_mean}"
        );
    }

    /// The same seed gives the same fit and scores, bit for bit, at 1
    /// and at 2 pool threads. At D' = 24, w = 16 and batch 32 the
    /// training ops clear `PAR_THRESHOLD`, so the second run really
    /// dispatches to the pool.
    #[test]
    fn deterministic_under_fixed_seed() {
        let series = sine_series(150, 1);
        let (mc, ec) = tiny_configs(1);
        let (mc, ec) = (mc.embed_dim(24).window(16), ec.batch_size(32));
        let run = |threads| {
            at_threads(threads, || {
                let mut ens = CaeEnsemble::new(mc.clone(), ec.clone());
                ens.fit(&series);
                let trace: Vec<[u32; 4]> = ens
                    .loss_trace()
                    .iter()
                    .map(|&(m, e, j, k)| [m as u32, e as u32, j.to_bits(), k.to_bits()])
                    .collect();
                (trace, bits(&ens.score(&series)))
            })
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn diversity_driven_ensembles_are_more_diverse() {
        let series = sine_series(250, 1);
        let (mc, ec) = tiny_configs(1);
        // Raw target: Eq. 9 distances need a shared output space.
        let mc = mc.target(ReconstructionTarget::Raw);
        let mut diverse = CaeEnsemble::new(mc.clone(), ec.clone().lambda(4.0));
        diverse.fit(&series);
        let mut independent = CaeEnsemble::new(mc, ec.diversity_driven(false));
        independent.fit(&series);
        let d_div = diverse.diversity_value(&series);
        let i_div = independent.diversity_value(&series);
        assert!(
            d_div > i_div,
            "diversity-driven {d_div:.4} not above independent {i_div:.4}"
        );
    }

    #[test]
    fn member_scores_align_with_median() {
        let series = sine_series(120, 1);
        let (mc, ec) = tiny_configs(1);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&series);
        let per = ens.member_scores(&series);
        assert_eq!(per.len(), 3);
        let median = ens.score(&series);
        let manual = median_scores(&per);
        assert_eq!(median, manual);
        let partial = ens.score_with_first_members(&series, 2);
        assert_eq!(partial.len(), 120);
    }

    #[test]
    fn raw_target_mode_works() {
        let series = sine_series(150, 2);
        let (mc, ec) = tiny_configs(2);
        let mut ens = CaeEnsemble::new(mc.target(ReconstructionTarget::Raw), ec);
        ens.fit(&series);
        let scores = ens.score(&series);
        assert_eq!(scores.len(), 150);
    }

    #[test]
    fn loss_trace_records_every_epoch() {
        let series = sine_series(150, 1);
        let (mc, ec) = tiny_configs(1);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&series);
        assert_eq!(ens.loss_trace().len(), 3 * 2);
        // First model trains without the diversity term.
        assert_eq!(ens.loss_trace()[0].3, 0.0);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_requires_fit() {
        let (mc, ec) = tiny_configs(1);
        let ens = CaeEnsemble::new(mc, ec);
        ens.score(&sine_series(50, 1));
    }

    // ------------------------------------------------------------------
    // Online adaptation: refit / refit_warm
    // ------------------------------------------------------------------

    /// A univariate regime `amp · sin(freq · t) + level`.
    fn regime(len: usize, freq: f32, amp: f32, level: f32) -> TimeSeries {
        TimeSeries::univariate(
            (0..len)
                .map(|t| amp * (t as f32 * freq).sin() + level)
                .collect(),
        )
    }

    /// The two-frequency signal family of the drift experiments:
    /// `sin(f₁·t) + 0.5·sin(0.07·t)`, scaled and shifted.
    fn drift_wave(t: usize, f1: f32, scale: f32, level: f32) -> f32 {
        scale * ((t as f32 * f1).sin() + 0.5 * (t as f32 * 0.07).sin() + level)
    }

    fn drifted_setup() -> (CaeEnsemble, TimeSeries) {
        let train =
            TimeSeries::univariate((0..400).map(|t| drift_wave(t, 0.25, 1.0, 0.0)).collect());
        // Deep enough that re-learning the stack from scratch genuinely
        // costs epochs — the regime parameter transfer is supposed to
        // save.
        let mc = CaeConfig::new(1).embed_dim(12).window(12).layers(2);
        let ec = EnsembleConfig::new()
            .num_models(3)
            .epochs_per_model(4)
            .batch_size(16)
            .train_stride(2)
            .seed(17);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&train);
        // The drifted regime: faster primary frequency, larger amplitude,
        // shifted level — related to, but off, the training distribution.
        let recent =
            TimeSeries::univariate((0..240).map(|t| drift_wave(t, 0.29, 1.2, 0.3)).collect());
        (ens, recent)
    }

    /// Mean epoch-`e` reconstruction loss J across all members, from the
    /// training trace.
    fn mean_j_at_epoch(ens: &CaeEnsemble, epoch: usize) -> f32 {
        let js: Vec<f32> = ens
            .loss_trace()
            .iter()
            .filter(|&&(_, e, _, _)| e == epoch)
            .map(|&(_, _, j, _)| j)
            .collect();
        assert!(!js.is_empty(), "no trace entries for epoch {epoch}");
        js.iter().sum::<f32>() / js.len() as f32
    }

    /// A cold re-fit on the training series, with the fit's seed, epochs
    /// and scaler, is Algorithm 1 again: it must reproduce `fit` bit for
    /// bit, loss trace and scores alike.
    #[test]
    fn cold_refit_reproduces_fit_bit_for_bit() {
        let series = sine_series(160, 2);
        let bits = |e: &CaeEnsemble| {
            let trace = e
                .loss_trace()
                .iter()
                .flat_map(|&(m, epoch, j, k)| [m as u32, epoch as u32, j.to_bits(), k.to_bits()]);
            let scores = e.score(&series).into_iter().map(f32::to_bits);
            trace.chain(scores).collect::<Vec<u32>>()
        };
        for rescale in [true, false] {
            let (mc, ec) = tiny_configs(2);
            let mut fitted = CaeEnsemble::new(mc, ec.rescale(rescale));
            fitted.fit(&series);
            let cfg = fitted.ensemble_config();
            let opts = RefitOptions {
                update_scaler: false,
                ..RefitOptions::cold(cfg.epochs_per_model, cfg.seed)
            };
            let refit = fitted.refit(&series, &opts);
            assert_eq!(bits(&refit), bits(&fitted), "rescale {rescale}");
        }
    }

    #[test]
    fn refit_warm_is_deterministic_and_leaves_the_live_ensemble_untouched() {
        let (ens, recent) = drifted_setup();
        let before = ens.score(&recent);
        let a = ens.refit_warm(&recent, 2, 77);
        let b = ens.refit_warm(&recent, 2, 77);
        assert_eq!(a.num_members(), ens.num_members());
        assert_eq!(a.score(&recent), b.score(&recent));
        // `&self` re-fit: the serving ensemble still scores identically.
        assert_eq!(ens.score(&recent), before);
    }

    #[test]
    fn warm_refit_starts_near_the_live_parameters() {
        let (ens, recent) = drifted_setup();
        let warm = ens.refit(&recent, &RefitOptions::warm(1, 5));
        let cold = ens.refit(&recent, &RefitOptions::cold(1, 5));
        for m in 0..ens.num_members() {
            let live = &ens.members()[m].1;
            let d_warm = live.param_distance_sq(&warm.members()[m].1);
            let d_cold = live.param_distance_sq(&cold.members()[m].1);
            assert!(
                d_warm < d_cold,
                "member {m}: warm distance {d_warm} not below cold {d_cold}"
            );
        }
    }

    #[test]
    fn warm_refit_reaches_cold_final_loss_in_at_most_half_the_epochs() {
        // The acceptance criterion of the adaptation subsystem: on drifted
        // data, the warm-started re-fit must reach the loss a cold re-fit
        // ends at in ≤ 50% of the cold epochs.
        let (ens, recent) = drifted_setup();
        let epochs = 10;
        let cold = ens.refit(&recent, &RefitOptions::cold(epochs, 99));
        let warm = ens.refit(&recent, &RefitOptions::warm(epochs, 99));
        let cold_final = mean_j_at_epoch(&cold, epochs - 1);
        let reached = (0..epochs).find(|&e| mean_j_at_epoch(&warm, e) <= cold_final);
        let reached = reached.unwrap_or_else(|| {
            panic!(
                "warm re-fit never reached the cold final loss {cold_final} \
                 (warm final {})",
                mean_j_at_epoch(&warm, epochs - 1)
            )
        });
        let used = reached + 1;
        assert!(
            used <= epochs / 2,
            "warm re-fit needed {used} epochs to reach the cold final loss \
             {cold_final}; budget was {}",
            epochs / 2
        );
    }

    #[test]
    fn refit_adapts_scores_to_the_drifted_regime() {
        let (ens, recent) = drifted_setup();
        let adapted = ens.refit_warm(&recent, 6, 3);
        let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
        let holdout =
            TimeSeries::univariate((0..160).map(|t| drift_wave(t, 0.29, 1.2, 0.3)).collect());
        let stale = mean(&ens.score(&holdout));
        let fresh = mean(&adapted.score(&holdout));
        assert!(
            fresh < stale,
            "adapted ensemble must reconstruct the drifted regime better: \
             adapted mean score {fresh} vs stale {stale}"
        );
    }

    #[test]
    fn refit_scaler_policy_is_respected() {
        let (ens, recent) = drifted_setup();
        let live = ens.scaler().expect("rescale on");
        let frozen = ens.refit(
            &recent,
            &RefitOptions {
                update_scaler: false,
                ..RefitOptions::warm(1, 4)
            },
        );
        let f = frozen.scaler().expect("rescale on");
        assert_eq!(f.mean(), live.mean());
        assert_eq!(f.std(), live.std());

        let updated = ens.refit(&recent, &RefitOptions::warm(1, 4));
        let u = updated.scaler().expect("rescale on");
        assert_eq!(
            u.observations(),
            live.observations() + recent.len() as u64,
            "partial_fit must fold the recent observations in"
        );
        assert_ne!(u.mean(), live.mean(), "drifted level must move the mean");
    }

    #[test]
    fn refit_keeps_a_checkpoint_loaded_scaler_frozen() {
        // A loaded scaler has no accumulator history (the sample count is
        // not persisted); partial_fit would *replace* its statistics with
        // reservoir-only ones instead of merging. refit must keep it
        // frozen so adaptation is deterministic across a checkpoint round
        // trip.
        let (ens, recent) = drifted_setup();
        let path = std::env::temp_dir().join(format!(
            "cae_refit_frozen_scaler_{}.caee",
            std::process::id()
        ));
        ens.save(&path).expect("checkpoint write");
        let loaded = CaeEnsemble::load(&path).expect("checkpoint read");
        let _ = std::fs::remove_file(&path);
        let before = loaded.scaler().expect("rescale on").clone();
        assert_eq!(before.observations(), 0, "loaded scaler has no history");

        let adapted = loaded.refit(&recent, &RefitOptions::warm(1, 4));
        let after = adapted.scaler().expect("rescale on");
        assert_eq!(
            after.mean(),
            before.mean(),
            "loaded scaler must stay frozen"
        );
        assert_eq!(after.std(), before.std(), "loaded scaler must stay frozen");
    }

    #[test]
    fn refit_works_without_rescaling() {
        let train = regime(300, 0.3, 1.0, 0.0);
        let (mc, ec) = tiny_configs(1);
        let mut ens = CaeEnsemble::new(mc, ec.rescale(false));
        ens.fit(&train);
        assert!(ens.scaler().is_none());
        let adapted = ens.refit_warm(&regime(200, 0.4, 1.2, 0.0), 1, 2);
        assert!(adapted.scaler().is_none());
        assert_eq!(adapted.num_members(), ens.num_members());
    }

    #[test]
    #[should_panic(expected = "refit() before fit")]
    fn refit_requires_fit() {
        let (mc, ec) = tiny_configs(1);
        let ens = CaeEnsemble::new(mc, ec);
        ens.refit_warm(&sine_series(100, 1), 1, 0);
    }

    #[test]
    #[should_panic(expected = "shorter than window")]
    fn refit_rejects_short_series() {
        let (ens, _) = drifted_setup();
        ens.refit_warm(&sine_series(4, 1), 1, 0);
    }
}
