//! Per-layer replays for the traced run.
//!
//! The forward pass is split by replaying a batch through a same-config
//! member built from the public layer types: `Cae::embed` for the
//! embedding, then `GluConv1d`, `Conv1dLayer`, `Linear` and the `Tape`
//! attention ops in the order `Cae::forward` applies them, each stage
//! timed on its own. The member itself times `Cae::forward` whole, so
//! `bench.stage_coverage` shows how much of the forward the stages explain.

use crate::calib::Calibration;
use crate::common::{ms, Metrics, MEMBERS, TRAIN_BATCH};
use crate::stats::median;
use crate::work;
use cae_autograd::{ParamStore, Tape, Var};
use cae_core::{Cae, CaeConfig, CaeEnsemble};
use cae_data::TimeSeries;
use cae_nn::{Activation, Adam, Conv1dLayer, GluConv1d, Linear, Optimizer};
use cae_obs::MetricsRegistry;
use cae_tensor::{par, Padding, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Stage names, in forward order.
const STAGES: [&str; 8] = [
    "nn.embed_ms",
    "nn.enc_glu_ms",
    "nn.conv_ms",
    "autograd.transpose_ms",
    "nn.dec_glu_ms",
    "autograd.attention_ms",
    "nn.recon_glu_ms",
    "nn.recon_head_ms",
];

/// The layers of one member, mirrored from `Cae`'s architecture.
#[derive(Debug)]
struct Mirror {
    store: ParamStore,
    enc_glu: Vec<GluConv1d>,
    enc_conv: Vec<Conv1dLayer>,
    dec_glu: Vec<GluConv1d>,
    dec_conv: Vec<Conv1dLayer>,
    attn: Vec<Linear>,
    recon_glu: GluConv1d,
    recon_conv: Conv1dLayer,
    conv_activation: Activation,
    attention: bool,
}

impl Mirror {
    fn new(cfg: &CaeConfig, rng: &mut StdRng) -> Mirror {
        let mut store = ParamStore::new();
        let (e, k) = (cfg.embed_dim, cfg.kernel_size);
        let glu = |store: &mut ParamStore, rng: &mut StdRng, pad| {
            GluConv1d::new(store, "glu", e, k, pad, rng)
        };
        let conv = |store: &mut ParamStore, rng: &mut StdRng, pad| {
            Conv1dLayer::new(store, "conv", e, e, k, pad, Activation::Identity, rng)
        };
        let mut m = Mirror {
            enc_glu: Vec::new(),
            enc_conv: Vec::new(),
            dec_glu: Vec::new(),
            dec_conv: Vec::new(),
            attn: Vec::new(),
            recon_glu: glu(&mut store, rng, Padding::Causal),
            recon_conv: Conv1dLayer::new(
                &mut store,
                "recon",
                e,
                cfg.recon_dim(),
                1,
                Padding::Causal,
                cfg.recon_activation,
                rng,
            ),
            store: ParamStore::new(),
            conv_activation: cfg.conv_activation,
            attention: cfg.attention,
        };
        for _ in 0..cfg.layers {
            m.enc_glu.push(glu(&mut store, rng, Padding::Same));
            m.enc_conv.push(conv(&mut store, rng, Padding::Same));
            m.dec_glu.push(glu(&mut store, rng, Padding::Causal));
            m.dec_conv.push(conv(&mut store, rng, Padding::Causal));
            m.attn.push(Linear::new(
                &mut store,
                "attn",
                e,
                e,
                Activation::Identity,
                rng,
            ));
        }
        m.store = store;
        m
    }
}

/// Per-stage samples (ms) accumulated over replays.
#[derive(Debug, Default)]
pub struct StageSamples {
    pub forward_ms: Vec<f64>,
    pub stage_ms: [Vec<f64>; STAGES.len()],
    pub tape_nodes: usize,
}

/// Training-layer samples (ms).
#[derive(Debug, Default)]
pub struct TrainSamples {
    pub step_ms: Vec<f64>,
    pub backward_ms: Vec<f64>,
    pub adam_ms: Vec<f64>,
    pub kernel_grad_ms: Vec<f64>,
}

/// A same-config member plus its mirrored layers.
#[derive(Debug)]
pub struct StageMember {
    cfg: CaeConfig,
    cae: Cae,
    store: ParamStore,
    mirror: Mirror,
    tape: Tape,
    /// Separate from `tape`, so the stage replay leaves the whole-forward
    /// tape's buffers as the forward left them.
    stage_tape: Tape,
}

/// Times `f` in ms into `acc`.
fn timed<T>(acc: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    acc.push(ms(t));
    out
}

impl StageMember {
    pub fn new(cfg: &CaeConfig, seed: u64) -> StageMember {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0053_5441_4745);
        let mut store = ParamStore::new();
        let cae = Cae::new(cfg.clone(), &mut store, &mut rng);
        let mirror = Mirror::new(cfg, &mut rng);
        StageMember {
            cfg: cfg.clone(),
            cae,
            store,
            mirror,
            tape: Tape::new(),
            stage_tape: Tape::new(),
        }
    }

    /// Times one whole `Cae::forward` over `batch`.
    pub fn forward(&mut self, batch: &Tensor, acc: &mut StageSamples) {
        self.tape.clear();
        let (cae, store, tape) = (&self.cae, &self.store, &mut self.tape);
        timed(&mut acc.forward_ms, || cae.forward(tape, store, batch));
        acc.tape_nodes = self.tape.len();
    }

    /// Replays the forward over `batch` stage by stage (see module docs).
    pub fn stages(&mut self, batch: &Tensor, acc: &mut StageSamples) {
        let [embed, enc_glu, conv, transpose, dec_glu, attention, recon_glu, head] =
            &mut acc.stage_ms;
        let m = &self.mirror;
        let ps = &m.store;
        let tape = &mut self.stage_tape;
        tape.clear();
        let (cae, store) = (&self.cae, &self.store);
        let x = timed(embed, || cae.embed(tape, store, batch));
        let mut t_ms = 0.0;
        let mut tr = |tape: &mut Tape, v: Var| {
            let t = Instant::now();
            let out = tape.transpose12(v);
            t_ms += ms(t);
            out
        };
        let mut e = tr(tape, x);
        let mut enc = Vec::with_capacity(m.enc_glu.len());
        let mut enc_tm = Vec::with_capacity(m.enc_glu.len());
        let mut conv_ms = 0.0;
        let mut enc_glu_ms = 0.0;
        for l in 0..m.enc_glu.len() {
            let t = Instant::now();
            let g = m.enc_glu[l].forward(tape, ps, e);
            enc_glu_ms += ms(t);
            let t = Instant::now();
            let c = m.enc_conv[l].forward(tape, ps, g);
            let a = m.conv_activation.apply(tape, c);
            e = tape.add(a, e);
            conv_ms += ms(t);
            enc.push(e);
            if m.attention {
                enc_tm.push(tr(tape, e));
            }
        }
        let shifted = tape.shift_right_time(x);
        let mut dec = tr(tape, shifted);
        let mut dec_glu_ms = 0.0;
        let mut attn_ms = 0.0;
        for l in 0..m.dec_glu.len() {
            let t = Instant::now();
            let g = m.dec_glu[l].forward(tape, ps, dec);
            dec_glu_ms += ms(t);
            let t = Instant::now();
            let c = m.dec_conv[l].forward(tape, ps, g);
            let injected = tape.add(c, enc[l]);
            let a = m.conv_activation.apply(tape, injected);
            dec = tape.add(a, dec);
            conv_ms += ms(t);
            if m.attention {
                let d_tm = tr(tape, dec);
                let t = Instant::now();
                let z = m.attn[l].forward(tape, ps, d_tm);
                let scores = tape.bmm_nt(z, enc_tm[l]);
                let alpha = tape.softmax_last(scores);
                let context = tape.bmm(alpha, enc_tm[l]);
                let updated = tape.add(context, d_tm);
                attn_ms += ms(t);
                dec = tr(tape, updated);
            }
        }
        let g = timed(recon_glu, || m.recon_glu.forward(tape, ps, dec));
        timed(head, || {
            let r = m.recon_conv.forward(tape, ps, g);
            tape.transpose12(r)
        });
        enc_glu.push(enc_glu_ms);
        dec_glu.push(dec_glu_ms);
        conv.push(conv_ms);
        attention.push(attn_ms);
        transpose.push(t_ms);
    }

    /// One training step of the member on `batch` (forward, MSE loss,
    /// backward, gradient accumulation, Adam), plus one kernel-gradient
    /// contraction at the training shapes.
    pub fn train_step(&mut self, batch: &Tensor, opt: &mut Adam, acc: &mut TrainSamples) {
        let t = Instant::now();
        self.tape.clear();
        let out = self.cae.forward(&mut self.tape, &self.store, batch);
        let target = self.cae.target_tensor(&self.tape, &out, batch);
        let loss = self.tape.mse_loss(out.recon, &target);
        target.recycle();
        let tape = &mut self.tape;
        timed(&mut acc.backward_ms, || tape.backward(loss));
        self.tape.accumulate_param_grads(&mut self.store);
        let store = &mut self.store;
        timed(&mut acc.adam_ms, || opt.step(store));
        acc.step_ms.push(ms(t));

        let (b, e, w) = (batch.dims()[0], self.cfg.embed_dim, self.cfg.window);
        let x = Tensor::from_vec(
            (0..b * e * w).map(|i| (i % 13) as f32 * 0.05).collect(),
            &[b, e, w],
        );
        let g = Tensor::from_vec(
            (0..b * e * w).map(|i| (i % 11) as f32 * 0.03).collect(),
            &[b, e, w],
        );
        let k = self.cfg.kernel_size;
        timed(&mut acc.kernel_grad_ms, || {
            Tensor::conv1d_kernel_grad(&x, &g, k, Padding::Same).recycle();
        });
    }

    pub fn optimizer(&self) -> Adam {
        Adam::new(&self.store, 1e-3)
    }
}

/// `(B, w, D)` batch of the windows of `series` starting at `starts`,
/// scaled by the ensemble's scaler — what a tick or batch chunk feeds in.
pub fn window_batch(ens: &CaeEnsemble, series: &TimeSeries, starts: &[usize]) -> Tensor {
    let (w, d) = (ens.model_config().window, series.dim());
    let mut data = Vec::with_capacity(starts.len() * w * d);
    for &s in starts {
        data.extend_from_slice(&series.data()[s * d..(s + w) * d]);
    }
    if let Some(scaler) = ens.scaler() {
        scaler.apply_in_place(&mut data);
    }
    Tensor::from_vec(data, &[starts.len(), w, d])
}

/// Replays tick batches through the lower layers: the ensemble's
/// `score_scaled_windows_into`, then one same-config member's whole
/// forward and its stages, back to back on the same batch so that the
/// differences between them are not skewed by clock drift.
#[derive(Debug)]
pub struct Replayer {
    member: StageMember,
    tape: Tape,
    pub scores: Vec<f32>,
    pub score_ms: Vec<f64>,
    agg_ms: Vec<f64>,
    coverage: Vec<f64>,
    gmadd_per_s: Vec<f64>,
    stages: StageSamples,
}

impl Replayer {
    pub fn new(cfg: &CaeConfig, seed: u64) -> Replayer {
        Replayer {
            member: StageMember::new(cfg, seed),
            tape: Tape::new(),
            scores: Vec::new(),
            score_ms: Vec::new(),
            agg_ms: Vec::new(),
            coverage: Vec::new(),
            gmadd_per_s: Vec::new(),
            stages: StageSamples::default(),
        }
    }

    /// Replays one batch; its scores are left in `self.scores` and its
    /// `score_scaled_windows_into` time (ms) is returned.
    pub fn replay(&mut self, ens: &CaeEnsemble, batch: &Tensor) -> f64 {
        // The first pass warms this tape's buffers; the second is timed.
        self.scores.clear();
        ens.score_scaled_windows_into(&mut self.tape, batch, &mut self.scores);
        self.scores.clear();
        let t = Instant::now();
        ens.score_scaled_windows_into(&mut self.tape, batch, &mut self.scores);
        let score = ms(t);
        self.score_ms.push(score);
        // As many member forwards as the scorer ran, back to back; the
        // median is this replay's forward time.
        let mut forwards = StageSamples::default();
        for _ in 0..MEMBERS {
            self.member.forward(batch, &mut forwards);
        }
        let fwd = median(&forwards.forward_ms);
        self.stages.forward_ms.push(fwd);
        self.stages.tape_nodes = forwards.tape_nodes;
        self.member.stages(batch, &mut self.stages);
        self.agg_ms.push(score - MEMBERS as f64 * fwd);
        let covered: f64 = self.stages.stage_ms.iter().map(|v| v[v.len() - 1]).sum();
        self.coverage.push(covered / fwd);
        let madds = work::score_batch(&self.member.cfg, MEMBERS, batch.dims()[0]).madds;
        self.gmadd_per_s.push(madds as f64 / (score * 1e-3) / 1e9);
        score
    }

    /// Records the scoring and forward-stage metrics.
    pub fn record(&self, m: &mut Metrics, calib: &Calibration) {
        let score = median(&self.score_ms);
        m.set("core.score_batch_ms", score);
        m.set("core.member_forward_ms", median(&self.stages.forward_ms));
        m.set("core.score_agg_ms", median(&self.agg_ms));
        m.set("autograd.tape_nodes", self.stages.tape_nodes as f64);
        let layers = self.member.cfg.layers as f64;
        for (name, samples) in STAGES.iter().zip(&self.stages.stage_ms) {
            // The encoder and decoder GLUs are reported per layer, so
            // they compare directly with the single reconstruction GLU.
            let per = if matches!(*name, "nn.enc_glu_ms" | "nn.dec_glu_ms") {
                layers
            } else {
                1.0
            };
            m.set(name, median(samples) / per);
        }
        m.set("bench.stage_coverage", median(&self.coverage));
        m.set("tensor.gmadd_per_s", median(&self.gmadd_per_s));
        m.set("tensor.calib_ns", calib.median_ns());
    }
}

/// Training-layer replays at the training batch on a same-config member,
/// plus the shape-derived work counts for batches of `b` windows.
pub fn replay_training(
    m: &mut Metrics,
    ens: &CaeEnsemble,
    series: &TimeSeries,
    b: usize,
    reps: usize,
    seed: u64,
) {
    let cfg = ens.model_config().clone();
    let mut member = StageMember::new(&cfg, seed);
    let w = cfg.window;
    let train_starts: Vec<usize> = (0..TRAIN_BATCH)
        .map(|i| (i * 13) % (series.len() - w))
        .collect();
    let train_batch = window_batch(ens, series, &train_starts);
    let mut opt = member.optimizer();
    let mut train = TrainSamples::default();
    member.train_step(&train_batch, &mut opt, &mut TrainSamples::default());
    for _ in 0..reps {
        member.train_step(&train_batch, &mut opt, &mut train);
    }
    m.set("core.train_step_ms", median(&train.step_ms));
    m.set("autograd.backward_ms", median(&train.backward_ms));
    m.set("nn.adam_ms", median(&train.adam_ms));
    m.set("tensor.kernel_grad_ms", median(&train.kernel_grad_ms));

    let tick = work::score_batch(&cfg, MEMBERS, b);
    m.set("tensor.madds_per_tick", tick.madds as f64);
    m.set("tensor.bytes_per_tick", tick.bytes as f64);
    m.set(
        "tensor.madds_per_train_step",
        work::train_step(&cfg, TRAIN_BATCH).madds as f64,
    );
    m.set("tensor.pool_threads", par::pool_threads_spawned() as f64);
}

/// GEMM dispatch counts per tick, read from the `tensor_gemm_*` counters
/// that `cae_tensor::obs::install` links into a registry.
#[derive(Debug)]
pub struct GemmCounts {
    registry: MetricsRegistry,
    /// Whether the registry's enable state gates counting to traced
    /// blocks (`false`: counting is on throughout).
    gated: bool,
    before: (u64, u64),
    packed: Vec<f64>,
    scalar: Vec<f64>,
}

impl GemmCounts {
    fn with(registry: MetricsRegistry, gated: bool) -> Self {
        GemmCounts {
            registry,
            gated,
            before: (0, 0),
            packed: Vec::new(),
            scalar: Vec::new(),
        }
    }

    /// Counting confined to traced blocks: installs the tensor tier on a
    /// registry of its own, disabled until [`GemmCounts::begin`].
    pub fn gated() -> Self {
        let registry = MetricsRegistry::new();
        cae_tensor::obs::install(&registry);
        registry.disable();
        Self::with(registry, true)
    }

    /// Counting through a registry that already has the tensor tier
    /// installed and stays enabled (the workload's own).
    pub fn on(registry: &MetricsRegistry) -> Self {
        Self::with(registry.clone(), false)
    }

    fn dispatches(&self) -> (u64, u64) {
        let snapshot = self.registry.snapshot();
        let count = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |c| c.1)
        };
        (
            count("tensor_gemm_packed_dispatches_total"),
            count("tensor_gemm_scalar_dispatches_total"),
        )
    }

    /// Starts a tick; counts it when `on`.
    pub fn begin(&mut self, on: bool) {
        if self.gated {
            if on {
                self.registry.enable();
            } else {
                self.registry.disable();
            }
        }
        if on {
            self.before = self.dispatches();
        }
    }

    /// Ends a tick started with the same `on`.
    pub fn end(&mut self, on: bool) {
        if on {
            let (packed, scalar) = self.dispatches();
            self.packed.push((packed - self.before.0) as f64);
            self.scalar.push((scalar - self.before.1) as f64);
        }
    }

    /// Stops gated counting; records the per-tick medians.
    pub fn record(&self, m: &mut Metrics) {
        if self.gated {
            self.registry.disable();
        }
        m.set("tensor.gemm_packed_calls", median(&self.packed));
        m.set("tensor.gemm_scalar_calls", median(&self.scalar));
    }
}
