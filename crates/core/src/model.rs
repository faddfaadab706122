//! The convolutional sequence-to-sequence autoencoder `CAE` (Section 3.1).
//!
//! Architecture, matching Figure 3:
//!
//! 1. **Embedding** (Sec. 3.1.1): observation embedding
//!    `v_t = f_s(W_v s_t + b_v)` plus position embedding
//!    `p_t = f_t(W_p t + b_p)`, combined by summation `x_t = v_t + p_t`.
//! 2. **Encoder** (Sec. 3.1.2, Eq. 3–5): a stack of 1-D convolutions with
//!    *same* padding, each preceded by a GLU gate and wrapped in a skip
//!    connection: `E^{l+1} = f_E(W_E ⊗ GLU(E^l) + b_E) + E^l`.
//! 3. **Decoder** (Sec. 3.1.3, Eq. 6): the same stack with **causal**
//!    padding (the reconstruction at time `t` sees only inputs `≤ t`) and
//!    the encoder state of the same layer injected pre-activation:
//!    `D^{l+1} = f_D(W_D ⊗ GLU(D^l) + b_D + E^l) + D^l`.
//! 4. **Attention** (Sec. 3.1.4, Eq. 7): per decoder layer, Luong-style
//!    global attention between the decoder state summary `z_t = W_z d_t +
//!    b_z` and the encoder states, added back into the decoder state.
//! 5. **Reconstruction** (Sec. 3.1.5): `X̂ = f_R(W_R ⊗ GLU(D^{L+1}) + b_R)`.
//!
//! Two forwards compute this network. [`Cae::forward`] records it on an
//! autograd [`Tape`] for training. [`Cae::infer`] is the scoring forward:
//! no tape, activations kept batch-folded `(C, B·T)` ([`Fold`]) from the
//! embedding through the reconstruction head, each GLU's value and gate
//! convolutions run as one stacked GEMM over all folded columns, biases,
//! activations and residual adds applied in place on scratch-pool
//! buffers, and weights borrowed from the [`ParamStore`].
//!
//! [`Cae::infer`] reconstructs the [`Positions`] its caller scores. For
//! [`Positions::Last`] — the serving protocol of Figure 10 — the decoder,
//! attention and head compute only the last position's receptive field:
//! each causal convolution whose outputs start at `s` reads inputs from
//! `max(0, s − (k − 1))`, while skip, injection and attention act per
//! position. At the paper shape (w = 16, L = 2, k = 3) the decoder input
//! keeps 11 columns per window and the head 1. The encoder always runs
//! full width, because attention reads every encoder state. Its outputs
//! are bit-identical to the tape's at every position computed (see
//! [`cae_tensor::infer`] for the rules that keep them so).

use crate::config::{CaeConfig, ReconstructionTarget};
use cae_autograd::{ParamStore, Tape, Var};
use cae_nn::{Activation, Conv1dLayer, GluConv1d, Initializer, Linear, XavierInit, ZerosInit};
use cae_tensor::infer::{self, Fold};
use cae_tensor::{scratch, simd, Padding, Tensor};
use rand::Rng;

/// One basic model of the ensemble: the convolutional seq2seq autoencoder.
///
/// The struct holds only layer descriptors with parameter handles; values
/// live in the [`ParamStore`] created alongside it, which is what the
/// ensemble's parameter transfer operates on.
#[derive(Clone, Debug)]
pub struct Cae {
    cfg: CaeConfig,
    obs_embed: Linear,
    pos_embed: Linear,
    enc_glu: Vec<GluConv1d>,
    enc_conv: Vec<Conv1dLayer>,
    dec_glu: Vec<GluConv1d>,
    dec_conv: Vec<Conv1dLayer>,
    attn_summary: Vec<Linear>,
    recon_glu: GluConv1d,
    recon_conv: Conv1dLayer,
}

/// Tape handles produced by one forward pass.
#[derive(Clone, Copy, Debug)]
pub struct CaeOutput {
    /// The embedded input window `X` — `(B, w, D′)`.
    pub embedded: Var,
    /// The reconstruction `X̂` — `(B, w, D′)` for
    /// [`ReconstructionTarget::Embedded`], `(B, w, D)` for `Raw`.
    pub recon: Var,
}

impl Cae {
    /// Builds a model, registering all parameters in `store`.
    pub fn new<R: Rng + ?Sized>(cfg: CaeConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        Self::with_init(cfg, store, &mut XavierInit(rng))
    }

    /// Rebuilds a model from its configuration plus previously exported
    /// `(name, value)` parameter pairs — the checkpoint-loading path. No
    /// RNG is involved: the architecture is registered with placeholder
    /// zeros and every parameter is overwritten by its stored value, so
    /// the result is bit-identical to the model that was saved.
    ///
    /// `params` must list exactly the model's parameters in registration
    /// order with matching names and shapes (as produced by
    /// [`ParamStore::iter`] on a store built for the same configuration);
    /// any deviation is reported as an error, never a panic.
    pub fn from_params(
        cfg: CaeConfig,
        params: Vec<(String, Tensor)>,
    ) -> Result<(Self, ParamStore), String> {
        let mut store = ParamStore::new();
        let model = Cae::with_init(cfg, &mut store, &mut ZerosInit);
        if params.len() != store.len() {
            return Err(format!(
                "checkpoint holds {} parameter tensors, model configuration expects {}",
                params.len(),
                store.len()
            ));
        }
        let ids: Vec<_> = store.ids().collect();
        for (id, (name, value)) in ids.into_iter().zip(params) {
            if store.name(id) != name {
                return Err(format!(
                    "parameter named '{name}' in checkpoint where model expects '{}'",
                    store.name(id)
                ));
            }
            if store.value(id).dims() != value.dims() {
                return Err(format!(
                    "parameter '{name}' has shape {:?} in checkpoint, model expects {:?}",
                    value.dims(),
                    store.value(id).dims()
                ));
            }
            store.set_value(id, value);
        }
        Ok((model, store))
    }

    /// [`Cae::new`] with an explicit weight [`Initializer`].
    pub fn with_init(cfg: CaeConfig, store: &mut ParamStore, init: &mut impl Initializer) -> Self {
        let d = cfg.embed_dim;
        let obs_embed =
            Linear::with_init(store, "embed.obs", cfg.dim, d, cfg.embed_activation, init);
        let pos_embed = Linear::with_init(store, "embed.pos", 1, d, cfg.embed_activation, init);

        let mut enc_glu = Vec::with_capacity(cfg.layers);
        let mut enc_conv = Vec::with_capacity(cfg.layers);
        let mut dec_glu = Vec::with_capacity(cfg.layers);
        let mut dec_conv = Vec::with_capacity(cfg.layers);
        let mut attn_summary = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            enc_glu.push(GluConv1d::with_init(
                store,
                &format!("enc.{l}.glu"),
                d,
                cfg.kernel_size,
                Padding::Same,
                init,
            ));
            enc_conv.push(Conv1dLayer::with_init(
                store,
                &format!("enc.{l}.conv"),
                d,
                d,
                cfg.kernel_size,
                Padding::Same,
                Activation::Identity, // activation applied after in-layer sum
                init,
            ));
            dec_glu.push(GluConv1d::with_init(
                store,
                &format!("dec.{l}.glu"),
                d,
                cfg.kernel_size,
                Padding::Causal,
                init,
            ));
            dec_conv.push(Conv1dLayer::with_init(
                store,
                &format!("dec.{l}.conv"),
                d,
                d,
                cfg.kernel_size,
                Padding::Causal,
                Activation::Identity, // encoder state is added pre-activation
                init,
            ));
            attn_summary.push(Linear::with_init(
                store,
                &format!("attn.{l}.summary"),
                d,
                d,
                Activation::Identity,
                init,
            ));
        }

        let recon_glu = GluConv1d::with_init(
            store,
            "recon.glu",
            d,
            cfg.kernel_size,
            Padding::Causal,
            init,
        );
        let recon_conv = Conv1dLayer::with_init(
            store,
            "recon.conv",
            d,
            cfg.recon_dim(),
            1, // pointwise head: no further temporal mixing
            Padding::Causal,
            cfg.recon_activation,
            init,
        );

        Cae {
            cfg,
            obs_embed,
            pos_embed,
            enc_glu,
            enc_conv,
            dec_glu,
            dec_conv,
            attn_summary,
            recon_glu,
            recon_conv,
        }
    }

    /// The model's architecture configuration.
    pub fn config(&self) -> &CaeConfig {
        &self.cfg
    }

    /// The normalized position column `(w, 1)` fed to the position
    /// embedding: `t / w` for `t = 0…w−1`.
    fn position_input(&self) -> Tensor {
        let w = self.cfg.window;
        Tensor::from_iter_pooled(&[w, 1], (0..w).map(|t| t as f32 / w as f32))
    }

    /// The embedding sub-network alone: `X = V + P` for a `(B, w, D)`
    /// batch, producing `(B, w, D′)`. Used by [`Cae::forward`] and to
    /// compute clean-input targets for denoising training.
    pub fn embed(&self, tape: &mut Tape, store: &ParamStore, batch: &Tensor) -> Var {
        let input = tape.constant(batch.clone());
        let v = self.obs_embed.forward(tape, store, input);
        let pos_in = tape.constant(self.position_input());
        let p = self.pos_embed.forward(tape, store, pos_in); // (w, D′)
        tape.add_broadcast0(v, p)
    }

    /// Panics unless `batch` is a `(B, w, D)` batch of this model's
    /// windows.
    fn check_batch(&self, batch: &Tensor) {
        assert_eq!(batch.rank(), 3, "CAE input must be (B, w, D)");
        assert_eq!(
            batch.dims()[1],
            self.cfg.window,
            "window length {} != configured {}",
            batch.dims()[1],
            self.cfg.window
        );
        assert_eq!(
            batch.dims()[2],
            self.cfg.dim,
            "observation dim {} != configured {}",
            batch.dims()[2],
            self.cfg.dim
        );
    }

    /// Runs the autoencoder on a batch of windows `(B, w, D)`, recording
    /// every op on `tape` (the training forward).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, batch: &Tensor) -> CaeOutput {
        self.check_batch(batch);

        // --- Embedding: X = V + P (B, w, D′) -------------------------------
        let x = self.embed(tape, store, batch);

        // --- Encoder over (B, D′, w) ---------------------------------------
        let mut e = tape.transpose12(x);
        // Per-layer encoder outputs, kept in both layouts: channel-major for
        // the decoder injection (Eq. 6) and time-major for attention (Eq. 7).
        let mut enc_states = Vec::with_capacity(self.cfg.layers);
        let mut enc_states_tm = Vec::with_capacity(self.cfg.layers);
        for l in 0..self.cfg.layers {
            let glu = self.enc_glu[l].forward(tape, store, e);
            let conv = self.enc_conv[l].forward(tape, store, glu);
            let act = self.cfg.conv_activation.apply(tape, conv);
            e = tape.add(act, e); // skip connection
            enc_states.push(e);
            if self.cfg.attention {
                enc_states_tm.push(tape.transpose12(e));
            }
        }

        // --- Decoder input: right-shifted embedding (Figure 3) -------------
        let shifted = tape.shift_right_time(x);
        let mut dec = tape.transpose12(shifted);

        // --- Decoder layers (Eq. 6) + attention (Eq. 7) ---------------------
        for l in 0..self.cfg.layers {
            let glu = self.dec_glu[l].forward(tape, store, dec);
            let conv = self.dec_conv[l].forward(tape, store, glu);
            let injected = tape.add(conv, enc_states[l]);
            let act = self.cfg.conv_activation.apply(tape, injected);
            dec = tape.add(act, dec); // skip connection

            if self.cfg.attention {
                // z_t = W_z d_t + b_z, α = softmax(z·e), c = Σ α e, D += C.
                let d_tm = tape.transpose12(dec);
                let z = self.attn_summary[l].forward(tape, store, d_tm);
                let scores = tape.bmm_nt(z, enc_states_tm[l]);
                let alpha = tape.softmax_last(scores);
                let context = tape.bmm(alpha, enc_states_tm[l]);
                let updated = tape.add(context, d_tm);
                dec = tape.transpose12(updated);
            }
        }

        // --- Reconstruction (Sec. 3.1.5) ------------------------------------
        let glu = self.recon_glu.forward(tape, store, dec);
        let recon_cm = self.recon_conv.forward(tape, store, glu);
        let recon = tape.transpose12(recon_cm);

        CaeOutput { embedded: x, recon }
    }

    /// The constant target the reconstruction is trained against, for a
    /// forward pass already on the tape.
    pub fn target_tensor(&self, tape: &Tape, out: &CaeOutput, batch: &Tensor) -> Tensor {
        match self.cfg.target {
            // Stop-gradient on the target side (see
            // `ReconstructionTarget::Embedded`).
            ReconstructionTarget::Embedded => tape.value(out.embedded).clone(),
            ReconstructionTarget::Raw => batch.clone(),
        }
    }

    /// The denoising target: the embedding of the **clean** batch when the
    /// network was fed a corrupted batch (stop-gradient), or the clean
    /// batch itself in raw mode.
    pub fn clean_target_tensor(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        clean_batch: &Tensor,
    ) -> Tensor {
        match self.cfg.target {
            ReconstructionTarget::Embedded => {
                let x = self.embed(tape, store, clean_batch);
                tape.value(x).clone()
            }
            ReconstructionTarget::Raw => clean_batch.clone(),
        }
    }

    /// Runs the autoencoder on a batch of windows `(B, w, D)` without a
    /// tape — the scoring forward (see the module docs) — computing the
    /// reconstruction at `positions` of every window. The embedding and
    /// reconstruction it returns are bit-identical to [`Cae::forward`]'s
    /// on the same batch, on either dispatch path.
    pub fn infer(&self, store: &ParamStore, batch: &Tensor, positions: Positions) -> Inference {
        self.check_batch(batch);
        let cfg = &self.cfg;
        let (w, c, k, layers) = (cfg.window, cfg.embed_dim, cfg.kernel_size, cfg.layers);
        let full = Fold::full(batch.dims()[0], w);
        let x = self.embed_folded(store, batch);

        // --- Encoder (Eq. 3–5): E^{l+1} = f_E(W_E ⊗ GLU(E^l) + b_E) + E^l,
        // at every position: attention reads all encoder states. All L
        // states in one buffer; the decoder and attention read them.
        let n = c * full.cols();
        let mut states = scratch::take_full(layers * n);
        for l in 0..layers {
            let (done, rest) = states.split_at_mut(l * n);
            let input = if l == 0 { &x[..] } else { &done[(l - 1) * n..] };
            let e = &mut rest[..n];
            let glu = glu_into(&self.enc_glu[l], store, input, full, 0);
            conv_into(&self.enc_conv[l], store, &glu, full, 0, e);
            scratch::recycle(glu);
            cfg.conv_activation.apply_in_place(e);
            add_assign(e, input);
        }

        // --- Receptive-field schedule. The head computes positions from
        // `head` on; each causal conv below it needs k − 1 more on the
        // left, skip, injection and attention none. `reach(h)` is the
        // first position needed h convs below the head: the recon GLU's
        // output is reach(0), D^L reach(1), and decoder layer l's output
        // D^{l+1}, GLU output and input D^l are reach(2(L−l)−1),
        // reach(2(L−l)) and reach(2(L−l)+1).
        let head = match positions {
            Positions::All => 0,
            Positions::Last => w - 1,
        };
        let reach = |hops: usize| full.from(head.saturating_sub(hops * (k - 1)));

        // --- Decoder input: the embedding shifted one step right.
        let mut fold = reach(2 * layers + 1);
        let mut dec = scratch::take_full(c * fold.cols());
        for (d, xw) in dec.chunks_exact_mut(fold.width()).zip(x.chunks_exact(w)) {
            for (t, v) in (fold.start..w).zip(d) {
                *v = if t == 0 { 0.0 } else { xw[t - 1] };
            }
        }

        // --- Decoder (Eq. 6) + attention (Eq. 7).
        for l in 0..layers {
            let enc = &states[l * n..(l + 1) * n];
            // The GLU's outputs start at `mid`, the conv's at `out`.
            let (mid, out) = (reach(2 * (layers - l)), reach(2 * (layers - l) - 1));
            let glu = glu_into(&self.dec_glu[l], store, &dec, fold, mid.start);
            let mut next = scratch::take_full(c * out.cols());
            conv_into(&self.dec_conv[l], store, &glu, mid, out.start, &mut next);
            scratch::recycle(glu);
            add_folded(&mut next, out, enc, full);
            cfg.conv_activation.apply_in_place(&mut next);
            add_folded(&mut next, out, &dec, fold);
            scratch::recycle(std::mem::replace(&mut dec, next));
            fold = out;

            if cfg.attention {
                // z = W_z d + b_z (a 1×1 channel map), α = softmax(zᵀE),
                // D += E αᵀ — per decoder position, against all w keys.
                let (wz, bz) = self.attn_summary[l].params(store);
                let mut z = scratch::take_full(dec.len());
                infer::channel_linear_into(&dec, fold, wz, &mut z);
                add_channel_bias(&mut z, bz.data(), fold.cols());
                let mut alpha = scratch::take_full(fold.cols() * w);
                infer::attention_scores_into(&z, enc, fold, c, &mut alpha);
                for row in alpha.chunks_exact_mut(w) {
                    simd::softmax_row(row);
                }
                // `z` is spent; its buffer takes the context.
                infer::attention_context_into(enc, &alpha, fold, c, &mut z);
                add_assign(&mut dec, &z);
                scratch::recycle(z);
                scratch::recycle(alpha);
            }
        }

        // --- Reconstruction (Sec. 3.1.5), at positions `head ..` only.
        let out = reach(0);
        let glu = glu_into(&self.recon_glu, store, &dec, fold, out.start);
        let mut recon = scratch::take_full(cfg.recon_dim() * out.cols());
        conv_into(&self.recon_conv, store, &glu, out, out.start, &mut recon);
        cfg.recon_activation.apply_in_place(&mut recon);
        for buf in [glu, states, dec] {
            scratch::recycle(buf);
        }
        Inference {
            embedded: x,
            recon,
            fold: out,
            recon_dim: cfg.recon_dim(),
            target: cfg.target,
        }
    }

    /// The embedding `X = V + P` of a `(B, w, D)` batch, batch-folded
    /// `(D′, B·w)` in a scratch buffer. The observation map runs as a
    /// 1×1 channel map of the transposed batch — the one transpose of
    /// [`Cae::infer`] — and the position map time-major, as in
    /// [`Cae::embed`].
    fn embed_folded(&self, store: &ParamStore, batch: &Tensor) -> Vec<f32> {
        let (w, d, c) = (self.cfg.window, self.cfg.dim, self.cfg.embed_dim);
        let full = Fold::full(batch.dims()[0], w);
        let cols = full.cols();
        let mut raw = scratch::take_full(d * cols);
        for (tile, obs) in batch.data().chunks(TILE * d).enumerate() {
            for (ch, row) in raw.chunks_exact_mut(cols).enumerate() {
                for (r, o) in row[tile * TILE..].iter_mut().zip(obs.chunks_exact(d)) {
                    *r = o[ch];
                }
            }
        }
        let (weight, bias) = self.obs_embed.params(store);
        let mut x = scratch::take_full(c * cols);
        infer::channel_linear_into(&raw, full, weight, &mut x);
        scratch::recycle(raw);
        add_channel_bias(&mut x, bias.data(), cols);
        self.cfg.embed_activation.apply_in_place(&mut x);

        let pos = self.position_input();
        let p = self.affine_time_major(&self.pos_embed, store, pos.data(), w, 1);
        pos.recycle();
        for (ch, row) in x.chunks_exact_mut(cols).enumerate() {
            for xw in row.chunks_exact_mut(w) {
                for (t, v) in xw.iter_mut().enumerate() {
                    *v += p[t * c + ch];
                }
            }
        }
        scratch::recycle(p);
        x
    }

    /// `f(rows · W + b)` for `rows` inputs of width `width` through an
    /// embedding layer — [`Linear::forward`] into a scratch buffer.
    fn affine_time_major(
        &self,
        layer: &Linear,
        store: &ParamStore,
        input: &[f32],
        rows: usize,
        width: usize,
    ) -> Vec<f32> {
        let (weight, bias) = layer.params(store);
        let c = self.cfg.embed_dim;
        let mut out = scratch::take_full(rows * c);
        infer::matmul_into(input, weight.data(), &mut out, rows, width, c);
        for row in out.chunks_exact_mut(c) {
            add_assign(row, bias.data());
        }
        self.cfg.embed_activation.apply_in_place(&mut out);
        out
    }
}

/// Columns per tile of the transposing loops over folded buffers, whose
/// channel rows may lie a power of two apart: a tile's lines stay cached
/// while each row is visited.
const TILE: usize = 16;

/// Which positions of every window [`Cae::infer`] reconstructs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Positions {
    /// Every position `0 .. w` — reconstruction and all-position errors.
    All,
    /// The last position only: what the serving paths score (Figure 10).
    /// The decoder and head compute just its receptive field.
    Last,
}

/// `GLU(x) = (W₁ ⊗ x + b₁) ⊙ σ(W₂ ⊗ x + b₂)` of a batch-folded input,
/// at positions `out_start ..`, into a new scratch buffer. Both
/// convolutions run as one stacked GEMM: the value rows, then the gate
/// rows.
fn glu_into(
    glu: &GluConv1d,
    store: &ParamStore,
    x: &[f32],
    input: Fold,
    out_start: usize,
) -> Vec<f32> {
    let (wv, bv) = glu.value_conv().params(store);
    let (wg, bg) = glu.gate_conv().params(store);
    let cols = input.from(out_start).cols();
    let mut pair = scratch::take_full(2 * bv.len() * cols);
    let padding = glu.value_conv().padding();
    infer::conv1d_folded_into(x, input, &[wv, wg], padding, out_start, &mut pair);
    let (value, gate) = pair.split_at_mut(bv.len() * cols);
    add_channel_bias(gate, bg.data(), cols);
    simd::sigmoid_in_place(gate);
    let mut out = scratch::take_full(value.len());
    for (((o, v), g), &bias) in out
        .chunks_exact_mut(cols)
        .zip(value.chunks_exact(cols))
        .zip(gate.chunks_exact(cols))
        .zip(bv.data())
    {
        for ((o, &v), &g) in o.iter_mut().zip(v).zip(g) {
            *o = (v + bias) * g;
        }
    }
    scratch::recycle(pair);
    out
}

/// `out = W ⊗ x + b` at positions `out_start ..` for a plain convolution
/// layer (its activation is applied by the caller, after any
/// pre-activation injection).
fn conv_into(
    layer: &Conv1dLayer,
    store: &ParamStore,
    x: &[f32],
    input: Fold,
    out_start: usize,
    out: &mut [f32],
) {
    let (kernel, bias) = layer.params(store);
    infer::conv1d_folded_into(x, input, &[kernel], layer.padding(), out_start, out);
    add_channel_bias(out, bias.data(), input.from(out_start).cols());
}

/// Adds `bias[c]` to every length-`cols` channel row of a folded buffer.
fn add_channel_bias(x: &mut [f32], bias: &[f32], cols: usize) {
    for (row, &bv) in x.chunks_exact_mut(cols).zip(bias) {
        for v in row {
            *v += bv;
        }
    }
}

/// `acc += src` at the positions of `at`, for folded buffers with the
/// same channels whose `src` fold holds those positions (`from.start ≤
/// at.start`).
fn add_folded(acc: &mut [f32], at: Fold, src: &[f32], from: Fold) {
    let (t, skip) = (at.width(), at.start - from.start);
    for (a, s) in acc.chunks_exact_mut(t).zip(src.chunks_exact(from.width())) {
        add_assign(a, &s[skip..]);
    }
}

/// `acc[i] += x[i]`.
fn add_assign(acc: &mut [f32], x: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// The result of one tape-free forward ([`Cae::infer`]): the embedded
/// input and the reconstruction at the positions computed, batch-folded,
/// in scratch-pool buffers that return to the pool when the value is
/// dropped.
pub struct Inference {
    /// Embedded input `X`, `(D′, B·w)`.
    embedded: Vec<f32>,
    /// Reconstruction `X̂` at the positions of `fold`, `(R, B·T)`.
    recon: Vec<f32>,
    fold: Fold,
    recon_dim: usize,
    target: ReconstructionTarget,
}

impl Inference {
    /// Appends the reconstruction time-major, `(B, w, R)` row-major —
    /// the layout of the tape forward's `CaeOutput::recon`. Needs a
    /// [`Positions::All`] forward.
    pub fn recon_into(&self, out: &mut Vec<f32>) {
        assert_eq!(
            self.fold.start, 0,
            "recon_into needs a Positions::All forward"
        );
        let (n, r) = (self.fold.cols(), self.recon_dim);
        let at = out.len();
        out.resize(at + self.recon.len(), 0.0);
        // Transposed TILE columns at a time (see `TILE`).
        for (tile, dst) in out[at..].chunks_mut(TILE * r).enumerate() {
            for (ch, row) in self.recon.chunks_exact(n).enumerate() {
                for (d, &v) in dst.chunks_exact_mut(r).zip(&row[tile * TILE..]) {
                    d[ch] = v;
                }
            }
        }
    }

    /// Appends the squared reconstruction error `‖x_t − x̂_t‖²` (Eq. 14)
    /// of every position the forward computed, row-major per window: `w`
    /// per window for [`Positions::All`], one for [`Positions::Last`].
    /// `batch` is the input of the pass (the target of
    /// [`ReconstructionTarget::Raw`]).
    ///
    /// Each error is the sum of squares of a contiguous difference row,
    /// as `recon.sub(target)` followed by [`Tensor::row_sq_norms`]
    /// computes it on the tape's outputs.
    pub fn errors_into(&self, batch: &Tensor, out: &mut Vec<f32>) {
        let at = out.len();
        out.resize(at + self.fold.cols(), 0.0);
        self.write_errors(batch, &mut out[at..]);
    }

    /// [`Inference::errors_into`] into a slice that holds exactly one
    /// error per computed position.
    pub(crate) fn write_errors(&self, batch: &Tensor, out: &mut [f32]) {
        let (fold, r) = (self.fold, self.recon_dim);
        assert_eq!(
            batch.dims()[..2],
            [fold.batches, fold.window],
            "errors need the forward's batch"
        );
        let (n, t, full) = (fold.cols(), fold.width(), fold.batches * fold.window);
        assert_eq!(out.len(), n, "one error per computed position");
        // Difference rows of TILE columns at a time, gathered channel by
        // channel so every channel row is read in order.
        let mut diff = scratch::take_full(TILE * r);
        for col0 in (0..n).step_by(TILE) {
            let cols = col0..(col0 + TILE).min(n);
            for ch in 0..r {
                for (i, col) in cols.clone().enumerate() {
                    // Position `fold.start + col % t` of window `col / t`.
                    let at = col / t * fold.window + fold.start + col % t;
                    let target = match self.target {
                        ReconstructionTarget::Embedded => self.embedded[ch * full + at],
                        ReconstructionTarget::Raw => batch.data()[at * r + ch],
                    };
                    diff[i * r + ch] = self.recon[ch * n + col] - target;
                }
            }
            for (e, row) in out[cols].iter_mut().zip(diff.chunks_exact(r)) {
                *e = simd::sq_sum(row);
            }
        }
        scratch::recycle(diff);
    }
}

impl std::fmt::Debug for Inference {
    /// Shape only — the buffers hold a whole batch of activations.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inference")
            .field("fold", &self.fold)
            .field("recon_dim", &self.recon_dim)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl Drop for Inference {
    fn drop(&mut self) {
        scratch::recycle(std::mem::take(&mut self.embedded));
        scratch::recycle(std::mem::take(&mut self.recon));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_nn::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> CaeConfig {
        CaeConfig::new(2)
            .embed_dim(8)
            .window(8)
            .layers(2)
            .kernel_size(3)
    }

    fn build(cfg: CaeConfig, seed: u64) -> (Cae, ParamStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let model = Cae::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    #[test]
    fn forward_shapes_embedded_target() {
        let (model, store) = build(small_cfg(), 1);
        let mut tape = Tape::new();
        let batch = Tensor::zeros(&[3, 8, 2]);
        let out = model.forward(&mut tape, &store, &batch);
        assert_eq!(tape.value(out.embedded).dims(), &[3, 8, 8]);
        assert_eq!(tape.value(out.recon).dims(), &[3, 8, 8]);
    }

    #[test]
    fn forward_shapes_raw_target() {
        let (model, store) = build(small_cfg().target(ReconstructionTarget::Raw), 2);
        let mut tape = Tape::new();
        let batch = Tensor::zeros(&[2, 8, 2]);
        let out = model.forward(&mut tape, &store, &batch);
        assert_eq!(tape.value(out.recon).dims(), &[2, 8, 2]);
        let target = model.target_tensor(&tape, &out, &batch);
        assert_eq!(target.dims(), &[2, 8, 2]);
    }

    /// All-position errors of the tape-free forward.
    fn errors(model: &Cae, store: &ParamStore, batch: &Tensor) -> Vec<f32> {
        let mut out = Vec::new();
        model
            .infer(store, batch, Positions::All)
            .errors_into(batch, &mut out);
        out
    }

    #[test]
    fn forward_is_deterministic() {
        let (model, store) = build(small_cfg(), 3);
        let mut rng = StdRng::seed_from_u64(9);
        let batch = Tensor::rand_uniform(&[2, 8, 2], -1.0, 1.0, &mut rng);
        let e1 = errors(&model, &store, &batch);
        let e2 = errors(&model, &store, &batch);
        assert_eq!(e1, e2);
    }

    #[test]
    fn window_errors_shape() {
        let (model, store) = build(small_cfg(), 4);
        let batch = Tensor::zeros(&[5, 8, 2]);
        let errors = errors(&model, &store, &batch);
        assert_eq!(errors.len(), 5 * 8);
        assert!(errors.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn attention_off_changes_output() {
        let with = build(small_cfg(), 5);
        let without = build(small_cfg().attention(false), 5);
        let mut rng = StdRng::seed_from_u64(10);
        let batch = Tensor::rand_uniform(&[1, 8, 2], -1.0, 1.0, &mut rng);
        // Same seed ⇒ attention-off model has a param-store prefix in
        // common, but the forward graph differs; outputs must differ.
        let e_with = errors(&with.0, &with.1, &batch);
        let e_without = errors(&without.0, &without.1, &batch);
        assert_ne!(e_with, e_without);
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let (model, mut store) = build(small_cfg(), 6);
        let mut rng = StdRng::seed_from_u64(11);
        // Smooth, learnable signal: sinusoids across the window.
        let data: Vec<f32> = (0..4 * 8 * 2)
            .map(|i| ((i / 2) as f32 * 0.7).sin())
            .collect();
        let batch = Tensor::from_vec(data, &[4, 8, 2]);
        let _ = &mut rng;
        let mut opt = Adam::new(&store, 5e-3);

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &store, &batch);
            let target = model.target_tensor(&tape, &out, &batch);
            let loss = tape.mse_loss(out.recon, &target);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.5,
            "training did not reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn from_params_rebuilds_bit_exactly() {
        let (model, store) = build(small_cfg(), 21);
        let exported: Vec<(String, Tensor)> = store
            .iter()
            .map(|(name, value)| (name.to_string(), value.clone()))
            .collect();
        let (rebuilt, rebuilt_store) =
            Cae::from_params(small_cfg(), exported).expect("round trip must succeed");
        let mut rng = StdRng::seed_from_u64(22);
        let batch = Tensor::rand_uniform(&[3, 8, 2], -1.0, 1.0, &mut rng);
        assert_eq!(
            errors(&model, &store, &batch),
            errors(&rebuilt, &rebuilt_store, &batch)
        );
    }

    #[test]
    fn from_params_rejects_wrong_layout() {
        let (_, store) = build(small_cfg(), 23);
        let mut exported: Vec<(String, Tensor)> = store
            .iter()
            .map(|(name, value)| (name.to_string(), value.clone()))
            .collect();

        let err = Cae::from_params(small_cfg(), exported[..1].to_vec()).unwrap_err();
        assert!(err.contains("parameter tensors"), "{err}");

        exported[0].0 = "not.a.param".into();
        let err = Cae::from_params(small_cfg(), exported.clone()).unwrap_err();
        assert!(err.contains("expects 'embed.obs.weight'"), "{err}");

        exported[0].0 = "embed.obs.weight".into();
        exported[0].1 = Tensor::zeros(&[1, 1]);
        let err = Cae::from_params(small_cfg(), exported).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn rejects_wrong_window() {
        let (model, store) = build(small_cfg(), 7);
        let mut tape = Tape::new();
        model.forward(&mut tape, &store, &Tensor::zeros(&[1, 4, 2]));
    }
}
