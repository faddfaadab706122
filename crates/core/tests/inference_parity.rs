//! The tape-free scoring forward (`Cae::infer`) against the training
//! forward on the autograd tape (`Cae::forward`), compared with `to_bits`
//! equality over seeded random configurations — for all positions and
//! for the last position alone, whose forward computes only its
//! receptive field — and the batch-row independence of a window's
//! errors. Every check runs on the active dispatch path and again with
//! the scalar path forced.

use cae_autograd::{ParamStore, Tape};
use cae_core::{Cae, CaeConfig, Positions, ReconstructionTarget};
use cae_nn::Activation;
use cae_tensor::{scratch, simd, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// Serializes the tests of this binary: the scalar override is
/// process-global.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Releases the scalar override even when a check panics.
struct ScalarOverride;

impl Drop for ScalarOverride {
    fn drop(&mut self) {
        simd::set_force_scalar(false);
    }
}

/// Runs `check` on the active dispatch path, then with scalar forced.
fn on_both_paths(check: impl Fn()) {
    let _gate = DISPATCH.lock().unwrap_or_else(PoisonError::into_inner);
    check();
    let _scalar = ScalarOverride;
    simd::set_force_scalar(true);
    check();
}

/// A model with Xavier weights and random (non-zero) biases, so every
/// bias add is exercised.
fn model(cfg: CaeConfig, seed: u64) -> (Cae, ParamStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let model = Cae::new(cfg, &mut store, &mut rng);
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        let dims = store.value(id).dims().to_vec();
        if dims.len() == 1 {
            store.set_value(id, Tensor::rand_uniform(&dims, -0.5, 0.5, &mut rng));
        }
    }
    (model, store)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Reconstruction `(B, w, R)` and all-position errors `(B, w)` of the
/// tape forward.
fn tape_outputs(model: &Cae, store: &ParamStore, batch: &Tensor) -> (Vec<u32>, Vec<u32>) {
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, store, batch);
    let target = model.target_tensor(&tape, &out, batch);
    let errors = tape.value(out.recon).sub(&target).row_sq_norms();
    (bits(tape.value(out.recon).data()), bits(&errors))
}

/// Leaves this thread's scratch pool holding only NaN-filled buffers, all
/// at least as large as any buffer a forward of `model` on `b` windows
/// takes, so that every scratch take of that forward that is not served
/// by one of its own recycled buffers gets NaNs, whatever sizes the
/// forward asks for. A read of a column the forward never computed, or
/// of a padding zero it never wrote, then turns the output NaN instead
/// of silently reusing a stale value.
fn poison_scratch(model: &Cae, b: usize) {
    while scratch::pooled_buffers() > 0 {
        drop(scratch::take(0));
    }
    let cfg = model.config();
    // Every activation, score matrix and packed operand over the `B·w`
    // columns has at most `rows` rows (its columns rounded up to whole
    // 16-column panels); a packed convolution panel is `C·k` rows of 16.
    let rows = [
        cfg.layers * cfg.embed_dim,
        2 * cfg.embed_dim,
        cfg.dim,
        cfg.recon_dim(),
        cfg.window,
    ];
    let cols = (b * cfg.window).next_multiple_of(16);
    let len =
        (rows.into_iter().max().unwrap_or(0) * cols).max(cfg.embed_dim * cfg.kernel_size * 16);
    let count = 64.min(scratch::MAX_POOLED_BYTES / (len * size_of::<f32>()));
    assert!(count >= 16, "NaN pool too small: {count} buffers of {len}");
    for _ in 0..count {
        scratch::recycle(vec![f32::NAN; len]);
    }
}

/// The same outputs from the tape-free forward, each pass run on a
/// NaN-poisoned scratch pool: the reconstruction and errors of a
/// [`Positions::All`] forward, and the errors of a [`Positions::Last`]
/// forward, one per window.
fn infer_outputs(
    model: &Cae,
    store: &ParamStore,
    batch: &Tensor,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let b = batch.dims()[0];
    let (mut recon, mut errors, mut last) = (Vec::new(), Vec::new(), Vec::new());
    poison_scratch(model, b);
    let all = model.infer(store, batch, Positions::All);
    all.recon_into(&mut recon);
    all.errors_into(batch, &mut errors);
    drop(all);
    poison_scratch(model, b);
    model
        .infer(store, batch, Positions::Last)
        .errors_into(batch, &mut last);
    (bits(&recon), bits(&errors), bits(&last))
}

/// Checks the tape-free forward of `model` on `batch` against the tape,
/// bit for bit: reconstruction, all-position errors, and last-position
/// errors against the tape's errors at `w − 1`.
fn assert_matches_tape(model: &Cae, store: &ParamStore, batch: &Tensor, what: &str) {
    let (tape_recon, tape_errors) = tape_outputs(model, store, batch);
    let (recon, errors, last) = infer_outputs(model, store, batch);
    let w = model.config().window;
    let tape_last: Vec<u32> = tape_errors.chunks_exact(w).map(|row| row[w - 1]).collect();
    let path = simd::active_name();
    assert!(
        recon == tape_recon,
        "{what} ({path}): reconstruction differs"
    );
    assert!(errors == tape_errors, "{what} ({path}): errors differ");
    assert!(
        last == tape_last,
        "{what} ({path}): last-position errors differ"
    );
}

const LAYERS: [usize; 3] = [1, 2, 3];
const KERNELS: [usize; 4] = [1, 2, 3, 5];
const EMBED_DIMS: [usize; 3] = [5, 6, 24];
/// `w > 16` takes the multi-panel convolution path.
const WINDOWS: [usize; 5] = [4, 7, 16, 17, 33];
const BATCHES: [usize; 4] = [1, 3, 64, 65];
const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
];
const TARGETS: [ReconstructionTarget; 2] =
    [ReconstructionTarget::Embedded, ReconstructionTarget::Raw];

#[test]
fn infer_matches_tape_forward_bit_for_bit() {
    const CASES: u64 = 96;
    let mut rng = StdRng::seed_from_u64(0x1AFE);
    let configs: Vec<(CaeConfig, usize)> = (0..CASES)
        .map(|_| {
            let mut pick = |n: usize| rng.gen_range(0..n);
            let mut cfg = CaeConfig::new(1 + pick(3))
                .layers(LAYERS[pick(3)])
                .kernel_size(KERNELS[pick(4)])
                .embed_dim(EMBED_DIMS[pick(3)])
                .window(WINDOWS[pick(5)])
                .attention(pick(2) == 0)
                .target(TARGETS[pick(2)]);
            cfg.conv_activation = ACTIVATIONS[pick(4)];
            cfg.embed_activation = ACTIVATIONS[pick(4)];
            cfg.recon_activation = ACTIVATIONS[pick(4)];
            (cfg, BATCHES[pick(4)])
        })
        .collect();

    // The sample covers every listed value of every dimension.
    let seen = |f: &dyn Fn(&(CaeConfig, usize)) -> String| {
        configs.iter().map(f).collect::<BTreeSet<_>>().len()
    };
    assert_eq!(seen(&|(c, _)| c.layers.to_string()), LAYERS.len());
    assert_eq!(seen(&|(c, _)| c.kernel_size.to_string()), KERNELS.len());
    assert_eq!(seen(&|(c, _)| c.embed_dim.to_string()), EMBED_DIMS.len());
    assert_eq!(seen(&|(c, _)| c.window.to_string()), WINDOWS.len());
    assert_eq!(seen(&|(c, _)| c.attention.to_string()), 2);
    assert_eq!(seen(&|(c, _)| format!("{:?}", c.target)), TARGETS.len());
    assert_eq!(
        seen(&|(c, _)| format!("{:?}", c.conv_activation)),
        ACTIVATIONS.len()
    );
    assert_eq!(seen(&|(_, b)| b.to_string()), BATCHES.len());

    on_both_paths(|| {
        for (case, (cfg, b)) in configs.iter().enumerate() {
            let (model, store) = model(cfg.clone(), case as u64);
            let mut rng = StdRng::seed_from_u64(1000 + case as u64);
            let batch = Tensor::rand_uniform(&[*b, cfg.window, cfg.dim], -2.0, 2.0, &mut rng);
            assert_matches_tape(
                &model,
                &store,
                &batch,
                &format!("case {case}, B={b}, {cfg:?}"),
            );
        }
    });
}

#[test]
fn last_position_matches_tape_at_receptive_field_edges() {
    // (window, layers, kernel): every schedule start clamps to 0 when
    // w ≤ (2L+1)(k−1) (w=4, L=3, k=5 and the boundary w=10, L=2, k=3),
    // starts stay just inside it at w=11, and k=1 prunes the decoder to
    // the last position alone.
    let edges = [
        (4, 3, 5),
        (10, 2, 3),
        (11, 2, 3),
        (5, 1, 3),
        (4, 1, 1),
        (16, 2, 1),
        (33, 3, 1),
    ];
    on_both_paths(|| {
        for (i, &(window, layers, kernel)) in edges.iter().enumerate() {
            for (attention, target, b) in [
                (true, ReconstructionTarget::Embedded, 3),
                (false, ReconstructionTarget::Raw, 65),
            ] {
                let cfg = CaeConfig::new(2)
                    .embed_dim(6)
                    .window(window)
                    .layers(layers)
                    .kernel_size(kernel)
                    .attention(attention)
                    .target(target);
                let (model, store) = model(cfg.clone(), 50 + i as u64);
                let mut rng = StdRng::seed_from_u64(60 + i as u64);
                let batch = Tensor::rand_uniform(&[b, window, 2], -2.0, 2.0, &mut rng);
                assert_matches_tape(&model, &store, &batch, &format!("B={b}, {cfg:?}"));
            }
        }
    });
}

#[test]
fn window_errors_do_not_depend_on_batch_row() {
    // D′·w ∈ {35, 54, 384}: the first two leave a tail of an 8-lane
    // activation pass in the last window of the batch.
    for (embed_dim, window) in [(5, 7), (6, 9), (24, 16)] {
        let cfg = CaeConfig::new(2)
            .embed_dim(embed_dim)
            .window(window)
            .layers(2)
            .kernel_size(3);
        let (model, store) = model(cfg, 31);
        let b = 6;
        let mut rng = StdRng::seed_from_u64(32);
        let batch = Tensor::rand_uniform(&[b, window, 2], -2.0, 2.0, &mut rng);
        let order = [5, 2, 0, 4, 1, 3];
        let row = window * 2;
        let mut permuted = Tensor::zeros(&[b, window, 2]);
        for (dst, &src) in order.iter().enumerate() {
            permuted.data_mut()[dst * row..(dst + 1) * row]
                .copy_from_slice(&batch.data()[src * row..(src + 1) * row]);
        }
        on_both_paths(|| {
            let path = simd::active_name();
            let infer_errors = |batch: &Tensor| infer_outputs(&model, &store, batch).1;
            for (name, errors, moved) in [
                (
                    "tape",
                    tape_outputs(&model, &store, &batch).1,
                    tape_outputs(&model, &store, &permuted).1,
                ),
                ("infer", infer_errors(&batch), infer_errors(&permuted)),
            ] {
                for (dst, &src) in order.iter().enumerate() {
                    assert_eq!(
                        moved[dst * window..(dst + 1) * window],
                        errors[src * window..(src + 1) * window],
                        "{name} ({path}), D'={embed_dim} w={window}: window {src} scored \
                         differently as batch row {dst}"
                    );
                }
            }
        });
    }
}
