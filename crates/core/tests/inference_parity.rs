//! The tape-free scoring forward (`Cae::infer`) against the training
//! forward on the autograd tape (`Cae::forward`), compared with `to_bits`
//! equality over seeded random configurations, and the batch-row
//! independence of a window's errors. Every check runs on the active
//! dispatch path and again with the scalar path forced.

use cae_autograd::{ParamStore, Tape};
use cae_core::{Cae, CaeConfig, ReconstructionTarget};
use cae_nn::Activation;
use cae_tensor::{simd, Tensor};
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

/// The same outputs from the tape-free forward; also checks that the
/// last-position errors are the all-position errors at `w − 1`.
fn infer_outputs(model: &Cae, store: &ParamStore, batch: &Tensor) -> (Vec<u32>, Vec<u32>) {
    let inference = model.infer(store, batch);
    let (mut recon, mut errors, mut last) = (Vec::new(), Vec::new(), Vec::new());
    inference.recon_into(&mut recon);
    inference.errors_into(batch, &mut errors);
    inference.last_errors_into(batch, &mut last);
    let w = model.config().window;
    let tail: Vec<f32> = errors.chunks_exact(w).map(|row| row[w - 1]).collect();
    assert_eq!(bits(&last), bits(&tail), "last-position errors");
    (bits(&recon), bits(&errors))
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
            let (tape_recon, tape_errors) = tape_outputs(&model, &store, &batch);
            let (recon, errors) = infer_outputs(&model, &store, &batch);
            let path = simd::active_name();
            assert!(
                recon == tape_recon,
                "case {case} ({path}, B={b}): reconstruction differs for {cfg:?}"
            );
            assert!(
                errors == tape_errors,
                "case {case} ({path}, B={b}): errors differ for {cfg:?}"
            );
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
            for (name, (_, errors), (_, moved)) in [
                (
                    "tape",
                    tape_outputs(&model, &store, &batch),
                    tape_outputs(&model, &store, &permuted),
                ),
                (
                    "infer",
                    infer_outputs(&model, &store, &batch),
                    infer_outputs(&model, &store, &permuted),
                ),
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
