//! Whole-model fingerprints: FNV-1a hashes of what fitting an ensemble
//! produces, pinned across thread counts and, on the scalar path, as
//! constants.
//!
//! Each config is fitted, scored and warm re-fitted at pools 1 and 2 on
//! the default dispatch path and again with the scalar path forced. The
//! hashes must agree across pool widths within each path. On the scalar
//! path they must also equal the constants below on x86_64 Linux
//! (elsewhere `exp` and `tanh` come from another libm). A change that
//! alters training or scoring bits on purpose updates the constants in
//! its diff.
//!
//! All tests share one mutex: the thread count and the dispatch override
//! are process-global state.

use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig, ReconstructionTarget};
use cae_data::{Detector, TimeSeries};
use cae_tensor::{par, simd};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores one pool thread and the default dispatch, panics included.
struct Reset;

impl Drop for Reset {
    fn drop(&mut self) {
        simd::set_force_scalar(false);
        par::set_threads(1);
    }
}

/// FNV-1a over a stream of 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(mut self, values: impl IntoIterator<Item = f32>) -> u64 {
        for v in values {
            self.word(v.to_bits());
        }
        self.0
    }

    fn trace(mut self, trace: &[(usize, usize, f32, f32)]) -> u64 {
        for &(member, epoch, j, k) in trace {
            self.word(member as u32);
            self.word(epoch as u32);
            self.word(j.to_bits());
            self.word(k.to_bits());
        }
        self.0
    }
}

/// Hashes of one fit: its loss trace, `member_scores`, `score`, and the
/// loss trace and `score` of a warm re-fit.
type Prints = [u64; 5];

/// A `dim`-variate seasonal series with a level shift and two spikes.
fn series(len: usize, dim: usize, phase: f32) -> TimeSeries {
    let mut s = TimeSeries::empty(dim);
    let mut obs = vec![0.0f32; dim];
    for t in 0..len {
        for (d, o) in obs.iter_mut().enumerate() {
            let x = t as f32 * 0.21 + phase + d as f32 * 0.7;
            *o = x.sin() + 0.4 * (2.3 * x).cos() + if t > len * 2 / 3 { 0.3 } else { 0.0 };
            if t == len / 2 + d || t == len / 4 {
                *o += 4.0;
            }
        }
        s.push(&obs);
    }
    s
}

fn prints(model: &CaeConfig, cfg: &EnsembleConfig, train_len: usize) -> Prints {
    let train = series(train_len, model.dim, 0.0);
    let test = series(160, model.dim, 1.3);
    let mut ens = CaeEnsemble::new(model.clone(), cfg.clone());
    ens.fit(&train);
    let members = ens.member_scores(&test);
    let refit = ens.refit_warm(&test.slice(40, 160), 2, 99);
    [
        Fnv::new().trace(ens.loss_trace()),
        Fnv::new().floats(members.into_iter().flatten()),
        Fnv::new().floats(ens.score(&test)),
        Fnv::new().trace(refit.loss_trace()),
        Fnv::new().floats(refit.score(&test)),
    ]
}

/// Asserts that the prints agree at pools 1 and 2 on each dispatch path,
/// and that the scalar path's equal `scalar` where the constants hold.
fn check(name: &str, model: CaeConfig, cfg: EnsembleConfig, train_len: usize, scalar: Prints) {
    let _gate = lock();
    let _reset = Reset;
    for force_scalar in [false, true] {
        simd::set_force_scalar(force_scalar);
        let path = if force_scalar { "scalar" } else { "dispatched" };
        let at = |threads| {
            par::set_threads(threads);
            prints(&model, &cfg, train_len)
        };
        let one = at(1);
        let two = at(2);
        assert_eq!(
            one, two,
            "{name} [{path}]: prints differ between pools 1 and 2"
        );
        if force_scalar && cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            assert_eq!(
                one, scalar,
                "{name} [scalar]: prints differ from the pinned constants"
            );
        }
    }
}

/// The benchmark's `offline` model shape with 5 members and a 32-window
/// batch: 65 training windows give batches of 32, 32 and one window.
#[test]
fn offline_shape() {
    check(
        "offline shape",
        CaeConfig::new(3)
            .embed_dim(24)
            .window(16)
            .layers(2)
            .kernel_size(3)
            .attention(true),
        EnsembleConfig::new()
            .num_models(5)
            .epochs_per_model(2)
            .train_stride(6)
            .batch_size(32)
            .seed(11),
        400,
        [
            0x12263979d82ba7d4,
            0xeb6f722fe0cb7a06,
            0xf9f9b1c9b3c4284b,
            0xacdcffbd7a32711b,
            0x0375334e1548b46c,
        ],
    );
}

/// Attention off, 4 members (an even count, so Eq. 15 averages the two
/// middle scores), 73 windows in batches of 16.
#[test]
fn attention_off() {
    check(
        "attention off",
        CaeConfig::new(2)
            .embed_dim(12)
            .window(12)
            .layers(2)
            .attention(false),
        EnsembleConfig::new()
            .num_models(4)
            .epochs_per_model(2)
            .train_stride(4)
            .batch_size(16)
            .seed(5),
        300,
        [
            0x186c2ccf1be0a936,
            0x2142b85df34bcce4,
            0x4a586dda0f1fac61,
            0x01c476af0d0323ae,
            0x1cd871306692c301,
        ],
    );
}

/// The raw reconstruction target with a 37-window batch: shards of 18 and
/// 19 windows, then a trailing batch of 6 from the 80 training windows.
#[test]
fn raw_target_odd_batch() {
    check(
        "raw target, batch 37",
        CaeConfig::new(2)
            .embed_dim(8)
            .window(8)
            .layers(1)
            .target(ReconstructionTarget::Raw),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(3)
            .train_stride(3)
            .batch_size(37)
            .seed(9),
        245,
        [
            0x39e379ae4d60fb3d,
            0x28586eb3875d7983,
            0x38bd8b5cbe71eb22,
            0xce17e3d1887d05ef,
            0x5a9b984593019209,
        ],
    );
}
