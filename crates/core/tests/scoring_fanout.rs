//! The scoring kernel at the benchmark's model shape (D′ = 24, w = 16,
//! L = 2, 5 members): one (member, chunk) fan-out of last-position
//! forwards serves the batch scorer and the fleet tick.
//!
//! `member_scores` must equal the protocol it replaced, which ran the
//! whole first 64-window chunk as an all-position forward and read window
//! 0's first `w − 1` errors off it, bit for bit: at this shape every
//! contraction of a one-window forward is packed like the 64-window one,
//! so the benchmark's scores cannot move. A fleet tick of `B` windows must
//! give the same bits at pools 1 and 2 and equal the batch scores of the
//! same windows. Every check runs on the active dispatch path and again
//! with the scalar path forced.

use cae_autograd::Tape;
use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig, Positions};
use cae_data::{Detector, TimeSeries};
use cae_tensor::{par, simd, Tensor};
use std::sync::{Mutex, PoisonError};

/// The chunk the replaced protocol scored with all positions.
const CHUNK: usize = 64;

/// Restores one pool thread and the default dispatch, panics included.
struct Reset;

impl Drop for Reset {
    fn drop(&mut self) {
        simd::set_force_scalar(false);
        par::set_threads(1);
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A 3-variate seasonal series.
fn series(len: usize, phase: f32) -> TimeSeries {
    let mut s = TimeSeries::empty(3);
    for t in 0..len {
        let x = t as f32 * 0.23 + phase;
        s.push(&[x.sin(), (1.7 * x).cos(), 0.5 * (0.6 * x).sin()]);
    }
    s
}

fn fitted() -> CaeEnsemble {
    let mut ens = CaeEnsemble::new(
        CaeConfig::new(3).embed_dim(24).window(16).layers(2),
        EnsembleConfig::new()
            .num_models(5)
            .epochs_per_model(1)
            .train_stride(8)
            .seed(3),
    );
    ens.fit(&series(200, 0.0));
    ens
}

/// The windows starting at `starts` of a scaled series as one batch.
fn batch(scaled: &TimeSeries, starts: std::ops::Range<usize>, w: usize) -> Tensor {
    let d = scaled.dim();
    let b = starts.len();
    Tensor::from_vec(
        scaled.data()[starts.start * d..(starts.end + w - 1) * d]
            .windows(w * d)
            .step_by(d)
            .flatten()
            .copied()
            .collect(),
        &[b, w, d],
    )
}

/// Per-member series under the replaced protocol: the first chunk as
/// an all-position forward (window 0 scores every position, the rest
/// their last), later chunks as last-position forwards.
fn replaced_protocol(ens: &CaeEnsemble, scaled: &TimeSeries) -> Vec<Vec<u32>> {
    let w = ens.model_config().window;
    let n_win = scaled.len() + 1 - w;
    ens.members()
        .iter()
        .map(|(model, store)| {
            let mut series = Vec::new();
            for lo in (0..n_win).step_by(CHUNK) {
                let chunk = batch(scaled, lo..(lo + CHUNK).min(n_win), w);
                let positions = if lo == 0 {
                    Positions::All
                } else {
                    Positions::Last
                };
                let mut errors = Vec::new();
                model
                    .infer(store, &chunk, positions)
                    .errors_into(&chunk, &mut errors);
                if lo == 0 {
                    series.extend_from_slice(&errors[..w]);
                    series.extend(errors[w..].chunks_exact(w).map(|row| row[w - 1]));
                } else {
                    series.extend_from_slice(&errors);
                }
            }
            bits(&series)
        })
        .collect()
}

#[test]
fn batch_scores_and_fleet_ticks_keep_their_bits_at_the_benchmark_shape() {
    static GATE: Mutex<()> = Mutex::new(());
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _reset = Reset;
    let ens = fitted();
    let w = ens.model_config().window;
    let scaler = ens.scaler().expect("the default config rescales");
    for force_scalar in [false, true] {
        simd::set_force_scalar(force_scalar);
        let path = if force_scalar { "scalar" } else { "dispatched" };
        for n_win in [1, 64, 129] {
            let test = series(n_win + w - 1, 1.1);
            let scaled = scaler.transform(&test);
            let expected = replaced_protocol(&ens, &scaled);
            for threads in [1, 2] {
                par::set_threads(threads);
                let members: Vec<Vec<u32>> =
                    ens.member_scores(&test).iter().map(|s| bits(s)).collect();
                assert_eq!(
                    members, expected,
                    "[{path}] {n_win} windows, {threads} threads"
                );
            }
        }

        let test = series(CHUNK + w - 1, 1.1);
        par::set_threads(1);
        let scores = ens.score(&test);
        let scaled = scaler.transform(&test);
        for b in [1, 5, 63, 64] {
            let windows = batch(&scaled, 0..b, w);
            let tick = |threads| {
                par::set_threads(threads);
                let mut out = Vec::new();
                ens.score_scaled_windows_into(&mut Tape::new(), &windows, &mut out);
                bits(&out)
            };
            let one = tick(1);
            assert_eq!(one, tick(2), "[{path}] tick of {b}: pools 1 and 2");
            assert_eq!(
                one,
                bits(&scores[w - 1..w - 1 + b]),
                "[{path}] tick of {b}: batch scores of the same windows"
            );
        }
    }
}
