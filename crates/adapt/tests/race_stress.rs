//! Seeded interleaving stress for the background re-fit publish path.
//!
//! [`AdaptationController`] trains a replacement ensemble on a background
//! thread while the serving thread keeps scoring the live generation. The
//! races worth shaking out on stable (without TSan) are: the worker
//! publishing while the owner polls at arbitrary times, readers scoring
//! the live `Arc` snapshot while the worker trains from the same snapshot
//! through the shared worker pool, and the drain-then-swap handoff into a
//! fleet. Each iteration derives its polling cadence, reader count, and
//! re-fit seed from one LCG stream, so any failure reproduces from the
//! iteration seed alone.

#![allow(
    clippy::disallowed_methods,
    reason = "the harness spawns reader threads to race the publish"
)]

use cae_adapt::{AdaptationConfig, AdaptationController};
use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig, RefitOptions};
use cae_data::{Detector, TimeSeries};
use cae_serve::FleetDetector;
use std::sync::Arc;

/// Publish interleavings; every iteration runs one real background re-fit.
/// Overridable via `CAE_RACE_STRESS_ITERS` for instrumented runs (TSan
/// costs 10-20x, so CI's sanitizer job dials this down).
const ITERATIONS: u64 = 384;

fn iterations() -> u64 {
    std::env::var("CAE_RACE_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(ITERATIONS)
}

/// SplitMix-style step (same generator as cae-serve's harness).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn jitter(spins: u64) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

fn wave(t: usize, f1: f32, level: f32) -> f32 {
    (t as f32 * f1).sin() + 0.5 * (t as f32 * 0.07).sin() + level
}

/// One tiny member: keeps each iteration's re-fit to a few milliseconds
/// so hundreds of real publishes fit in the test budget.
fn live_ensemble() -> Arc<CaeEnsemble> {
    let train = TimeSeries::univariate((0..200).map(|t| wave(t, 0.25, 0.0)).collect());
    let mc = CaeConfig::new(1).embed_dim(8).window(8).layers(1);
    let ec = EnsembleConfig::new()
        .num_models(1)
        .epochs_per_model(2)
        .batch_size(16)
        .train_stride(2)
        .seed(41);
    let mut ens = CaeEnsemble::new(mc, ec);
    ens.fit(&train);
    Arc::new(ens)
}

/// Synthetic in-band baseline: the monitor needs spread, not realism, and
/// skipping inference here keeps the drift trip instant per iteration.
fn baseline() -> Vec<f32> {
    (0..64).map(|i| 1.0 + 0.01 * (i % 7) as f32).collect()
}

#[test]
fn background_publish_races_polling_and_pinned_readers() {
    let live = live_ensemble();
    let probe = TimeSeries::univariate((0..32).map(|t| wave(t, 0.29, 0.3)).collect());
    // Single-threaded reference for the pinned live generation.
    let expect_live = live.score(&probe);

    for seed in 0..iterations() {
        let mut rng = seed;
        let cfg = AdaptationConfig::new()
            .reservoir_capacity(32)
            .min_observations(24)
            .ewma_alpha(0.2)
            .band_sigma(3.0)
            .cooldown(0)
            .refit(RefitOptions::warm(1, seed));
        let mut ctl = AdaptationController::new(&live, &baseline(), cfg);

        // Drifted regime: out-of-band scores trip the monitor as soon as
        // the reservoir is deep enough.
        let mut started = false;
        for t in 0..200 {
            let obs = [wave(t, 0.29, 0.3)];
            started = ctl.observe(&live, &obs, 10.0);
            if started {
                break;
            }
        }
        assert!(started, "seed {seed}: drift never tripped a re-fit");
        assert!(ctl.refit_in_progress(), "seed {seed}");

        // Race the training worker: readers score the very snapshot it is
        // training from, while the owner drains with a seeded cadence.
        let readers = 1 + (next(&mut rng) % 2) as usize;
        let drain_by_wait = next(&mut rng) % 4 == 0;
        let adapted = std::thread::scope(|s| {
            for _ in 0..readers {
                let pinned = live.clone();
                let (probe, expect) = (&probe, &expect_live);
                let delay = next(&mut rng) % 4096;
                s.spawn(move || {
                    jitter(delay);
                    assert_eq!(&pinned.score(probe), expect, "seed {seed}: live reader");
                });
            }
            if drain_by_wait {
                ctl.wait()
            } else {
                loop {
                    jitter(next(&mut rng) % 2048);
                    if let Some(adapted) = ctl.poll() {
                        break Some(adapted);
                    }
                }
            }
        });
        let adapted = adapted.unwrap_or_else(|| panic!("seed {seed}: re-fit published nothing"));

        // Publish invariants: exactly one clean re-fit, a servable model.
        assert!(!ctl.refit_in_progress(), "seed {seed}");
        assert_eq!(ctl.stats().refits_started, 1, "seed {seed}");
        assert_eq!(ctl.stats().refits_completed, 1, "seed {seed}");
        assert_eq!(ctl.stats().refits_failed, 0, "seed {seed}");
        assert_eq!(adapted.num_members(), live.num_members(), "seed {seed}");
        assert!(
            adapted.score(&probe).iter().all(|s| s.is_finite()),
            "seed {seed}: adapted model scores are not finite"
        );

        // Hot swap into a fleet: the generation tag advances exactly once
        // and the displaced generation stays pinnable.
        let mut fleet = FleetDetector::new(live.clone());
        let g0 = fleet.model_generation();
        fleet.swap_ensemble(adapted);
        assert_eq!(fleet.model_generation(), g0 + 1, "seed {seed}");
        assert!(
            fleet
                .retired_ensemble()
                .is_some_and(|r| Arc::ptr_eq(r, &live)),
            "seed {seed}: retired generation dropped while pinnable"
        );
    }
}
