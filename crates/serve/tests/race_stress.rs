//! Seeded thread-interleaving stress for the fleet's hot-swap contract.
//!
//! [`FleetDetector::swap_ensemble`] promises that a reader who pinned the
//! live `Arc<CaeEnsemble>` before a swap keeps a fully valid model: the
//! retired generation stays alive (double buffer) and scoring through the
//! pinned `Arc` is oblivious to the swap. These tests hammer that promise
//! with randomized interleavings — reader threads pin a generation, spin
//! for a seeded delay, and score a probe series through the shared worker
//! pool while the owner thread ticks streams and swaps models — and assert
//! the scores are **bit-identical** to the single-threaded reference for
//! the pinned generation, every time.
//!
//! Every interleaving is derived from an LCG stream, so a failure
//! reproduces from its seed alone.

#![allow(
    clippy::disallowed_methods,
    reason = "the harness spawns reader threads to race the swap"
)]

use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig};
use cae_data::{Detector, TimeSeries};
use cae_serve::FleetDetector;
use std::sync::Arc;

/// Interleavings per test; together the two tests exceed the ≥1000
/// randomized schedules the concurrency gate calls for. Overridable via
/// `CAE_RACE_STRESS_ITERS` for instrumented runs (TSan costs 10-20x, so
/// CI's sanitizer job dials this down rather than timing out).
const ITERATIONS: u64 = 640;

fn iterations() -> u64 {
    std::env::var("CAE_RACE_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(ITERATIONS)
}

/// SplitMix-style step: decorrelates consecutive draws far better than a
/// bare LCG, and the whole schedule is reproducible from the seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Busy-wait for a seeded number of spins to perturb thread timing.
fn jitter(spins: u64) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

fn wave(t: usize, phase: f32) -> f32 {
    (t as f32 * 0.3 + phase).sin()
}

fn fitted(seed: u64, phase: f32) -> Arc<CaeEnsemble> {
    let series = TimeSeries::univariate((0..200).map(|t| wave(t, phase)).collect());
    let mc = CaeConfig::new(1).embed_dim(8).window(8).layers(1);
    let ec = EnsembleConfig::new()
        .num_models(2)
        .epochs_per_model(2)
        .batch_size(16)
        .train_stride(2)
        .seed(seed);
    let mut ens = CaeEnsemble::new(mc, ec);
    ens.fit(&series);
    Arc::new(ens)
}

fn probe() -> TimeSeries {
    TimeSeries::univariate((0..32).map(|t| wave(t, 0.7)).collect())
}

/// Readers pinned across randomized swap points always score their pinned
/// generation bit-exactly, while the owner thread keeps serving.
#[test]
fn pinned_readers_survive_randomized_swaps() {
    let gen_a = fitted(23, 0.0);
    let gen_b = fitted(57, 0.2);
    let probe = probe();
    // Single-threaded reference score per generation.
    let expect_a = gen_a.score(&probe);
    let expect_b = gen_b.score(&probe);
    assert_ne!(expect_a, expect_b, "generations must be distinguishable");

    for seed in 0..iterations() {
        let mut rng = seed;
        let mut fleet = FleetDetector::new(gen_a.clone());
        let id = fleet.add_stream();
        let base_swaps = fleet.swap_count();
        let mut out = Vec::new();

        let ticks_before = (next(&mut rng) % 12) as usize;
        let ticks_after = (next(&mut rng) % 12) as usize;
        let readers_per_side = 1 + (next(&mut rng) % 2) as usize;
        let mut delays = [0u64; 4];
        for d in &mut delays {
            *d = next(&mut rng) % 4096;
        }

        std::thread::scope(|s| {
            // Pin the pre-swap generation, then race the swap below.
            for r in 0..readers_per_side {
                let pinned = fleet.ensemble().clone();
                let (probe, expect, delay) = (&probe, &expect_a, delays[r]);
                s.spawn(move || {
                    jitter(delay);
                    assert_eq!(&pinned.score(probe), expect, "seed {seed}: pre-swap reader");
                });
            }

            for t in 0..ticks_before {
                fleet.push(id, &[wave(t, 0.5)]).expect("live stream");
                fleet.tick(&mut out);
            }
            fleet.swap_ensemble(gen_b.clone());

            for r in 0..readers_per_side {
                let pinned = fleet.ensemble().clone();
                let (probe, expect, delay) = (&probe, &expect_b, delays[2 + r]);
                s.spawn(move || {
                    jitter(delay);
                    assert_eq!(
                        &pinned.score(probe),
                        expect,
                        "seed {seed}: post-swap reader"
                    );
                });
            }

            // Serving continues mid-race; warm streams never miss a tick.
            for t in 0..ticks_after {
                let at = ticks_before + t;
                fleet.push(id, &[wave(at, 0.5)]).expect("live stream");
                fleet.tick(&mut out);
                if at >= fleet.window() - 1 {
                    assert_eq!(out.len(), 1, "seed {seed}: missed tick at {at}");
                    assert!(out[0].1.is_finite(), "seed {seed}: non-finite score");
                }
            }
        });

        assert_eq!(fleet.swap_count(), base_swaps + 1, "seed {seed}");
        assert!(
            Arc::ptr_eq(fleet.ensemble(), &gen_b),
            "seed {seed}: live generation is not the swapped-in one"
        );
        assert!(
            fleet
                .retired_ensemble()
                .is_some_and(|r| Arc::ptr_eq(r, &gen_a)),
            "seed {seed}: retired generation dropped while pinnable"
        );
    }
}

/// Many readers scoring through the shared worker pool concurrently (the
/// single-job-slot submission path) never corrupt each other's results.
#[test]
fn concurrent_pool_submitters_score_bit_exactly() {
    let ens = fitted(23, 0.0);
    let probe = probe();
    let expect = ens.score(&probe);

    for seed in 0..iterations() {
        let mut rng = seed.wrapping_add(0x5eed);
        let readers = 2 + (next(&mut rng) % 3) as usize;
        std::thread::scope(|s| {
            for _ in 0..readers {
                let pinned = ens.clone();
                let (probe, expect) = (&probe, &expect);
                let delay = next(&mut rng) % 2048;
                s.spawn(move || {
                    jitter(delay);
                    assert_eq!(&pinned.score(probe), expect, "seed {seed}");
                });
            }
        });
    }
}
