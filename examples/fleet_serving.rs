//! Production serving: train once, checkpoint, then serve a fleet of
//! 1024 concurrent streams from the loaded ensemble.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```
//!
//! The pipeline is the paper's online setting (Section 4.2.7) at fleet
//! scale:
//!
//! 1. **Offline**: fit a [`CaeEnsemble`] on a clean signal and
//!    [`save`](CaeEnsemble::save) it to a versioned binary checkpoint.
//! 2. **Online**: [`load`](CaeEnsemble::load) the checkpoint in a "fresh
//!    process" (no retraining) and open 1024 stream sessions on a
//!    [`FleetDetector`]. Every tick pools all ready streams into
//!    `(64, w, D)` batches, so member inference runs through the packed
//!    GEMM kernels instead of 1024 batch-size-1 forwards.
//! 3. **Verify**: fleet scores are *identical* — bit-for-bit — to the
//!    offline batch scorer on every stream, and the loaded ensemble
//!    matches the trained one exactly.

use cae_ensemble_repro::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// Fixed RNG seed: training is deterministic, so repeated runs produce
/// bit-identical checkpoints and scores.
const SEED: u64 = 11;

/// Streams that share one signal phase: `main`'s 16 phases make 1024
/// sessions.
const STREAMS_PER_PHASE: usize = 64;

fn wave(t: usize, phase: f32) -> f32 {
    (t as f32 * 0.25 + phase).sin() + 0.3 * (t as f32 * 0.06 + phase).sin()
}

/// What `main` and the test run at.
struct Params {
    train_len: usize,
    model: CaeConfig,
    ens: EnsembleConfig,
    /// Distinct signal phases; each is served to 64 streams.
    phases: usize,
}

fn main() {
    run(Params {
        train_len: 1200,
        model: CaeConfig::new(1).embed_dim(16).window(16).layers(2),
        ens: EnsembleConfig::new()
            .num_models(3)
            .epochs_per_model(4)
            .seed(SEED),
        phases: 16,
    });
}

fn run(p: Params) {
    // --- Offline: train once and checkpoint ---------------------------
    let train = TimeSeries::univariate((0..p.train_len).map(|t| wave(t, 0.0)).collect());
    let mut detector = CaeEnsemble::new(p.model, p.ens);
    println!("offline training…");
    detector.fit(&train);

    let path = std::env::temp_dir().join(format!(
        "cae_fleet_serving_demo_{}.caee",
        std::process::id()
    ));
    detector.save(&path).expect("checkpoint write");
    let bytes = std::fs::metadata(&path).expect("checkpoint exists").len();
    println!(
        "saved checkpoint: {} ({bytes} bytes, {} members)",
        path.display(),
        detector.num_members()
    );

    // --- Online: load and serve (no retraining) -----------------------
    let ensemble = CaeEnsemble::load(&path).expect("checkpoint read");
    let _ = std::fs::remove_file(&path);

    // The loaded ensemble is bit-identical to the trained one.
    let holdout = TimeSeries::univariate((0..320).map(|t| wave(t, 0.7)).collect());
    assert_eq!(
        ensemble.score(&holdout),
        detector.score(&holdout),
        "loaded ensemble must score bit-identically to the trained one"
    );
    println!("load verified: held-out scores are bit-identical to the trained ensemble");

    let w = ensemble.model_config().window;
    // 64 scored ticks per stream; n_win = 64 aligns fleet chunks with the
    // batch scorer's inference chunks, making the comparison bit-exact.
    let len = (w - 1) + 64;
    let phase_of = |k: usize| (k % p.phases) as f32 * 0.37;
    let phase_series: Vec<TimeSeries> = (0..p.phases)
        .map(|p| TimeSeries::univariate((0..len).map(|t| wave(t, phase_of(p))).collect()))
        .collect();

    let ensemble = std::sync::Arc::new(ensemble);
    let mut fleet = FleetDetector::new(ensemble.clone());
    let ids: Vec<StreamId> = (0..p.phases * STREAMS_PER_PHASE)
        .map(|_| fleet.add_stream())
        .collect();
    println!("serving {} concurrent streams…", fleet.num_streams());

    let index_of: HashMap<StreamId, usize> =
        ids.iter().enumerate().map(|(k, &id)| (id, k)).collect();
    let mut out = Vec::new();
    let mut per_stream: Vec<Vec<f32>> = vec![Vec::new(); ids.len()];
    let t0 = Instant::now();
    let mut scored = 0usize;
    for t in 0..len {
        for (k, &id) in ids.iter().enumerate() {
            fleet
                .push(id, phase_series[k % p.phases].observation(t))
                .expect("live stream");
        }
        fleet.tick(&mut out);
        scored += out.len();
        for &(id, score) in &out {
            per_stream[index_of[&id]].push(score);
        }
    }
    let elapsed = t0.elapsed();
    println!(
        "scored {scored} stream-observations in {:.1} ms ({:.2} µs/observation)",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / scored as f64
    );

    // --- Verify: fleet output == the trained ensemble's batch scorer ---
    let batch_scores: Vec<Vec<f32>> = phase_series.iter().map(|s| detector.score(s)).collect();
    for (k, scores) in per_stream.iter().enumerate() {
        assert_eq!(
            scores,
            &batch_scores[k % p.phases][w - 1..],
            "stream {k} diverged from the batch scorer"
        );
    }
    println!(
        "verified: all {} streams produced scores identical to the batch scorer ✓",
        ids.len()
    );
}

#[test]
fn fleet_serving_pipeline_runs_on_a_tiny_fleet() {
    run(Params {
        train_len: 260,
        model: CaeConfig::new(1).embed_dim(8).window(8).layers(1),
        ens: EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .batch_size(16)
            .train_stride(2)
            .seed(13),
        phases: 4,
    });
}
