//! Online detection: train offline, then score a live stream one
//! observation at a time (the Table 8 setting), raising alerts when the
//! score crosses a threshold calibrated on the training data.
//!
//! ```text
//! cargo run --release --example streaming_detection
//! ```

use cae_ensemble_repro::prelude::*;

/// Fixed RNG seed: training is deterministic, so repeated runs raise the
/// same alerts.
const SEED: u64 = 11;

fn main() {
    run(EnsembleConfig::new()
        .num_models(3)
        .epochs_per_model(5)
        .seed(SEED));
}

fn run(ens: EnsembleConfig) {
    // Offline phase: train on a clean periodic signal.
    let train = TimeSeries::univariate((0..1500).map(|t| (t as f32 * 0.25).sin()).collect());
    let mut detector = CaeEnsemble::new(CaeConfig::new(1).embed_dim(16).window(16).layers(2), ens);
    println!("offline training…");
    detector.fit(&train);

    // Calibrate an alert threshold without labels: a high quantile of the
    // training scores (the domain-knowledge threshold ε of Section 2).
    let train_scores = detector.score(&train);
    let mut sorted = train_scores.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let threshold = sorted[(sorted.len() as f64 * 0.999) as usize];
    println!("alert threshold (99.9th percentile of training scores): {threshold:.4}");

    // Online phase: stream arrives one observation at a time.
    let mut stream = StreamingDetector::new(&detector);
    let mut alerts = Vec::new();
    let t0 = std::time::Instant::now();
    let mut n_scored = 0usize;
    for t in 0..600usize {
        let mut value = (t as f32 * 0.25).sin();
        if t == 300 {
            value += 6.0; // fault injection
        }
        if (450..460).contains(&t) {
            value = 0.0; // sensor dropout
        }
        if let Some(score) = stream.push(&[value]) {
            n_scored += 1;
            if score > threshold {
                alerts.push((t, score));
            }
        }
    }
    let elapsed = t0.elapsed();
    println!(
        "scored {n_scored} observations in {:.1} ms ({:.4} ms/window)",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3 / n_scored as f64
    );
    println!("alerts:");
    for (t, score) in &alerts {
        println!("  t = {t:4}  score = {score:8.3}");
    }
    assert!(
        alerts.iter().any(|&(t, _)| t == 300),
        "the injected fault at t = 300 was not flagged"
    );
    println!("fault at t = 300 flagged ✓");
}

#[test]
fn streaming_detection_flags_the_fault_at_test_scale() {
    run(EnsembleConfig::new()
        .num_models(2)
        .epochs_per_model(1)
        .train_stride(16)
        .seed(SEED));
}
