//! Server-metrics monitoring: the SMD-like scenario of the paper's
//! evaluation. Trains CAE-Ensemble on 38-dimensional machine metrics,
//! compares it against two classic baselines, and reports incident-level
//! detection.
//!
//! ```text
//! cargo run --release --example server_monitoring
//! ```

use cae_ensemble_repro::baselines::{IsolationForest, IsolationForestConfig, MovingAverage};
use cae_ensemble_repro::prelude::*;

/// One fixed RNG seed pins every stochastic component — dataset
/// generation, ensemble training, and the isolation-forest baseline — so
/// repeated runs print identical numbers.
const SEED: u64 = 99;

fn main() {
    run(EnsembleConfig::new()
        .num_models(4)
        .epochs_per_model(4)
        .train_stride(6)
        .seed(SEED));
}

fn run(ens: EnsembleConfig) {
    cae_ensemble_repro::tensor::par::use_all_cores();

    // The SMD-like benchmark dataset: correlated server metrics with
    // injected incidents (level shifts / spike storms on channel subsets).
    let ds = DatasetKind::Smd.generate(Scale::Quick, SEED);
    println!(
        "dataset: {} — train {}×{}D, test {}×{}D, {:.2}% outliers",
        ds.name,
        ds.train.len(),
        ds.train.dim(),
        ds.test.len(),
        ds.test.dim(),
        100.0 * ds.outlier_ratio()
    );

    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(MovingAverage::with_defaults()), // deterministic: no RNG
        Box::new(IsolationForest::new(IsolationForestConfig {
            seed: SEED,
            ..IsolationForestConfig::default()
        })),
        Box::new(CaeEnsemble::new(
            CaeConfig::new(ds.train.dim())
                .embed_dim(24)
                .window(16)
                .layers(2),
            ens,
        )),
    ];

    for detector in detectors.iter_mut() {
        let t0 = std::time::Instant::now();
        detector.fit(&ds.train);
        let scores = detector.score(&ds.test);
        assert_eq!(scores.len(), ds.test.len());
        assert!(scores.iter().all(|s| s.is_finite()));
        let report = EvalReport::compute(&scores, &ds.test_labels);
        println!(
            "{:<14} {report}   ({:.1}s)",
            detector.name(),
            t0.elapsed().as_secs_f64()
        );
    }

    println!(
        "\nShape to check (paper Tables 3–4): the convolutional ensemble wins on\n\
         F1/PR; ISF trades precision for recall on interval-labelled incidents."
    );
}

#[test]
fn server_monitoring_scores_every_detector_at_test_scale() {
    run(EnsembleConfig::new()
        .num_models(2)
        .epochs_per_model(1)
        .train_stride(16)
        .seed(SEED));
}
