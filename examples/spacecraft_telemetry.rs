//! Spacecraft-telemetry monitoring: the MSL/SMAP-like scenario. Uses the
//! paper's unsupervised median strategy (Section 3.3) to pick the window
//! size and diversity weight before training — no labels touched until the
//! final evaluation.
//!
//! ```text
//! cargo run --release --example spacecraft_telemetry
//! ```

use cae_ensemble_repro::core::hyper::{select_hyperparameters, HyperRanges};
use cae_ensemble_repro::prelude::*;

/// One fixed RNG seed pins every stochastic component — dataset
/// generation, the hyperparameter search, and both training runs — so
/// repeated runs select the same configuration and print identical
/// numbers.
const SEED: u64 = 7;

/// What `main` and the test run at.
struct Params {
    /// Training settings of each search trial.
    search: EnsembleConfig,
    /// Training settings of the final detector, less the selected β and λ.
    detector: EnsembleConfig,
}

fn main() {
    run(Params {
        search: EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .train_stride(8)
            .seed(SEED),
        detector: EnsembleConfig::new()
            .num_models(4)
            .epochs_per_model(4)
            .train_stride(6)
            .seed(SEED),
    });
}

fn run(p: Params) {
    cae_ensemble_repro::tensor::par::use_all_cores();

    let ds = DatasetKind::Msl.generate(Scale::Quick, SEED);
    println!(
        "dataset: {} — train {}×{}D, test {}×{}D, {:.2}% outliers",
        ds.name,
        ds.train.len(),
        ds.train.dim(),
        ds.test.len(),
        ds.test.dim(),
        100.0 * ds.outlier_ratio()
    );

    // Fully unsupervised hyperparameter selection (Algorithm 2) on the
    // unlabeled training series, with a reduced search budget.
    let base_model = CaeConfig::new(ds.train.dim()).embed_dim(24).layers(2);
    let ranges = HyperRanges::quick();
    println!("running unsupervised hyperparameter selection (median strategy)…");
    let sel = select_hyperparameters(&ds.train, &base_model, &p.search, &ranges, SEED);
    println!(
        "selected: w = {}, beta = {:.1}, lambda = {}",
        sel.window, sel.beta, sel.lambda
    );
    assert!(ranges.windows.contains(&sel.window));
    assert!(ranges.betas.contains(&sel.beta));
    assert!(ranges.lambdas.contains(&sel.lambda));

    // Train the full detector with the selected hyperparameters.
    let mut detector = CaeEnsemble::new(
        base_model.window(sel.window),
        p.detector.beta(sel.beta).lambda(sel.lambda),
    );
    detector.fit(&ds.train);
    let scores = detector.score(&ds.test);
    assert_eq!(scores.len(), ds.test.len());
    assert!(scores.iter().all(|s| s.is_finite()));
    let report = EvalReport::compute(&scores, &ds.test_labels);
    println!("final evaluation (labels used only here): {report}");
}

#[test]
fn spacecraft_telemetry_selects_and_scores_at_test_scale() {
    run(Params {
        search: EnsembleConfig::new()
            .num_models(1)
            .epochs_per_model(1)
            .train_stride(16)
            .seed(SEED),
        detector: EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(1)
            .train_stride(16)
            .seed(SEED),
    });
}
