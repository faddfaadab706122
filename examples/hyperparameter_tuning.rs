//! Unsupervised hyperparameter selection in isolation: reproduces the
//! Section 3.3 workflow and prints the full trial log — the random-search
//! phase and the three one-dimensional median sweeps.
//!
//! ```text
//! cargo run --release --example hyperparameter_tuning
//! ```

use cae_ensemble_repro::core::hyper::{select_hyperparameters, HyperRanges};
use cae_ensemble_repro::prelude::*;

/// Fixed RNG seed for the dataset, the search RNG, and every trial's
/// training run: the printed trial log is fully reproducible.
const SEED: u64 = 21;

fn main() {
    run(HyperRanges {
        windows: vec![8, 16, 32],
        betas: vec![0.2, 0.5, 0.8],
        lambdas: vec![1.0, 4.0, 16.0],
        random_trials: 4,
    });
}

fn run(ranges: HyperRanges) {
    let ds = DatasetKind::Ecg.generate(Scale::Quick, SEED);
    println!(
        "dataset: {} ({} train observations, no labels used)",
        ds.name,
        ds.train.len()
    );

    let model = CaeConfig::new(ds.train.dim()).embed_dim(16).layers(1);
    let ens = EnsembleConfig::new()
        .num_models(2)
        .epochs_per_model(2)
        .train_stride(8)
        .seed(SEED);
    let sel = select_hyperparameters(&ds.train, &model, &ens, &ranges, SEED);
    assert_eq!(sel.random_trials.len(), ranges.random_trials);
    assert_eq!(sel.window_sweep.len(), ranges.windows.len());
    assert_eq!(sel.beta_sweep.len(), ranges.betas.len());
    assert_eq!(sel.lambda_sweep.len(), ranges.lambdas.len());
    assert!(ranges.windows.contains(&sel.window));
    assert!(ranges.betas.contains(&sel.beta));
    assert!(ranges.lambdas.contains(&sel.lambda));

    println!("\nrandom-search phase (defaults = median recon error):");
    for t in &sel.random_trials {
        println!(
            "  w={:<3} beta={:.1} lambda={:<4} -> recon {:.5}",
            t.window, t.beta, t.lambda, t.recon_error
        );
    }
    println!("\nwindow sweep:");
    for t in &sel.window_sweep {
        println!("  w={:<3} -> recon {:.5}", t.window, t.recon_error);
    }
    println!("beta sweep:");
    for t in &sel.beta_sweep {
        println!("  beta={:.1} -> recon {:.5}", t.beta, t.recon_error);
    }
    println!("lambda sweep:");
    for t in &sel.lambda_sweep {
        println!("  lambda={:<4} -> recon {:.5}", t.lambda, t.recon_error);
    }
    println!(
        "\nselected: w = {}, beta = {:.1}, lambda = {}",
        sel.window, sel.beta, sel.lambda
    );
    println!(
        "note: the median strategy deliberately avoids the minimum-error\n\
         configuration — the paper shows it overfits (Section 3.3, Figure 14)."
    );
}

#[test]
fn hyperparameter_tuning_selects_within_its_ranges() {
    run(HyperRanges {
        windows: vec![8, 16],
        betas: vec![0.2, 0.8],
        lambdas: vec![1.0, 4.0],
        random_trials: 2,
    });
}
