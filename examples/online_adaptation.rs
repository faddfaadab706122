//! Online adaptation: a served fleet survives a regime drift.
//!
//! ```text
//! cargo run --release --example online_adaptation
//! ```
//!
//! The paper trains offline and scores online, so a deployed ensemble
//! decays silently once the stream drifts. This example closes the loop:
//!
//! 1. **Train & serve** — fit on a two-frequency signal, calibrate a
//!    drift band from the model's own training scores, and serve a fleet
//!    of phase-shifted streams.
//! 2. **Drift** — the signal's primary frequency, amplitude and level
//!    shift. Per-observation outlier scores jump; the score EWMA of a
//!    designated *canary* stream climbs out of the calibrated band.
//! 3. **Re-fit** — the [`AdaptationController`] snapshots the live
//!    ensemble and warm-starts a re-fit on its reservoir of recent raw
//!    observations, on a background thread. Serving never misses a tick.
//! 4. **Swap** — the adapted ensemble is checkpointed atomically,
//!    published, and hot-swapped into the fleet between two ticks.
//!    Post-swap scores drop back to normal.
//!
//! Every random choice is pinned to [`SEED`], so the run is
//! deterministic.

use cae_ensemble_repro::prelude::*;

/// Fixed RNG seed for every seeded component of this example.
const SEED: u64 = 17;

/// The signal family: two superimposed sinusoids.
fn wave(t: usize, phase: f32, drifted: bool) -> f32 {
    let (f1, scale, level) = if drifted {
        (0.34, 1.5, 0.6) // drift: faster, larger, shifted
    } else {
        (0.25, 1.0, 0.0)
    };
    scale * ((t as f32 * f1 + phase).sin() + 0.5 * (t as f32 * 0.07 + phase).sin() + level)
}

/// What `main` and the test run at.
struct Params {
    train_len: usize,
    model: CaeConfig,
    ens: EnsembleConfig,
    /// Streams served by the fleet (all share the drifting regime; their
    /// phases differ). Stream 0 is the canary that feeds the drift
    /// monitor and the re-fit reservoir.
    streams: usize,
}

fn main() {
    run(Params {
        train_len: 600,
        model: CaeConfig::new(1).embed_dim(16).window(16).layers(2),
        ens: EnsembleConfig::new()
            .num_models(3)
            .epochs_per_model(4)
            .train_stride(2)
            .seed(SEED),
        streams: 16,
    });
}

fn run(p: Params) {
    cae_ensemble_repro::tensor::par::use_all_cores();

    // --- 1. Offline: train on the healthy regime ----------------------
    let train = TimeSeries::univariate((0..p.train_len).map(|t| wave(t, 0.0, false)).collect());
    let window = p.model.window;
    let mut detector = CaeEnsemble::new(p.model, p.ens);
    println!("offline training on the healthy regime…");
    detector.fit(&train);

    // The drift band is calibrated on the model's own healthy scores —
    // the tail of the series, past the first window's interior whose
    // protocol scores (Figure 10) run hotter than steady state.
    let baseline = &detector.score(&train)[window..];

    // --- Serve a fleet, watched by an adaptation controller -----------
    let checkpoint = std::env::temp_dir().join(format!(
        "cae_online_adaptation_demo_{}.caee",
        std::process::id()
    ));
    let mut fleet = FleetDetector::new(detector);
    let ids: Vec<StreamId> = (0..p.streams).map(|_| fleet.add_stream()).collect();
    let canary = ids[0];
    let mut adapt = AdaptationController::new(
        fleet.ensemble(),
        baseline,
        AdaptationConfig::new()
            .reservoir_capacity(320)
            .min_observations(240)
            .ewma_alpha(0.05)
            .band_sigma(1.5)
            .cooldown(2000)
            .refit(RefitOptions::warm(4, SEED))
            .checkpoint_path(&checkpoint),
    );
    let (_, band_std) = adapt.monitor().baseline();
    println!(
        "serving {} streams; drift band: EWMA ≤ {:.4} (1.5σ, σ = {band_std:.4})",
        p.streams,
        adapt.monitor().threshold()
    );

    let phase_of = |k: usize| k as f32 * 0.37;
    let mut out = Vec::new();
    let mut canary_scores: Vec<(usize, f32)> = Vec::new();
    let mut tripped_at = None;
    let mut swapped_at = None;
    let mut refit_ticks = 0usize;
    let drift_start = 400usize;
    // Serve until the adapted model has settled for `SETTLE_TICKS` and
    // then scored `RECOVERED_TICKS` more, however late the background
    // re-fit publishes (it shares the pool with serving).
    const SETTLE_TICKS: usize = 50;
    const RECOVERED_TICKS: usize = 300;
    const MAX_TICKS: usize = 3000;
    let mut end = None;

    for t in 0..MAX_TICKS {
        if swapped_at.is_some_and(|s| t == s + SETTLE_TICKS + RECOVERED_TICKS) {
            end = Some(t);
            break;
        }
        let drifted = t >= drift_start;
        let mut canary_obs = [0.0f32];
        for (k, &id) in ids.iter().enumerate() {
            let obs = [wave(t, phase_of(k), drifted)];
            if id == canary {
                canary_obs = obs;
            }
            fleet.push(id, &obs).expect("live stream");
        }
        fleet.tick(&mut out);
        if t >= window - 1 {
            assert_eq!(out.len(), p.streams, "serving missed a tick at t = {t}");
        }

        // Feed the canary's scored observation to the controller. (The
        // reservoir needs contiguous single-stream history — see the
        // `ObservationReservoir` docs — so one representative stream
        // watches for the whole fleet.)
        if let Some(&(_, score)) = out.iter().find(|(id, _)| *id == canary) {
            canary_scores.push((t, score));
            let was_drifted = adapt.monitor().is_drifted();
            let started = adapt.observe(fleet.ensemble(), &canary_obs, score);
            if !was_drifted && adapt.monitor().is_drifted() && tripped_at.is_none() {
                tripped_at = Some(t);
                println!(
                    "t = {t:4}: drift statistic tripped (EWMA {:.4} > {:.4})",
                    adapt.monitor().ewma().expect("observed"),
                    adapt.monitor().threshold()
                );
            }
            if started {
                println!("t = {t:4}: background warm re-fit started");
            }
        }
        if adapt.refit_in_progress() {
            refit_ticks += 1;
        }

        // Publish check: O(1) when nothing is ready; the swap itself is
        // an O(1) pointer exchange between two ticks.
        if let Some(adapted) = adapt.poll() {
            let generation = fleet.swap_ensemble(adapted);
            swapped_at.get_or_insert(t);
            println!(
                "t = {t:4}: hot swap to model generation {generation} \
                 (served {refit_ticks} ticks while re-fitting)"
            );
        }
    }

    // --- Report & verify ----------------------------------------------
    let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
    let mean_over = |lo: usize, hi: usize| {
        let s: Vec<f32> = canary_scores
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, s)| s)
            .collect();
        mean(&s)
    };
    let tripped_at = tripped_at.expect("drift must trip the monitor");
    let swapped_at = swapped_at
        .unwrap_or_else(|| panic!("the re-fit must publish a swap within {MAX_TICKS} ticks"));
    let end = end.unwrap_or_else(|| {
        panic!("the swap at t = {swapped_at} came too late to measure recovery by {MAX_TICKS}")
    });
    let healthy = mean_over(window, drift_start);
    let during = mean_over(drift_start + 50, swapped_at);
    let recovered = mean_over(swapped_at + SETTLE_TICKS, end);
    println!("\ncanary mean outlier score:");
    println!("  healthy regime            {healthy:9.4}");
    println!("  drifted, stale model      {during:9.4}");
    println!("  drifted, adapted model    {recovered:9.4}");
    println!(
        "timeline: drift at t = {drift_start}, tripped at t = {tripped_at}, \
         swapped at t = {swapped_at}"
    );
    println!(
        "counters: drift trips {}, re-fits {}, swaps {}, checkpoints {}",
        adapt.stats().drift_trips,
        adapt.stats().refits_completed,
        fleet.swap_count(),
        adapt.stats().checkpoints_written
    );

    assert!(tripped_at >= drift_start, "band must hold pre-drift");
    assert_eq!(fleet.swap_count(), 1, "one drift, one re-fit");
    assert!(
        recovered < during * 0.5,
        "adapted model must at least halve the drifted score level"
    );

    // The published checkpoint is the serving model, bit for bit.
    let reloaded = CaeEnsemble::load(&checkpoint).expect("published checkpoint loads");
    let _ = std::fs::remove_file(&checkpoint);
    let probe = TimeSeries::univariate((0..160).map(|t| wave(t, 0.5, true)).collect());
    let fresh = fleet.ensemble().score(&probe);
    assert_eq!(
        reloaded.score(&probe),
        fresh,
        "checkpoint and serving model must score identically"
    );
    let stale = fleet.retired_ensemble().expect("swapped").score(&probe);
    assert!(
        mean(&fresh) < mean(&stale),
        "adapted model must score the drifted regime lower"
    );
    println!("checkpoint verified: reload scores bit-identical to the serving model ✓");
}

#[test]
fn online_adaptation_pipeline_adapts_to_drift() {
    run(Params {
        train_len: 300,
        model: CaeConfig::new(1).embed_dim(8).window(8).layers(1),
        ens: EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(3)
            .batch_size(16)
            .train_stride(2)
            .seed(29),
        // Enough per-tick work that the background re-fit finishes well
        // inside the serving loop.
        streams: 64,
    });
}
