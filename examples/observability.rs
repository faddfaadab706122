//! Observability: wire the zero-dependency telemetry registry through the
//! serving, adaptation and durability tiers, survive a NaN storm, and
//! export the whole catalog as JSON and Prometheus text.
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! Writes `target/obs/metrics.json` and `target/obs/metrics.prom` (the
//! CI `observability` job uploads both as artifacts), and finishes with
//! a paired A/B measurement of the enabled-telemetry overhead on the
//! fleet tick path. The test runs everything but that measurement.

use cae_ensemble_repro::data::{JournalConfig, JournalRecord, ObservationJournal};
use cae_ensemble_repro::prelude::*;
use cae_ensemble_repro::tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STREAMS: usize = 32;

fn wave(t: usize, k: usize) -> f32 {
    (t as f32 * 0.23 + k as f32 * 0.7).sin() + 0.3 * (t as f32 * 0.05).cos()
}

fn main() {
    let ensemble = run();
    measure_overhead(&ensemble);
    println!("done");
}

/// Serves an instrumented fleet through a NaN burst, checks the registry
/// against the health report and writes the exports; returns the
/// ensemble it trained.
fn run() -> Arc<CaeEnsemble> {
    // 1. Train a small ensemble to serve.
    let train = TimeSeries::univariate((0..400).map(|t| wave(t, 0)).collect());
    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(8).window(8).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .batch_size(16)
            .train_stride(2)
            .seed(11),
    );
    println!("training CAE-Ensemble (2 basic models)…");
    detector.fit(&train);
    let ensemble = Arc::new(detector);

    // 2. One registry for every tier. All metric handles share it; the
    //    exporters see one merged, name-sorted catalog.
    let registry = MetricsRegistry::new();
    tensor::obs::install(&registry); // tensor_* dispatch counters

    let mut fleet =
        FleetDetector::with_observability(ensemble.clone(), HealthConfig::default(), &registry);
    let ids: Vec<StreamId> = (0..STREAMS).map(|_| fleet.add_stream()).collect();

    let journal_dir = std::env::temp_dir().join(format!("cae_obs_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut journal = ObservationJournal::open(&journal_dir, JournalConfig::new().fsync_every(16))
        .expect("journal open");
    journal.attach_observability(&registry); // journal_* latency + counters

    let mut adapt = AdaptationController::with_observability(
        &ensemble,
        &[0.01; 32], // tiny drift band: the probe below trips it
        AdaptationConfig::new()
            .reservoir_capacity(32)
            .min_observations(16)
            .refit(RefitOptions::warm(1, 5)),
        &registry, // adapt_* refit/drift/checkpoint metrics
    );

    // 3. Serve 60 rounds; stream 0 is hit by a six-tick NaN burst.
    let mut out = Vec::new();
    let mut injected = 0u64;
    for t in 0..60 {
        for (k, &id) in ids.iter().enumerate() {
            let burst = k == 0 && (20..26).contains(&t);
            let obs = if burst { [f32::NAN] } else { [wave(t, k)] };
            injected += u64::from(burst);
            let (slot, generation) = id.raw_parts();
            journal
                .append(&JournalRecord::Observation {
                    slot,
                    generation,
                    values: obs.to_vec(),
                })
                .expect("journal append");
            fleet.push(id, &obs).expect("live stream");
        }
        fleet.tick(&mut out);
        for &(_, score) in &out {
            adapt.observe(fleet.ensemble(), &[score], score);
        }
    }
    // Trip one background re-fit so the adapt_* counters move too.
    for t in 0..20 {
        adapt.observe(fleet.ensemble(), &[wave(t, 0)], 10.0);
    }
    if let Some(adapted) = adapt.wait() {
        fleet.swap_ensemble(adapted);
    }
    journal.sync().expect("journal sync");

    // 4. The registry equals the health report exactly — counters are
    //    an exact account of what was injected, not a sample.
    let report = fleet.health_report();
    let snapshot = registry.snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("counter registered")
    };
    println!("\ninjected NaN observations: {injected}");
    println!(
        "health report faulty_observations: {} — registry serve_faulty_observations_total: {}",
        report.faulty_observations,
        counter("serve_faulty_observations_total")
    );
    assert_eq!(report.faulty_observations, injected);
    assert_eq!(counter("serve_faulty_observations_total"), injected);
    assert_eq!(
        counter("serve_quarantine_events_total"),
        report.quarantine_events
    );
    assert_eq!(counter("serve_recoveries_total"), report.recoveries);

    // 5. Export the catalog: deterministic JSON and Prometheus text.
    let out_dir = std::path::Path::new("target/obs");
    std::fs::create_dir_all(out_dir).expect("create target/obs");
    let (json, prom) = (snapshot.to_json(), snapshot.to_prometheus());
    std::fs::write(out_dir.join("metrics.json"), &json).expect("write json");
    std::fs::write(out_dir.join("metrics.prom"), &prom).expect("write prom");
    println!("\nwrote target/obs/metrics.json and target/obs/metrics.prom");
    for name in [
        "serve_faulty_observations_total",
        "serve_push_latency_ns",
        "serve_tick_latency_ns",
    ] {
        assert!(json.contains(name), "{name} missing from JSON export");
        assert!(prom.contains(name), "{name} missing from Prometheus export");
    }
    println!("Prometheus exposition (counters only):");
    for line in prom.lines().filter(|l| l.ends_with("counter")) {
        println!("  {line}");
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
    ensemble
}

/// Enabled-telemetry overhead on the fleet tick path.
fn measure_overhead(ensemble: &Arc<CaeEnsemble>) {
    // 6. Enabled-telemetry overhead: the same tick workload on an
    //    instrumented and an uninstrumented fleet, timed in pairs of
    //    back-to-back ticks.
    let ab_registry = MetricsRegistry::new();
    let mut plain = FleetDetector::new(ensemble.clone());
    let mut inst =
        FleetDetector::with_observability(ensemble.clone(), HealthConfig::default(), &ab_registry);
    let p_ids: Vec<StreamId> = (0..STREAMS).map(|_| plain.add_stream()).collect();
    let i_ids: Vec<StreamId> = (0..STREAMS).map(|_| inst.add_stream()).collect();
    let round = |fleet: &mut FleetDetector, ids: &[StreamId], t: usize| {
        let mut out = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            fleet.push(id, &[wave(t, k)]).expect("live stream");
        }
        fleet.tick(&mut out);
        std::hint::black_box(out.len())
    };
    let window = ensemble.model_config().window;
    for t in 0..window + 8 {
        round(&mut plain, &p_ids, t);
        round(&mut inst, &i_ids, t);
    }
    // Machine speed drifts within a run, and other processes' bursts
    // inflate single ticks. Both ticks of a pair run at the same speed,
    // and the median of the per-pair ratios ignores the pairs a burst
    // hit. Which fleet ticks first alternates from pair to pair.
    const PAIRS: usize = 800;
    let timed = |fleet: &mut FleetDetector, ids: &[StreamId], t: usize| {
        let t0 = Instant::now();
        round(fleet, ids, t);
        t0.elapsed()
    };
    let mut pairs: Vec<(Duration, Duration)> = (0..PAIRS)
        .map(|t| {
            if t % 2 == 0 {
                let p = timed(&mut plain, &p_ids, t);
                (p, timed(&mut inst, &i_ids, t))
            } else {
                let i = timed(&mut inst, &i_ids, t);
                (timed(&mut plain, &p_ids, t), i)
            }
        })
        .collect();
    let ratio = |(p, i): &(Duration, Duration)| i.as_secs_f64() / p.as_secs_f64();
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let median = pairs[PAIRS / 2];
    let overhead = ratio(&median) - 1.0;
    println!(
        "\ntelemetry overhead, median of {PAIRS} paired ticks ({STREAMS} streams): \
         plain {:?}/tick, instrumented {:?}/tick — {:+.2}%",
        median.0,
        median.1,
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "enabled telemetry must cost under 5% of a fleet tick"
    );
}

#[test]
fn observability_pipeline_mirrors_fault_counts_and_exports() {
    run();
}
