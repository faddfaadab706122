//! Fault-tolerant serving: a fleet that survives NaN storms, flat-lined
//! sensors, malformed rows and a torn checkpoint — and proves it
//! recovered bit-exactly.
//!
//! ```text
//! cargo run --release --example fault_tolerant_fleet
//! ```
//!
//! The pipeline exercises the degradation machinery end to end:
//!
//! 1. **Checkpoint with a safety net**: fit, save a primary checkpoint
//!    and a last-good copy, then arm the `persist.read` failpoint so the
//!    primary tears mid-read —
//!    [`load_with_fallback`](CaeEnsemble::load_with_fallback) recovers
//!    from the copy and retains the primary's typed error.
//! 2. **Serve through faults**: 8 streams, three of them wrapped in
//!    seeded [`StreamFaultInjector`]s (a NaN storm, a frozen sensor, a
//!    dimension-garbling upstream). Faulty observations never reach the
//!    scoring ring; persistent offenders are quarantined and consume no
//!    tick budget.
//! 3. **Recover on schedule**: once the faults clear, each quarantined
//!    stream probes back to health in exactly
//!    [`recovery_pushes`](HealthConfig::recovery_pushes) clean pushes and
//!    then scores **bit-identically** to a stream that was never faulty.
//! 4. **Publish through a dead disk**: a background re-fit whose
//!    checkpoint writes all fail (armed `persist.write` failpoint)
//!    retries with capped backoff, then publishes in-memory anyway —
//!    the fleet hot-swaps to the adapted ensemble and the full error
//!    chain stays inspectable in
//!    [`last_checkpoint_error`](AdaptationController::last_checkpoint_error).
//! 5. **Report**: one merged [`HealthReport`] summarizes quarantines,
//!    recoveries, rejected observations, retries and fallbacks.

use cae_ensemble_repro::chaos::{
    self, Delivery, FaultWindow, InputFault, Schedule, StreamFaultInjector,
};
use cae_ensemble_repro::prelude::*;

const STREAMS: usize = 8;
const FAULT_FROM: usize = 40;
const FAULT_TO: usize = 64;
const SEED: u64 = 43;

fn wave(t: usize, phase: f32) -> f32 {
    (t as f32 * 0.23 + phase).sin() + 0.3 * (t as f32 * 0.05 + phase).cos()
}

fn main() {
    // --- Offline: train, checkpoint, and keep a last-good copy --------
    let train = TimeSeries::univariate((0..600).map(|t| wave(t, 0.0)).collect());
    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(8).window(16).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(3)
            .seed(SEED),
    );
    println!("offline training…");
    detector.fit(&train);

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let primary = dir.join(format!("cae_fault_demo_primary_{pid}.caee"));
    let last_good = dir.join(format!("cae_fault_demo_last_good_{pid}.caee"));
    detector.save(&primary).expect("primary checkpoint");
    detector.save(&last_good).expect("last-good checkpoint");

    // --- A torn primary checkpoint is survivable ----------------------
    // Arm the `persist.read` failpoint: the next read of the primary is
    // truncated to 64 bytes, exactly as if the disk died mid-write.
    let _chaos = chaos::exclusive();
    chaos::sites::PERSIST_READ.arm(Schedule::nth(0).payload(64));
    let recovered =
        CaeEnsemble::load_with_fallback(&primary, &last_good).expect("fallback recovers");
    let ensemble = recovered.value;
    let err = recovered.primary_error.expect("primary error retained");
    println!("primary checkpoint torn ({err}); recovered from last-good copy");
    let _ = std::fs::remove_file(&primary);
    let _ = std::fs::remove_file(&last_good);

    // --- Online: serve a fleet through an input-fault storm -----------
    let health = HealthConfig::default().flatline_after(8);
    let w = ensemble.model_config().window;
    let recovery = health.recovery_pushes(w);
    // From this tick on, stream 0 must score like a never-faulty stream.
    let converge_at = FAULT_TO + recovery - 1;
    let mut fleet = FleetDetector::with_health(ensemble, health);
    let ids: Vec<StreamId> = (0..STREAMS).map(|_| fleet.add_stream()).collect();

    // Streams 0–2 get a fault window each; 3–7 stay clean throughout.
    let mut injectors: Vec<Option<StreamFaultInjector>> = (0..STREAMS)
        .map(|k| {
            let kind = match k {
                0 => InputFault::NanStorm,
                1 => InputFault::FlatLine,
                2 => InputFault::DimGarble,
                _ => return None,
            };
            Some(StreamFaultInjector::new(
                FaultWindow::new(kind, FAULT_FROM, FAULT_TO),
                SEED ^ k as u64,
            ))
        })
        .collect();

    // A malformed row is a *typed* error, not a panic.
    let err = fleet.push(ids[0], &[1.0, 2.0]).expect_err("wrong dim");
    assert_eq!(
        err,
        PushError::DimMismatch {
            got: 2,
            expected: 1
        }
    );
    println!("typed rejection: {err}");

    let ticks = FAULT_TO + recovery + 20;
    let mut out = Vec::new();
    let mut stream0_bits = Vec::new(); // stream 0's scores from `converge_at` on
    for t in 0..ticks {
        for (k, id) in ids.iter().enumerate() {
            let obs = [wave(t, k as f32 * 0.4)];
            let delivery = match injectors[k].as_mut() {
                Some(inj) => inj.next(t, &obs),
                None => Delivery::Deliver(obs.to_vec()),
            };
            match delivery {
                Delivery::Deliver(row) => match fleet.push(*id, &row) {
                    Ok(_) => {}
                    Err(PushError::DimMismatch { got, .. }) => {
                        // The garbling upstream: counted as a stream
                        // fault, never a crash.
                        debug_assert!(got != 1);
                    }
                    Err(e) => panic!("unexpected push error: {e}"),
                },
                Delivery::DeliverTwice(row) => {
                    fleet.push(*id, &row).expect("live stream");
                    fleet.push(*id, &row).expect("live stream");
                }
                Delivery::Dropped => {}
            }
        }
        fleet.tick(&mut out);
        for &(id, score) in &out {
            assert!(score.is_finite(), "a non-finite score escaped");
            if id == ids[0] && t >= converge_at {
                stream0_bits.push(score.to_bits());
            }
        }
        if t == FAULT_TO - 1 {
            for (k, id) in ids.iter().enumerate().take(3) {
                let state = fleet.stream_health(*id);
                println!("t={t}: stream {k} is {state:?}");
                assert_eq!(state, StreamHealth::Quarantined);
            }
        }
    }

    // --- The recovered streams score exactly like the clean ones ------
    // Streams 0 and 3 follow the same signal family with different
    // phases; after recovery, stream 0's scoring path is byte-for-byte
    // the healthy path again. Re-run stream 0's phase through a fresh
    // fleet that never saw a fault and compare every tick bit-exactly.
    let mut reference = FleetDetector::with_health(fleet.ensemble().clone(), health);
    let ref_id = reference.add_stream();
    let mut ref_bits = Vec::new();
    for t in 0..ticks {
        reference
            .push(ref_id, &[wave(t, 0.0)])
            .expect("live stream");
        reference.tick(&mut out);
        if t >= converge_at {
            ref_bits.extend(out.iter().map(|&(_, s)| s.to_bits()));
        }
    }
    assert_eq!(
        stream0_bits, ref_bits,
        "recovered stream must score bit-exactly like a never-faulty one"
    );
    println!(
        "stream 0 recovered: final score {:.6} matches the clean path bit-exactly",
        f32::from_bits(*stream0_bits.last().expect("stream 0 scored"))
    );

    // --- A checkpoint failure mid-re-fit still publishes --------------
    // Every checkpoint write now fails; the re-fit retries with capped
    // backoff, then falls back to an in-memory publish — serving never
    // strands on the stale generation.
    let ckpt = dir.join(format!("cae_fault_demo_adapted_{pid}.caee"));
    let mut adapt = AdaptationController::new(
        fleet.ensemble(),
        &[0.01; 64], // tiny drift band: the probe scores below trip it
        AdaptationConfig::new()
            .reservoir_capacity(64)
            .min_observations(32)
            .refit(RefitOptions::warm(1, SEED))
            .checkpoint_path(ckpt.clone())
            .checkpoint_retries(2)
            .backoff_ms(1, 4),
    );
    chaos::sites::PERSIST_WRITE.arm(Schedule::always());
    let mut launched = false;
    for t in 0..40 {
        launched |= adapt.observe(fleet.ensemble(), &[wave(t, 0.0)], 10.0);
    }
    assert!(launched, "drift must trip a background re-fit");
    let adapted = adapt.wait().expect("fallback publish despite dead disk");
    chaos::sites::PERSIST_WRITE.disarm();
    fleet.swap_ensemble(adapted);
    let failure = adapt
        .last_checkpoint_error()
        .expect("error chain retained for operators");
    println!(
        "checkpoint fallback: {failure}; adapted ensemble live (swap #{})",
        fleet.swap_count()
    );
    assert!(!ckpt.exists(), "no torn artifact at the final path");
    assert_eq!(adapt.stats().checkpoint_fallbacks, 1);

    // --- One report across both tiers ---------------------------------
    let mut report = fleet.health_report();
    report.merge(&adapt.health_report());
    println!(
        "health: {} quarantines, {} recoveries, {} faulty observations rejected, \
         {} checkpoint retries ({} ms scheduled backoff), {} fallback publishes",
        report.quarantine_events,
        report.recoveries,
        report.faulty_observations,
        report.checkpoint_retries,
        report.backoff_ms,
        report.checkpoint_fallbacks
    );
    assert_eq!(
        (report.quarantine_events, report.recoveries),
        (3, 3),
        "each faulty stream is quarantined once and recovers once"
    );
    assert!(report.faulty_observations >= (FAULT_TO - FAULT_FROM) as u64);
    assert_eq!(
        report.streams_healthy, STREAMS as u64,
        "every stream must end healthy"
    );
    println!("fleet survived the storm; all {STREAMS} streams healthy");
}

#[test]
fn fault_tolerant_fleet_pipeline_quarantines_and_recovers() {
    main();
}
