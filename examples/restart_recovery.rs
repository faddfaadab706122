//! Restart recovery: a serving pipeline that journals every event,
//! snapshots periodically, dies mid-append — and comes back bit-exact.
//!
//! ```text
//! cargo run --release --example restart_recovery
//! ```
//!
//! The pipeline exercises the durability layer end to end:
//!
//! 1. **Checkpoint the model**: fit an ensemble offline and save it —
//!    the model artifact is durable before serving starts.
//! 2. **Journal-then-apply**: every serving event (stream opened,
//!    observation pushed, tick) is appended to a write-ahead
//!    [`ObservationJournal`] *before* it touches the fleet; tick scores
//!    feed an [`AdaptationController`].
//! 3. **Snapshot periodically**: a [`FleetSnapshot`] captures the whole
//!    fleet — warm-up rings, health machines, counters — plus the
//!    journal position it was taken at and the controller's exported
//!    [`AdaptationState`].
//! 4. **Crash mid-append**: the `journal.append` failpoint tears a
//!    frame partway through its write, exactly as if power died; the
//!    in-memory fleet and controller are dropped on the floor.
//! 5. **Recover**: load the checkpoint, load the snapshot, restore the
//!    fleet and controller, truncate the torn tail, replay the journal
//!    suffix through the normal serving path (re-feeding replayed
//!    scores to the controller), and resume.
//! 6. **Prove parity**: the recovered pipeline finishes the workload and
//!    its scores, final fleet snapshot and adaptation state match an
//!    uninterrupted run **bit for bit**.

use cae_ensemble_repro::adapt::AdaptationState;
use cae_ensemble_repro::chaos::{self, Schedule};
use cae_ensemble_repro::data::{JournalConfig, JournalRecord, ObservationJournal};
use cae_ensemble_repro::prelude::*;
use cae_ensemble_repro::serve::FleetSnapshot;
use std::sync::Arc;

const STEPS: usize = 40;
const SNAP_AT: usize = 24;
const CRASH_AT: usize = 33;
const SEED: u64 = 47;

fn wave(t: usize, phase: f32) -> f32 {
    (t as f32 * 0.27 + phase).sin() + 0.2 * (t as f32 * 0.06 + phase).cos()
}

/// A drift band too wide to trip: the controller does deterministic
/// bookkeeping only, so its exported state is bit-comparable.
fn adapt_cfg() -> AdaptationConfig {
    AdaptationConfig::new()
        .reservoir_capacity(64)
        .min_observations(16)
        .band_sigma(1.0e6)
}

/// One serving step under the journal-then-apply discipline. Returns
/// the scores the tick emitted, or `Err` if the journal append crashed.
fn step(
    t: usize,
    journal: &mut ObservationJournal,
    fleet: &mut FleetDetector,
    ctl: &mut AdaptationController,
    ids: &[StreamId],
) -> Result<Vec<(StreamId, f32)>, ()> {
    for (k, &id) in ids.iter().enumerate() {
        let (slot, generation) = id.raw_parts();
        let values = vec![wave(t, k as f32 * 0.8)];
        journal
            .append(&JournalRecord::Observation {
                slot,
                generation,
                values: values.clone(),
            })
            .map_err(|_| ())?;
        fleet.push(id, &values).expect("live stream");
    }
    journal.append(&JournalRecord::Tick).map_err(|_| ())?;
    let mut out = Vec::new();
    fleet.tick(&mut out);
    let ens = fleet.ensemble().clone();
    for &(_, score) in &out {
        ctl.observe(&ens, &[score], score);
    }
    Ok(out)
}

fn main() {
    // --- 1. Offline: train and checkpoint the model --------------------
    let train = TimeSeries::univariate((0..400).map(|t| wave(t, 0.0)).collect());
    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(8).window(8).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .seed(SEED),
    );
    println!("offline training…");
    detector.fit(&train);

    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("cae_restart_demo_{pid}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("demo directory");
    let model_path = dir.join("model.caee");
    detector.save(&model_path).expect("model checkpoint");
    let ensemble = Arc::new(detector);

    // --- 2. Serve with a write-ahead journal ---------------------------
    let journal_dir = dir.join("journal");
    let snap_path = dir.join("fleet.caef");
    let mut journal = ObservationJournal::open(
        &journal_dir,
        JournalConfig::new().segment_bytes(1024).fsync_every(4),
    )
    .expect("journal open");
    let mut fleet = FleetDetector::new(ensemble.clone());
    let baseline: Vec<f32> = (0..32).map(|t| 0.1 + wave(t, 0.3).abs() * 0.01).collect();
    let mut ctl = AdaptationController::new(&ensemble, &baseline, adapt_cfg());

    let mut ids = Vec::new();
    for _ in 0..3 {
        // Journal the open first; replay must mint the same id.
        let probe = fleet.add_stream();
        let (slot, generation) = probe.raw_parts();
        journal
            .append(&JournalRecord::StreamOpened { slot, generation })
            .expect("journal open record");
        ids.push(probe);
    }

    let _chaos = chaos::exclusive();
    for t in 0..CRASH_AT {
        step(t, &mut journal, &mut fleet, &mut ctl, &ids).expect("pre-crash step");
        if t + 1 == SNAP_AT {
            // --- 3. Periodic snapshot: fleet + journal position +
            //        adaptation state, written atomically. -------------
            fleet
                .snapshot()
                .with_journal_position(journal.position())
                .with_adaptation_state(ctl.export_state().encode())
                .save(&snap_path)
                .expect("periodic snapshot");
            println!(
                "t={t}: snapshot saved ({} streams, journal at {:?})",
                fleet.snapshot().num_streams(),
                journal.position()
            );
        }
    }

    // --- 4. Power dies mid-append --------------------------------------
    // The next journal frame tears after 5 bytes; the append reports a
    // typed error and the op is never applied. Then the process "dies":
    // fleet, controller and journal handle are all dropped.
    chaos::sites::JOURNAL_APPEND.arm(Schedule::nth(0).payload(5));
    let crash = step(CRASH_AT, &mut journal, &mut fleet, &mut ctl, &ids);
    assert!(crash.is_err(), "armed append must crash");
    chaos::disarm_all();
    println!("t={CRASH_AT}: power lost mid-append (torn frame on disk)");
    drop((journal, fleet, ctl));

    // --- 5. Restart: checkpoint → snapshot → replay --------------------
    let ensemble = Arc::new(CaeEnsemble::load(&model_path).expect("model reload"));
    let mut journal = ObservationJournal::open(
        &journal_dir,
        JournalConfig::new().segment_bytes(1024).fsync_every(4),
    )
    .expect("journal re-open truncates the torn tail");
    println!(
        "journal re-opened: {} torn byte(s) truncated",
        journal.truncated_bytes()
    );
    assert_eq!(journal.truncated_bytes(), 5, "the whole torn frame goes");

    let snap = FleetSnapshot::load(&snap_path).expect("snapshot load");
    let mut fleet = FleetDetector::restore(ensemble.clone(), &snap).expect("fleet restore");
    let state = AdaptationState::decode(snap.adaptation_state().expect("state in snapshot"))
        .expect("adaptation state decode");
    let mut ctl =
        AdaptationController::restore(&ensemble, adapt_cfg(), &state).expect("controller restore");

    let from = snap.journal_position().expect("position in snapshot");
    let records = journal.replay_from(from).expect("journal replay");
    // Each step after the snapshot journaled one record per stream plus
    // its tick.
    assert_eq!(records.len(), (ids.len() + 1) * (CRASH_AT - SNAP_AT));
    let summary = {
        let ctl = &mut ctl;
        let live = ensemble.clone();
        fleet
            .replay_journal_with(&records, |_, score| {
                ctl.observe(&live, &[score], score);
            })
            .expect("replay through the serving path")
    };
    println!(
        "replayed {} records ({} observations, {} ticks) after the snapshot",
        summary.records, summary.observations, summary.ticks
    );

    // --- 6. Finish the workload; prove bit-exact parity ----------------
    // The reference pipeline runs the same workload start to finish
    // without ever crashing (its journal lives in a scratch directory).
    let mut ref_journal = ObservationJournal::open(
        dir.join("reference-journal"),
        JournalConfig::new().segment_bytes(1024),
    )
    .expect("reference journal");
    let mut ref_fleet = FleetDetector::new(ensemble.clone());
    let mut ref_ctl = AdaptationController::new(&ensemble, &baseline, adapt_cfg());
    for &id in &ids {
        let (slot, generation) = id.raw_parts();
        ref_journal
            .append(&JournalRecord::StreamOpened { slot, generation })
            .expect("reference journal");
        assert_eq!(ref_fleet.add_stream(), id);
    }
    let bits = |scores: &[(StreamId, f32)]| -> Vec<(StreamId, u32)> {
        scores.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    };
    for t in 0..STEPS {
        let ref_scores = step(t, &mut ref_journal, &mut ref_fleet, &mut ref_ctl, &ids)
            .expect("reference never crashes");
        if t >= CRASH_AT {
            let scores =
                step(t, &mut journal, &mut fleet, &mut ctl, &ids).expect("post-recovery step");
            assert_eq!(
                bits(&scores),
                bits(&ref_scores),
                "t={t}: recovered score diverged from the reference"
            );
        }
    }
    assert_eq!(
        fleet.snapshot().encode(),
        ref_fleet.snapshot().encode(),
        "final fleet state must be bit-identical"
    );
    assert_eq!(fleet.health_report(), ref_fleet.health_report());
    assert_eq!(
        ctl.export_state(),
        ref_ctl.export_state(),
        "final adaptation state must be bit-identical"
    );
    println!(
        "recovered pipeline finished the workload: {} post-crash ticks, \
         final fleet snapshot and adaptation state bit-identical to the \
         uninterrupted run",
        STEPS - CRASH_AT
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_recovery_pipeline_reconverges_bit_exactly() {
    main();
}
