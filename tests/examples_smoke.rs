//! Smoke coverage for the `examples/` directory.
//!
//! Compilation of every example is enforced by CI (`cargo build
//! --examples`; see `.github/workflows/ci.yml`), and the release job runs
//! `examples/quickstart.rs` end-to-end. This test keeps fast local
//! equivalents: miniatures of the quickstart, fleet-serving and
//! online-adaptation pipelines small enough for `cargo test -q` to
//! exercise the same API surfaces in seconds.

use cae_ensemble_repro::prelude::*;

/// The examples CI builds; `quickstart` is additionally run end-to-end.
const EXAMPLES: [&str; 10] = [
    "fault_tolerant_fleet",
    "fleet_serving",
    "hyperparameter_tuning",
    "observability",
    "online_adaptation",
    "quickstart",
    "restart_recovery",
    "server_monitoring",
    "spacecraft_telemetry",
    "streaming_detection",
];

#[test]
fn example_sources_are_present() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for name in EXAMPLES {
        let path = dir.join(format!("{name}.rs"));
        assert!(
            path.is_file(),
            "examples/{name}.rs is missing; update CI and this list"
        );
    }
    let on_disk = std::fs::read_dir(&dir)
        .expect("examples/ directory exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "rs")
        })
        .count();
    assert_eq!(
        on_disk,
        EXAMPLES.len(),
        "examples/ gained or lost a file; update CI and this list"
    );
}

#[test]
fn quickstart_pipeline_runs_on_a_tiny_series() {
    // Miniature of examples/quickstart.rs: same signal family, same
    // pipeline, ~10x smaller so it runs fast in the test suite.
    let wave = |t: usize| (t as f32 * 0.2).sin() + 0.4 * (t as f32 * 0.05).sin();
    let train = TimeSeries::univariate((0..300).map(wave).collect());

    let mut values: Vec<f32> = (0..160).map(wave).collect();
    values[60] += 5.0; // point spike
    for v in values.iter_mut().take(125).skip(110) {
        *v += 2.0; // level shift interval
    }
    let test = TimeSeries::univariate(values);
    let mut labels = vec![false; 160];
    labels[60] = true;
    labels[110..125].fill(true);

    let model_cfg = CaeConfig::new(1).embed_dim(8).window(16).layers(1);
    let ens_cfg = EnsembleConfig::new()
        .num_models(2)
        .epochs_per_model(3)
        .lambda(2.0)
        .beta(0.5)
        .seed(7);
    let mut detector = CaeEnsemble::new(model_cfg, ens_cfg);
    detector.fit(&train);

    let scores = detector.score(&test);
    assert_eq!(scores.len(), 160);
    assert!(
        scores.iter().all(|s| s.is_finite()),
        "scores must be finite"
    );

    let report = EvalReport::compute(&scores, &labels);
    assert!(
        report.roc_auc > 0.7,
        "tiny quickstart failed to separate injected outliers: {report}"
    );
}

#[test]
fn fleet_serving_pipeline_runs_on_a_tiny_fleet() {
    // Miniature of examples/fleet_serving.rs: train → save → load →
    // serve a small fleet, asserting the loaded ensemble and the fleet
    // scores match the batch scorer bit-exactly.
    let wave = |t: usize, phase: f32| (t as f32 * 0.25 + phase).sin();
    let train = TimeSeries::univariate((0..260).map(|t| wave(t, 0.0)).collect());

    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(8).window(8).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(2)
            .batch_size(16)
            .train_stride(2)
            .seed(13),
    );
    detector.fit(&train);

    let path = std::env::temp_dir().join(format!(
        "cae_examples_smoke_fleet_{}.caee",
        std::process::id()
    ));
    detector.save(&path).expect("checkpoint write");
    let ensemble = CaeEnsemble::load(&path).expect("checkpoint read");
    let _ = std::fs::remove_file(&path);

    let w = ensemble.model_config().window;
    // n_win = 64 aligns the fleet's 64-stream chunks with the batch
    // scorer's inference chunks — the comparison is bit-exact.
    let len = (w - 1) + 64;
    let series: Vec<TimeSeries> = (0..64)
        .map(|k| TimeSeries::univariate((0..len).map(|t| wave(t, k as f32 * 0.09)).collect()))
        .collect();

    let mut fleet = FleetDetector::new(ensemble);
    let ids: Vec<StreamId> = (0..64).map(|_| fleet.add_stream()).collect();
    let mut out = Vec::new();
    let mut per_stream: Vec<Vec<f32>> = vec![Vec::new(); 64];
    for t in 0..len {
        for (k, &id) in ids.iter().enumerate() {
            fleet
                .push(id, series[k].observation(t))
                .expect("live stream");
        }
        fleet.tick(&mut out);
        for &(id, score) in &out {
            let k = ids.iter().position(|&i| i == id).expect("known session");
            per_stream[k].push(score);
        }
    }

    for (k, s) in series.iter().enumerate() {
        let batch_scores = detector.score(s); // original, not the loaded copy
        assert_eq!(
            per_stream[k],
            batch_scores[w - 1..],
            "fleet stream {k} diverged from the trained ensemble's batch scorer"
        );
    }
}

#[test]
fn fault_tolerant_fleet_pipeline_quarantines_and_recovers() {
    // Miniature of examples/fault_tolerant_fleet.rs: a NaN-storming
    // stream is quarantined, recovers on the pinned schedule once the
    // input turns clean, and then scores bit-exactly like a stream that
    // was never faulty; a torn primary checkpoint is recovered from the
    // last-good copy.
    use cae_ensemble_repro::chaos::{
        self, Delivery, FaultWindow, InputFault, Schedule, StreamFaultInjector,
    };

    let wave = |t: usize| (t as f32 * 0.23).sin() + 0.3 * (t as f32 * 0.05).cos();
    let train = TimeSeries::univariate((0..260).map(wave).collect());
    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(4).window(8).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(1)
            .batch_size(16)
            .train_stride(2)
            .seed(43),
    );
    detector.fit(&train);

    // Torn primary checkpoint → last-good fallback, with the primary's
    // typed error retained.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let primary = dir.join(format!("cae_examples_smoke_fault_primary_{pid}.caee"));
    let last_good = dir.join(format!("cae_examples_smoke_fault_last_good_{pid}.caee"));
    detector.save(&primary).expect("primary checkpoint");
    detector.save(&last_good).expect("last-good checkpoint");
    let _chaos = chaos::exclusive();
    chaos::sites::PERSIST_READ.arm(Schedule::nth(0).payload(16));
    let recovered =
        CaeEnsemble::load_with_fallback(&primary, &last_good).expect("fallback recovers");
    assert!(recovered.primary_error.is_some(), "primary error retained");
    let _ = std::fs::remove_file(&primary);
    let _ = std::fs::remove_file(&last_good);
    let ensemble = std::sync::Arc::new(recovered.value);

    // Serve one faulty and one clean stream in separate fleets so the
    // convergence comparison is exact.
    let health = HealthConfig::default();
    let w = ensemble.model_config().window;
    let (from, to) = (w + 4, w + 14);
    let converge_at = to + health.recovery_pushes(w) - 1;
    let mut faulty = FleetDetector::with_health(ensemble.clone(), health);
    let mut clean = FleetDetector::with_health(ensemble, health);
    let f_id = faulty.add_stream();
    let c_id = clean.add_stream();
    assert_eq!(f_id, c_id);

    let mut inj = StreamFaultInjector::new(FaultWindow::new(InputFault::NanStorm, from, to), 5);
    let (mut fo, mut co) = (Vec::new(), Vec::new());
    let mut quarantined_seen = false;
    for t in 0..converge_at + 8 {
        let obs = [wave(t)];
        match inj.next(t, &obs) {
            Delivery::Deliver(row) => {
                faulty.push(f_id, &row).expect("well-formed row");
            }
            other => panic!("NaN storm always delivers: {other:?}"),
        }
        clean.push(c_id, &obs).expect("live stream");
        faulty.tick(&mut fo);
        clean.tick(&mut co);
        assert!(fo.iter().all(|&(_, s)| s.is_finite()), "t={t}");
        quarantined_seen |= faulty.stream_health(f_id) == StreamHealth::Quarantined;
        if t >= converge_at {
            assert_eq!(fo, co, "t={t}: not bit-exact after the pinned recovery");
        }
    }
    assert!(quarantined_seen, "the storm must quarantine the stream");
    let report = faulty.health_report();
    assert_eq!(report.quarantine_events, 1);
    assert_eq!(report.recoveries, 1);
    assert!(report.faulty_observations >= (to - from) as u64);
    assert_eq!(report.streams_healthy, 1);

    // Checkpoint failure mid-re-fit: retried with backoff, then the
    // publish falls back to in-memory and the error chain is retained.
    let ckpt = dir.join(format!("cae_examples_smoke_fault_ckpt_{pid}.caee"));
    let mut adapt = AdaptationController::new(
        faulty.ensemble(),
        &[0.01; 32], // tiny drift band: every probe score trips it
        AdaptationConfig::new()
            .reservoir_capacity(32)
            .min_observations(16)
            .refit(RefitOptions::warm(1, 5))
            .checkpoint_path(ckpt.clone())
            .checkpoint_retries(1)
            .backoff_ms(1, 2),
    );
    chaos::sites::PERSIST_WRITE.arm(Schedule::always());
    let mut launched = false;
    for t in 0..20 {
        launched |= adapt.observe(faulty.ensemble(), &[wave(t)], 10.0);
    }
    assert!(launched, "drift must trip the re-fit");
    let published = adapt.wait();
    chaos::sites::PERSIST_WRITE.disarm();
    assert!(published.is_some(), "must publish despite the dead disk");
    assert!(adapt.last_checkpoint_error().is_some(), "chain retained");
    assert_eq!(adapt.stats().checkpoint_fallbacks, 1);
    assert!(!ckpt.exists(), "no torn artifact at the final path");
}

#[test]
fn restart_recovery_pipeline_reconverges_bit_exactly() {
    // Miniature of examples/restart_recovery.rs: journal-then-apply
    // serving, a periodic snapshot carrying the journal position and
    // adaptation state, a crash that tears an in-flight journal frame,
    // then recovery via restore + replay — and bit-exact parity with an
    // uninterrupted run.
    use cae_ensemble_repro::adapt::AdaptationState;
    use cae_ensemble_repro::chaos::{self, Schedule};
    use cae_ensemble_repro::data::{JournalConfig, JournalRecord, ObservationJournal};
    use cae_ensemble_repro::serve::FleetSnapshot;
    use std::sync::Arc;

    let wave = |t: usize| (t as f32 * 0.27).sin();
    let train = TimeSeries::univariate((0..200).map(wave).collect());
    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(4).window(8).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(1)
            .batch_size(16)
            .train_stride(2)
            .seed(47),
    );
    detector.fit(&train);
    let ensemble = Arc::new(detector);

    let adapt_cfg = || {
        AdaptationConfig::new()
            .reservoir_capacity(32)
            .min_observations(16)
            .band_sigma(1.0e6) // never trips: deterministic bookkeeping only
    };
    let baseline = [0.1_f32; 16];
    let dir =
        std::env::temp_dir().join(format!("cae_examples_smoke_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One shared step function keeps the live run, the crashed run and
    // the recovered run on the identical workload.
    let step = |t: usize,
                journal: &mut ObservationJournal,
                fleet: &mut FleetDetector,
                ctl: &mut AdaptationController,
                id: StreamId|
     -> Result<Vec<(StreamId, f32)>, ()> {
        let (slot, generation) = id.raw_parts();
        journal
            .append(&JournalRecord::Observation {
                slot,
                generation,
                values: vec![wave(t)],
            })
            .map_err(|_| ())?;
        fleet.push(id, &[wave(t)]).expect("live stream");
        journal.append(&JournalRecord::Tick).map_err(|_| ())?;
        let mut out = Vec::new();
        fleet.tick(&mut out);
        let ens = fleet.ensemble().clone();
        for &(_, score) in &out {
            ctl.observe(&ens, &[score], score);
        }
        Ok(out)
    };

    let open_journal = || {
        ObservationJournal::open(dir.join("journal"), JournalConfig::new().segment_bytes(256))
            .expect("journal open")
    };
    let (snap_at, crash_at, steps) = (12usize, 17usize, 24usize);

    // Live run: journal, snapshot at `snap_at`, tear a frame at
    // `crash_at`, drop everything.
    let _chaos = chaos::exclusive();
    let mut journal = open_journal();
    let mut fleet = FleetDetector::new(ensemble.clone());
    let mut ctl = AdaptationController::new(&ensemble, &baseline, adapt_cfg());
    let id = fleet.add_stream();
    let (slot, generation) = id.raw_parts();
    journal
        .append(&JournalRecord::StreamOpened { slot, generation })
        .expect("journal open record");
    let snap_path = dir.join("fleet.caef");
    for t in 0..crash_at {
        step(t, &mut journal, &mut fleet, &mut ctl, id).expect("pre-crash step");
        if t + 1 == snap_at {
            fleet
                .snapshot()
                .with_journal_position(journal.position())
                .with_adaptation_state(ctl.export_state().encode())
                .save(&snap_path)
                .expect("periodic snapshot");
        }
    }
    chaos::sites::JOURNAL_APPEND.arm(Schedule::nth(0).payload(5));
    assert!(
        step(crash_at, &mut journal, &mut fleet, &mut ctl, id).is_err(),
        "armed append must crash"
    );
    chaos::disarm_all();
    drop((journal, fleet, ctl));

    // Recover: snapshot → restore → replay the journal suffix.
    let mut journal = open_journal();
    assert_eq!(journal.truncated_bytes(), 5, "torn tail truncated");
    let snap = FleetSnapshot::load(&snap_path).expect("snapshot load");
    let mut fleet = FleetDetector::restore(ensemble.clone(), &snap).expect("fleet restore");
    let state = AdaptationState::decode(snap.adaptation_state().expect("state in snapshot"))
        .expect("state decode");
    let mut ctl =
        AdaptationController::restore(&ensemble, adapt_cfg(), &state).expect("ctl restore");
    let records = journal
        .replay_from(snap.journal_position().expect("position in snapshot"))
        .expect("journal replay");
    assert_eq!(records.len(), 2 * (crash_at - snap_at), "suffix length");
    {
        let ctl = &mut ctl;
        let live = ensemble.clone();
        fleet
            .replay_journal_with(&records, |_, score| {
                ctl.observe(&live, &[score], score);
            })
            .expect("replay through the serving path");
    }

    // Reference run: same workload, never crashes, scratch journal.
    let mut ref_journal = ObservationJournal::open(
        dir.join("reference-journal"),
        JournalConfig::new().segment_bytes(256),
    )
    .expect("reference journal");
    let mut ref_fleet = FleetDetector::new(ensemble.clone());
    let mut ref_ctl = AdaptationController::new(&ensemble, &baseline, adapt_cfg());
    assert_eq!(ref_fleet.add_stream(), id);
    ref_journal
        .append(&JournalRecord::StreamOpened { slot, generation })
        .expect("reference journal");
    for t in 0..steps {
        let ref_out =
            step(t, &mut ref_journal, &mut ref_fleet, &mut ref_ctl, id).expect("reference");
        if t >= crash_at {
            let out = step(t, &mut journal, &mut fleet, &mut ctl, id).expect("post-recovery");
            assert_eq!(out, ref_out, "t={t}: post-recovery scores diverge");
        }
    }
    assert_eq!(fleet.snapshot().encode(), ref_fleet.snapshot().encode());
    assert_eq!(ctl.export_state(), ref_ctl.export_state());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observability_pipeline_mirrors_fault_counts_and_exports() {
    // Miniature of examples/observability.rs: an instrumented fleet
    // survives a NaN burst; the registry counters mirror the health
    // report and the injected ground truth exactly, and both exporters
    // carry the catalog.
    let wave = |t: usize| (t as f32 * 0.23).sin();
    let train = TimeSeries::univariate((0..260).map(wave).collect());
    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(4).window(8).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(1)
            .batch_size(16)
            .train_stride(2)
            .seed(19),
    );
    detector.fit(&train);

    let registry = MetricsRegistry::new();
    let mut fleet = FleetDetector::with_observability(detector, HealthConfig::default(), &registry);
    let id = fleet.add_stream();

    let mut out = Vec::new();
    let mut injected = 0u64;
    for t in 0..40 {
        let burst = (14..18).contains(&t);
        injected += u64::from(burst);
        let obs = if burst { [f32::NAN] } else { [wave(t)] };
        fleet.push(id, &obs).expect("NaN rows are absorbed");
        fleet.tick(&mut out);
    }

    let report = fleet.health_report();
    assert_eq!(report.faulty_observations, injected);
    let snapshot = registry.snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("counter registered")
    };
    assert_eq!(counter("serve_faulty_observations_total"), injected);
    assert_eq!(
        counter("serve_quarantine_events_total"),
        report.quarantine_events
    );
    assert_eq!(counter("serve_recoveries_total"), report.recoveries);

    // Both exporters carry the catalog.
    let json = snapshot.to_json();
    let prom = snapshot.to_prometheus();
    for name in [
        "serve_faulty_observations_total",
        "serve_push_latency_ns",
        "serve_tick_latency_ns",
    ] {
        assert!(json.contains(name), "{name} missing from JSON export");
        assert!(prom.contains(name), "{name} missing from Prometheus export");
    }
}

#[test]
fn online_adaptation_pipeline_adapts_to_drift() {
    // Miniature of examples/online_adaptation.rs: train → serve → drift →
    // background warm re-fit → hot swap → recovery, on a ~5x smaller
    // model so it runs in seconds under `cargo test -q`.
    let wave = |t: usize, drifted: bool| {
        let (f1, scale, level) = if drifted {
            (0.34, 1.5, 0.6)
        } else {
            (0.25, 1.0, 0.0)
        };
        scale * ((t as f32 * f1).sin() + 0.5 * (t as f32 * 0.07).sin() + level)
    };
    let train = TimeSeries::univariate((0..300).map(|t| wave(t, false)).collect());
    let mut detector = CaeEnsemble::new(
        CaeConfig::new(1).embed_dim(8).window(8).layers(1),
        EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(3)
            .batch_size(16)
            .train_stride(2)
            .seed(29),
    );
    detector.fit(&train);
    let baseline = detector.score(&train);

    let mut fleet = FleetDetector::new(detector);
    let id = fleet.add_stream();
    let mut adapt = AdaptationController::new(
        fleet.ensemble(),
        &baseline[8..],
        AdaptationConfig::new()
            .reservoir_capacity(160)
            .min_observations(120)
            .ewma_alpha(0.1)
            .band_sigma(1.5)
            .refit(RefitOptions::warm(2, 29)),
    );

    let mut out = Vec::new();
    let mut started = false;
    for t in 0..400 {
        fleet.push(id, &[wave(t, t >= 150)]).expect("live stream");
        fleet.tick(&mut out);
        if t >= fleet.window() - 1 {
            assert_eq!(out.len(), 1, "serving missed a tick at t={t}");
        }
        for &(_, score) in &out {
            started |= adapt.observe(fleet.ensemble(), &[wave(t, t >= 150)], score);
        }
        if started {
            break;
        }
    }
    assert!(started, "drift never tripped a background re-fit");
    let adapted = adapt.wait().expect("re-fit publishes an ensemble");
    fleet.swap_ensemble(adapted);
    assert_eq!(fleet.swap_count(), 1);

    let drifted = TimeSeries::univariate((0..120).map(|t| wave(t, true)).collect());
    let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
    let stale = mean(&fleet.retired_ensemble().expect("swapped").score(&drifted));
    let fresh = mean(&fleet.ensemble().score(&drifted));
    assert!(
        fresh < stale,
        "adapted model must score the drifted regime lower: {fresh} vs {stale}"
    );
}
