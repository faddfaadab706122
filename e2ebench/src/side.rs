//! Serving-side layer replays: durability (snapshot, journal), hot swap,
//! adaptation bookkeeping and telemetry scrapes, timed on a live fleet at
//! the workload's shape.
//!
//! `serve_drift` measures these layers inside its serving loop. The other
//! workloads do not exercise them, so their traced runs time the same
//! public calls here, after the measured work, on the workload's own fleet
//! and observations.

use crate::common::{ns, Checks, Metrics, WorkDir};
use crate::inputs::REFIT_OBS;
use crate::stats::{median, percentile};
use cae_adapt::{AdaptationConfig, AdaptationController};
use cae_core::CaeEnsemble;
use cae_data::{JournalConfig, JournalRecord, ObservationJournal};
use cae_obs::MetricsRegistry;
use cae_serve::{FleetDetector, StreamId};
use std::sync::Arc;
use std::time::Instant;

/// Total bytes and file count of the journal directory.
pub fn journal_footprint(dir: &std::path::Path) -> (u64, usize) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(meta) = e.metadata() {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

/// Records the journal metrics from per-append samples (ns).
pub fn record_journal(m: &mut Metrics, append_ns: &[f64], dir: &std::path::Path, records: u64) {
    m.set(
        "data.journal_append_p50_us",
        percentile(append_ns, 50.0) / 1e3,
    );
    m.set(
        "data.journal_append_p99_us",
        percentile(append_ns, 99.0) / 1e3,
    );
    let (bytes, segments) = journal_footprint(dir);
    m.set(
        "data.journal_bytes_per_obs",
        bytes as f64 / records.max(1) as f64,
    );
    m.set("data.journal_segments", segments as f64);
}

/// Times the side layers on `fleet`. `observe` lists `(observation,
/// score)` pairs of one stream, replayed through an adaptation
/// controller whose band never trips; the journal replay appends
/// `journal_obs` observations round-robin over `ids`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    m: &mut Metrics,
    checks: &mut Checks,
    fleet: &mut FleetDetector,
    ids: &[StreamId],
    observe: &[(Vec<f32>, f32)],
    journal_obs: &[&[f32]],
    baseline: &[f32],
    work: &WorkDir,
) {
    // Snapshot + save, the durability step a serving loop pays.
    let snap_path = work.path("replay.caef");
    let mut snap_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let saved = fleet.snapshot().save(&snap_path);
        snap_ms.push(ns(t) / 1e6);
        checks.check(saved.is_ok(), || format!("snapshot save failed: {saved:?}"));
    }
    m.set("serve.snapshot_ms", median(&snap_ms));

    // Hot swap to the same generation's ensemble.
    let live: Arc<CaeEnsemble> = Arc::clone(fleet.ensemble());
    let mut swap_ns = Vec::new();
    for _ in 0..200 {
        let next = Arc::clone(&live);
        let t = Instant::now();
        fleet.swap_ensemble(next);
        swap_ns.push(ns(t));
    }
    m.set("serve.swap_ns", median(&swap_ns));

    // Journal appends of the workload's observations.
    let dir = work.path("replay-journal");
    match ObservationJournal::open(&dir, JournalConfig::new()) {
        Ok(mut journal) => {
            let mut append_ns = Vec::with_capacity(journal_obs.len());
            for (i, obs) in journal_obs.iter().enumerate() {
                let (slot, generation) = ids[i % ids.len()].raw_parts();
                let record = JournalRecord::Observation {
                    slot,
                    generation,
                    values: obs.to_vec(),
                };
                let t = Instant::now();
                let r = journal.append(&record);
                append_ns.push(ns(t));
                checks.check(r.is_ok(), || format!("journal append failed: {r:?}"));
            }
            drop(journal);
            record_journal(m, &append_ns, &dir, journal_obs.len() as u64);
        }
        Err(e) => checks.check(false, || format!("journal open failed: {e}")),
    }

    // Adaptation bookkeeping with a band that never trips.
    let cfg = AdaptationConfig::new()
        .reservoir_capacity(REFIT_OBS)
        .min_observations(REFIT_OBS - 40)
        .band_sigma(1e9);
    let mut adapt = AdaptationController::new(&live, baseline, cfg);
    let mut observe_ns = Vec::with_capacity(observe.len());
    let mut poll_ns = Vec::with_capacity(observe.len());
    for (obs, score) in observe {
        let t = Instant::now();
        let started = adapt.observe(&live, obs, *score);
        observe_ns.push(ns(t));
        checks.check(!started, || {
            "re-fit started under a never-tripping band".to_string()
        });
        let t = Instant::now();
        let polled = adapt.poll();
        poll_ns.push(ns(t));
        checks.check(polled.is_none(), || {
            "poll returned an ensemble with no re-fit".to_string()
        });
    }
    m.set("adapt.observe_p50_ns", percentile(&observe_ns, 50.0));
    m.set("adapt.observe_p99_ns", percentile(&observe_ns, 99.0));
    m.set("adapt.poll_ns", median(&poll_ns));
    m.set("adapt.trip_delay_ticks", 0.0);
    m.set(
        "adapt.refits_completed",
        adapt.stats().refits_completed as f64,
    );
    m.set("adapt.refits_failed", adapt.stats().refits_failed as f64);

    // Telemetry scrape of the fleet's registry.
    let registry = MetricsRegistry::new();
    fleet.attach_observability(&registry);
    let mut scrape_us = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let text = registry.snapshot().to_prometheus();
        scrape_us.push(ns(t) / 1e3);
        checks.check(text.contains("serve_"), || {
            "scrape lacks serve metrics".to_string()
        });
    }
    m.set("obs.scrape_us", median(&scrape_us));

    let report = fleet.health_report();
    m.set("serve.discarded_obs", report.faulty_observations as f64);
    m.set("serve.quarantines", report.quarantine_events as f64);
}
