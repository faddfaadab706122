//! `serve_drift`: 16 streams in an open loop at 50 Hz. Every observation
//! is journaled before it is pushed, a fleet snapshot is saved every five
//! seconds, a registry on serve, adapt, journal and tensor is scraped once
//! a second, and about 1% of observations are injected faults. Drift
//! episodes trip the adaptation controller, whose warm re-fit runs on its
//! own thread beside serving, and the fleet hot-swaps the result.
//!
//! Tick latency here is the serving thread's on-CPU time per iteration
//! (see `cpu.rs`): with two busy threads on two vCPUs the wall clock
//! mostly measures the host's scheduler. The wall-clock latency from each
//! tick's due time goes to the context line, and how late ticks started to
//! `bench.start_lag_p99_ms`.

use crate::calib::{Calibration, REF_NS};
use crate::common::{
    check_scores, fit, record_ticks, refit_options, secs, Checks, Metrics, Shots, WorkDir,
    CALIB_BURST,
};
use crate::cpu;
use crate::inputs::{DriftInputs, DRIFT_STREAMS, DRIFT_TICK_MS, REFIT_OBS, WINDOW};
use crate::layers::{replay_training, GemmCounts, Replayer};
use crate::schedule::OpenLoop;
use crate::side::record_journal;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use cae_adapt::{AdaptationConfig, AdaptationController};
use cae_core::CaeEnsemble;
use cae_data::{Detector, JournalConfig, JournalRecord, ObservationJournal};
use cae_obs::MetricsRegistry;
use cae_serve::{FleetDetector, HealthConfig, PushOutcome, StreamHealth, StreamId};
use cae_tensor::{par, Tensor};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ticks between registry scrapes (once a second).
const SCRAPE_EVERY: usize = 50;
/// Ticks between fleet snapshots (every five seconds).
const SNAPSHOT_EVERY: usize = 250;
/// Ticks per traced/untraced block in the traced run.
const TRACE_BLOCK: usize = 50;
/// Every n-th traced tick replays its batch through the lower layers.
const REPLAY_EVERY: usize = 2;
/// Set-ups timed per run (the median is reported).
const SETUPS: usize = 9;
/// Ticks between calibration samples.
const CALIB_EVERY: usize = 5;
/// Journal segment size: a run rotates about once, so the fsync every
/// rotation pays shows in the tail without dominating it.
const JOURNAL_SEGMENT: u64 = 4 << 20;

/// One serving set-up: fleet, its stream ids, journal and registry.
struct Served {
    fleet: FleetDetector,
    ids: Vec<StreamId>,
    journal: ObservationJournal,
    journal_dir: std::path::PathBuf,
    registry: MetricsRegistry,
}

fn set_up(
    ckpt: &std::path::Path,
    dir: std::path::PathBuf,
    inputs: &DriftInputs,
    out: &mut Vec<(StreamId, f32)>,
) -> Served {
    let registry = MetricsRegistry::new();
    let ensemble = Arc::new(CaeEnsemble::load(ckpt).expect("load the checkpoint just saved"));
    let mut fleet = FleetDetector::with_observability(ensemble, HealthConfig::default(), &registry);
    let ids: Vec<StreamId> = (0..DRIFT_STREAMS).map(|_| fleet.add_stream()).collect();
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal =
        ObservationJournal::open(&dir, JournalConfig::new().segment_bytes(JOURNAL_SEGMENT))
            .expect("open the journal");
    journal.attach_observability(&registry);
    for t in 0..WINDOW {
        for (k, &id) in ids.iter().enumerate() {
            let obs = inputs.observation(k, t);
            let (slot, generation) = id.raw_parts();
            journal
                .append(&JournalRecord::Observation {
                    slot,
                    generation,
                    values: obs.to_vec(),
                })
                .expect("journal the warm-up fill");
            let _ = fleet.push(id, obs);
        }
        journal
            .append(&JournalRecord::Tick)
            .expect("journal the warm-up tick");
        fleet.tick(out);
    }
    Served {
        fleet,
        ids,
        journal,
        journal_dir: dir,
        registry,
    }
}

pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    m: &mut Metrics,
    checks: &mut Checks,
) -> (Tracer, u64) {
    par::set_threads(1);
    let mut tracer = Tracer::new();
    let health = HealthConfig::default();
    let measured = (seconds * 1000 / DRIFT_TICK_MS) as usize;
    let inputs = DriftInputs::generate(seed, measured, health.flatline_after as usize);
    let work = WorkDir::new("serve_drift").expect("create the run directory");
    let data = &inputs.data;
    let mut calib = Calibration::default();

    // The checkpoint this workload serves, trained before serving starts,
    // and the in-distribution baseline its drift band is calibrated on.
    let mut shots = Shots::default();
    let ens = fit(&mut shots, &mut calib, &data.train, seed);
    let scores = shots.time("score_s", &mut calib, || ens.score(&data.test));
    m.set("roc_auc", check_scores(checks, &scores, &data.test_labels));
    let tail_len = 800.min(data.train.len());
    let baseline = ens.score(
        &data
            .train
            .slice(data.train.len() - tail_len, data.train.len()),
    );
    let ckpt = work.path("ensemble.caee");
    let saved = ens.save(&ckpt);
    checks.check(saved.is_ok(), || {
        format!("checkpoint save failed: {saved:?}")
    });

    // Set-up: checkpoint load + fleet and journal construction + warm-up
    // fill.
    let mut out = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    calib.burst(CALIB_BURST);
    let setup_from = Instant::now();
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(&ckpt, work.path(&format!("journal-{i}")), &inputs, &mut out);
        setups.push(secs(t));
        checks.check(out.len() == DRIFT_STREAMS, || {
            format!("warm-up fill scored {}", out.len())
        });
        served = Some(s);
    }
    let setup_to = Instant::now();
    calib.burst(CALIB_BURST);
    let setup = median(&setups);
    m.set_timing(
        "setup_s",
        setup,
        setup * REF_NS / calib.around_ns(setup_from, setup_to),
    );
    let Served {
        mut fleet,
        ids,
        mut journal,
        journal_dir,
        registry,
    } = served.expect("at least one set-up");
    cae_tensor::obs::install(&registry);
    let cfg = AdaptationConfig::new()
        .reservoir_capacity(REFIT_OBS)
        .min_observations(REFIT_OBS - 40)
        .cooldown(REFIT_OBS as u64 / 2)
        .refit(refit_options(seed));
    let mut adapt =
        AdaptationController::with_observability(fleet.ensemble(), &baseline, cfg, &registry);

    // Mirror of every stream's stored window, for replaying tick batches.
    let mut rings: Vec<VecDeque<Vec<f32>>> = vec![VecDeque::with_capacity(WINDOW); DRIFT_STREAMS];
    for (k, ring) in rings.iter_mut().enumerate() {
        for t in 0..WINDOW {
            ring.push_back(inputs.observation(k, t).to_vec());
        }
    }

    let mut ol = OpenLoop::new(Duration::from_millis(DRIFT_TICK_MS));
    let mut on_cpu: Vec<(Instant, f64)> = Vec::new();
    let mut traced_latency = Vec::new();
    let mut untraced_latency = Vec::new();
    let mut tick_self_ms = Vec::new();
    let mut gemm = GemmCounts::on(&registry);
    let mut refits: Vec<(Instant, Instant)> = Vec::new();
    let mut trip_delays = Vec::new();
    let mut swaps_per_episode = vec![0usize; inputs.episodes.len()];
    let mut refit_started: Option<Instant> = None;
    let mut replayer = traced.then(|| Replayer::new(fleet.ensemble().model_config(), seed));
    let mut scored = 0u64;
    let mut records = 0u64;
    let mut prev_report = fleet.health_report();
    let mut ready = Vec::with_capacity(DRIFT_STREAMS);
    let origin = Instant::now();
    for i in 0..inputs.ticks - WINDOW {
        let t = WINDOW + i;
        let in_trace = traced && (i / TRACE_BLOCK) % 2 == 1;
        tracer.set_tick(i as u64);
        gemm.begin(in_trace);
        let start = ol.wait_for(i as u64, origin);
        let cpu_from = cpu::thread_ns();
        let iteration = in_trace.then(|| tracer.begin_at("serve.iteration", start));

        // Journal, then push, every stream's observation.
        ready.clear();
        let mut unexpected = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let obs = inputs.observation(k, t);
            let (slot, generation) = id.raw_parts();
            let record = JournalRecord::Observation {
                slot,
                generation,
                values: obs.to_vec(),
            };
            let appended =
                tracer.span_if(in_trace, "data.journal_append", || journal.append(&record));
            records += 1;
            let quarantined = fleet.stream_health(id) == StreamHealth::Quarantined;
            let outcome = tracer.span_if(in_trace, "serve.push", || fleet.push(id, obs));
            let expected_ok = match (inputs.is_faulty(k, t), outcome) {
                (true, Ok(PushOutcome::Discarded)) => true,
                (false, Ok(PushOutcome::Stored)) => true,
                (false, Ok(PushOutcome::Discarded)) => quarantined,
                _ => false,
            };
            if appended.is_err() || !expected_ok {
                unexpected.push((k, appended.is_err(), outcome));
            }
            if outcome == Ok(PushOutcome::Stored) {
                let ring = &mut rings[k];
                if ring.len() == WINDOW {
                    ring.pop_front();
                }
                ring.push_back(obs.to_vec());
                if fleet.buffered(id) == WINDOW {
                    ready.push(k);
                }
            } else if fleet.stream_health(id) == StreamHealth::Quarantined {
                rings[k].clear();
            }
        }
        let tick_append = journal.append(&JournalRecord::Tick);
        // The generation this tick scores with (a swap below replaces it).
        let scoring = Arc::clone(fleet.ensemble());
        tracer.span_if(in_trace, "serve.tick", || fleet.tick(&mut out));

        // Adaptation: the canary's score feeds the controller; a finished
        // re-fit is hot-swapped in before the next tick.
        let canary_id = ids[inputs.canary];
        if let Some(&(_, score)) = out.iter().find(|(id, _)| *id == canary_id) {
            let canary_obs = inputs.observation(inputs.canary, t);
            let started = tracer.span_if(in_trace, "adapt.observe", || {
                adapt.observe(fleet.ensemble(), canary_obs, score)
            });
            if started {
                refit_started = Some(Instant::now());
                // Ticks since the regime last switched (drift on or off).
                let switched = inputs
                    .episodes
                    .iter()
                    .flat_map(|e| [e.start, e.end])
                    .filter(|&s| s <= t)
                    .max();
                if let Some(s) = switched {
                    trip_delays.push((t - s) as f64);
                }
            }
        }
        let polled = tracer.span_if(in_trace, "adapt.poll", || adapt.poll());
        if let Some(next) = polled {
            if let Some(s) = refit_started.take() {
                refits.push((s, Instant::now()));
            }
            tracer.span_if(in_trace, "serve.swap", || fleet.swap_ensemble(next));
            if let Some(e) = inputs.episodes.iter().rposition(|e| e.start <= t) {
                swaps_per_episode[e] += 1;
            }
        }
        let scrape = i.is_multiple_of(SCRAPE_EVERY).then(|| {
            tracer.span_if(in_trace, "obs.scrape", || {
                registry.snapshot().to_prometheus()
            })
        });
        let snapshot = (i % SNAPSHOT_EVERY == SNAPSHOT_EVERY / 2).then(|| {
            tracer.span_if(in_trace, "serve.snapshot", || {
                fleet
                    .snapshot()
                    .with_journal_position(journal.position())
                    .save(work.path("fleet.caef"))
            })
        });
        let cpu_ms = (cpu::thread_ns() - cpu_from) as f64 / 1e6;
        let end = origin.elapsed().as_nanos() as u64;
        ol.record(i as u64, start, end);
        on_cpu.push((origin + Duration::from_nanos(start), cpu_ms));
        if let Some(s) = iteration {
            tracer.end_at(s, end);
        }
        if traced {
            gemm.end(in_trace);
            if in_trace {
                traced_latency.push(cpu_ms);
            } else {
                untraced_latency.push(cpu_ms);
            }
        }

        // Checks, after the tick's latency is recorded.
        for (k, append_failed, outcome) in unexpected {
            checks.check(false, || {
                format!("tick {i} stream {k}: append failed {append_failed}, push {outcome:?}")
            });
        }
        checks.check(tick_append.is_ok(), || {
            format!("tick {i}: tick record append failed")
        });
        let report = fleet.health_report();
        let shed = report.shed_windows - prev_report.shed_windows;
        let suppressed = report.suppressed_scores - prev_report.suppressed_scores;
        checks.check(
            ready.len() as u64 == out.len() as u64 + shed + suppressed && suppressed == 0,
            || {
                format!(
                    "tick {i}: {} ready, {} scored, {shed} shed, {suppressed} suppressed",
                    ready.len(),
                    out.len()
                )
            },
        );
        checks.check(out.iter().all(|(_, s)| s.is_finite()), || {
            format!("tick {i}: non-finite score")
        });
        prev_report = report;
        scored += out.len() as u64;
        if let Some(text) = scrape {
            checks.check(text.contains("serve_tick_latency_ns"), || {
                "scrape lacks serve metrics".to_string()
            });
        }
        if let Some(r) = snapshot {
            checks.check(r.is_ok(), || format!("snapshot save failed: {r:?}"));
        }
        if let Some(r) = replayer
            .as_mut()
            .filter(|_| in_trace && i.is_multiple_of(REPLAY_EVERY) && !out.is_empty())
        {
            let batch = ring_batch(&scoring, &rings, &ids, &out, data.test.dim());
            let score_ms = tracer.span("core.score_batch", || r.replay(&scoring, &batch));
            let tick_span = tracer.last_ns("serve.tick").unwrap_or(f64::NAN);
            tick_self_ms.push(tick_span / 1e6 - score_ms);
            let same = r
                .scores
                .iter()
                .zip(&out)
                .all(|(a, (_, b))| a.to_bits() == b.to_bits());
            checks.check(same && r.scores.len() == out.len(), || {
                format!("tick {i}: replayed batch scores differ from the tick's")
            });
            batch.recycle();
        }
        if i.is_multiple_of(CALIB_EVERY) {
            // In the idle time before the next tick is due.
            calib.sample();
        }
    }
    let loop_s = secs(origin);

    // Drain a re-fit still running so no thread outlives the run.
    if adapt.refit_in_progress() {
        let _ = adapt.wait();
    }
    let stats = *adapt.stats();
    let report = fleet.health_report();
    checks.check(
        report.faulty_observations == inputs.faulty_total() as u64,
        || {
            format!(
                "fleet discarded {} faulty observations, {} were injected",
                report.faulty_observations,
                inputs.faulty_total()
            )
        },
    );
    for (e, &swaps) in swaps_per_episode.iter().enumerate() {
        checks.check(swaps >= 1, || {
            format!("drift episode {e} ended without a swap")
        });
    }
    checks.check(stats.refits_failed == 0, || {
        format!("{} re-fits failed", stats.refits_failed)
    });
    checks.check(stats.checkpoint_fallbacks == 0, || {
        format!("{} re-fit checkpoints failed", stats.checkpoint_fallbacks)
    });

    // On-CPU tick time follows the machine's speed like the other timings
    // and is scaled; the throughput is the offered load and is not.
    record_ticks(m, checks, Some(&calib), &on_cpu);
    let wall_ms: Vec<f64> = ol.latency_ns.iter().map(|ns| ns / 1e6).collect();
    m.wall_from_due_ms = Some((median(&wall_ms), percentile(&wall_ms, 99.0)));
    let per_s = scored as f64 / loop_s;
    m.set_timing("obs_per_s", per_s, per_s);
    let refit_raw: Vec<f64> = refits.iter().map(|&(a, b)| (b - a).as_secs_f64()).collect();
    let refit_scaled: Vec<f64> = refits
        .iter()
        .map(|&(a, b)| calib.scale((b - a).as_secs_f64(), a, b))
        .collect();
    checks.check(!refits.is_empty(), || "no re-fit completed".to_string());
    m.set_timing("refit_s", median(&refit_raw), median(&refit_scaled));

    // The single-shot phases again after serving: `fit_s` reports the
    // median of two samples half a minute apart, and the shorter `score_s`
    // the median of three.
    let again = fit(&mut shots, &mut calib, &data.train, seed);
    for _ in 0..2 {
        let rescored = shots.time("score_s", &mut calib, || again.score(&data.test));
        checks.check(rescored == scores, || {
            "a second fit scores differently".to_string()
        });
    }
    drop(again);
    shots.record(m);
    eprintln!(
        "serve_drift: {measured} ticks, on-CPU p50 {:.3} ms, p99 {:.3} ms (raw), wall from due p50 {:.3} ms, p99 {:.3} ms, re-fits {refit_raw:?} s, trips {trip_delays:?}, swaps/episode {swaps_per_episode:?}, faulty {}, calib {:.0} ns",
        m.raw("tick_p50_ms"),
        m.raw("tick_p99_ms"),
        median(&wall_ms),
        percentile(&wall_ms, 99.0),
        report.faulty_observations,
        calib.median_ns()
    );

    if let Some(r) = &replayer {
        m.set("serve.push_ns", median(&tracer.durations_ns("serve.push")));
        m.set("serve.tick_self_ms", median(&tick_self_ms));
        m.set("serve.batch_windows", scored as f64 / measured as f64);
        let snap: Vec<f64> = tracer
            .durations_ns("serve.snapshot")
            .iter()
            .map(|v| v / 1e6)
            .collect();
        m.set("serve.snapshot_ms", median(&snap));
        m.set("serve.swap_ns", median(&tracer.durations_ns("serve.swap")));
        m.set("serve.discarded_obs", report.faulty_observations as f64);
        m.set("serve.quarantines", report.quarantine_events as f64);
        gemm.record(m);
        drop(journal);
        record_journal(
            m,
            &tracer.durations_ns("data.journal_append"),
            &journal_dir,
            records,
        );
        let observe = tracer.durations_ns("adapt.observe");
        m.set("adapt.observe_p50_ns", percentile(&observe, 50.0));
        m.set("adapt.observe_p99_ns", percentile(&observe, 99.0));
        m.set("adapt.poll_ns", median(&tracer.durations_ns("adapt.poll")));
        m.set("adapt.trip_delay_ticks", median(&trip_delays));
        m.set("adapt.refits_completed", stats.refits_completed as f64);
        m.set("adapt.refits_failed", stats.refits_failed as f64);
        let scrape_us: Vec<f64> = tracer
            .durations_ns("obs.scrape")
            .iter()
            .map(|v| v / 1e3)
            .collect();
        m.set("obs.scrape_us", median(&scrape_us));
        let lag_ms: Vec<f64> = ol.lateness_ns.iter().map(|v| v / 1e6).collect();
        m.set("bench.start_lag_p99_ms", percentile(&lag_ms, 99.0));
        m.set(
            "bench.trace_overhead_pct",
            (median(&traced_latency) / median(&untraced_latency) - 1.0) * 100.0,
        );

        // The re-fit alone, on the run's final reservoir, serving idle.
        let live = Arc::clone(fleet.ensemble());
        let recent = adapt.reservoir().series();
        let t = Instant::now();
        let alone = live.refit(&recent, &refit_options(seed));
        m.set("core.refit_alone_s", secs(t));
        drop(alone);
        m.set(
            "core.diversity",
            live.diversity_value(&data.test.slice(0, 600)),
        );
        r.record(m, &calib);
        replay_training(m, &live, &data.test, DRIFT_STREAMS, 20, seed);
    } else {
        m.set("tensor.calib_ns", calib.median_ns());
    }
    (tracer, inputs.fingerprint())
}

/// The batch a tick scored, rebuilt from the mirrored rings of the
/// streams in `out` (slot order), scaled.
fn ring_batch(
    ens: &CaeEnsemble,
    rings: &[VecDeque<Vec<f32>>],
    ids: &[StreamId],
    out: &[(StreamId, f32)],
    dim: usize,
) -> Tensor {
    let mut data = Vec::with_capacity(out.len() * WINDOW * dim);
    for (id, _) in out {
        let k = ids
            .iter()
            .position(|i| i == id)
            .expect("scored stream is served");
        for obs in &rings[k] {
            data.extend_from_slice(obs);
        }
    }
    if let Some(scaler) = ens.scaler() {
        scaler.apply_in_place(&mut data);
    }
    Tensor::from_vec(data, &[out.len(), WINDOW, dim])
}
