//! `offline`: the paper's batch setting. `Detector::fit` of the
//! diversity-driven 5-member ensemble with parameter transfer on the
//! SMD-like training split, then `Detector::score` on the labelled test
//! split, on a pool of 2 threads. The batch scorer splits members across
//! both cores, so inference parallelism shows here and nowhere else.
//! The latency probes score one 64-window batch each on one thread: on
//! two vCPUs of a shared host, a 2-thread probe's tail measures when the
//! host runs the second thread more than the scorer.

use crate::calib::Calibration;
use crate::common::{
    check_scores, ensemble_config, model_config, ms, record_ticks, refit_options, secs, Checks,
    Metrics, Shots, WorkDir, MEMBERS,
};
use crate::inputs::{
    smd, OfflineInputs, OFFLINE_PROBES, OFFLINE_PROBE_LEN, REFIT_OBS, STEADY_STREAMS, WINDOW,
};
use crate::layers::{replay_training, window_batch, GemmCounts, Replayer};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use cae_core::CaeEnsemble;
use cae_data::{Detector, TimeSeries};
use cae_serve::{FleetDetector, StreamId};
use cae_tensor::par;
use std::sync::Arc;
use std::time::Instant;

/// Pool width of the batch setting.
const THREADS: usize = 2;
/// Pool width of the latency probes.
const PROBE_THREADS: usize = 1;
/// Rounds per run, at least.
const MIN_ROUNDS: usize = 2;
/// Latency probes per round.
const PROBES_PER_ROUND: usize = 500;
/// Probes per traced/untraced block in the traced run.
const TRACE_BLOCK: usize = 50;
/// Probes between calibration samples.
const CALIB_EVERY: usize = 2;

pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    m: &mut Metrics,
    checks: &mut Checks,
) -> (Tracer, u64) {
    par::set_threads(THREADS);
    let mut tracer = Tracer::new();
    let inputs = OfflineInputs::generate(seed);
    let work = WorkDir::new("offline").expect("create the run directory");
    let mut calib = Calibration::default();

    // Rounds of fit, score, a block of latency probes and a warm re-fit,
    // so every metric samples the whole run rather than one stretch of it.
    // Set-up is dataset generation + ensemble construction.
    let mut gemm = traced.then(GemmCounts::gated);
    let probes: Vec<TimeSeries> = inputs
        .probe_starts
        .iter()
        .map(|&s| inputs.data.test.slice(s, s + OFFLINE_PROBE_LEN))
        .collect();
    let recent = inputs
        .data
        .test
        .slice(inputs.refit_start, inputs.refit_start + REFIT_OBS);
    let start = Instant::now();
    let mut shots = Shots::default();
    let mut rounds = 0;
    let mut probe_ms: Vec<(Instant, f64)> = Vec::with_capacity(probes.len());
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut replayer = None;
    let mut ens = None;
    let mut scores = Vec::new();
    while rounds < MIN_ROUNDS || probe_ms.len() < OFFLINE_PROBES || secs(start) < seconds as f64 {
        let (data, mut e) = shots.time("setup_s", &mut calib, || {
            let data = smd(seed);
            let e = CaeEnsemble::new(model_config(data.train.dim()), ensemble_config(seed));
            (data, e)
        });
        checks.check(data.test.data() == inputs.data.test.data(), || {
            "dataset generation is not deterministic".to_string()
        });
        shots.time("fit_s", &mut calib, || {
            tracer.span("core.fit", || e.fit(&data.train))
        });
        scores = shots.time("score_s", &mut calib, || {
            tracer.span("core.score", || e.score(&data.test))
        });
        rounds += 1;
        m.set("roc_auc", check_scores(checks, &scores, &data.test_labels));
        let e = Arc::new(e);
        let r =
            replayer.get_or_insert_with(|| traced.then(|| Replayer::new(e.model_config(), seed)));

        // Latency of scoring one 64-window inference batch.
        par::set_threads(PROBE_THREADS);
        let mut last_end: Option<Instant> = None;
        for _ in 0..PROBES_PER_ROUND {
            let i = probe_ms.len();
            let probe = &probes[i % probes.len()];
            let in_trace = traced && (i / TRACE_BLOCK) % 2 == 1;
            tracer.set_tick(i as u64);
            if let Some(g) = gemm.as_mut() {
                g.begin(in_trace);
            }
            let t = Instant::now();
            if let Some(prev) = last_end {
                gaps_ms.push((t - prev).as_secs_f64() * 1e3);
            }
            let s = if in_trace {
                tracer.span("core.score_probe", || e.score(probe))
            } else {
                e.score(probe)
            };
            let elapsed = ms(t);
            probe_ms.push((t, elapsed));
            if let Some(g) = gemm.as_mut() {
                g.end(in_trace);
                if in_trace {
                    traced_ms.push(elapsed);
                } else {
                    untraced_ms.push(elapsed);
                }
            }
            checks.check(
                s.len() == OFFLINE_PROBE_LEN && s.iter().all(|v| v.is_finite()),
                || {
                    format!(
                        "probe {i}: {} scores, finite {}",
                        s.len(),
                        s.iter().all(|v| v.is_finite())
                    )
                },
            );
            if let Some(r) = r.as_mut().filter(|_| in_trace && i.is_multiple_of(2)) {
                // The probe's 64 windows as the batch scorer forms them.
                let starts: Vec<usize> = (0..OFFLINE_PROBE_LEN + 1 - WINDOW).collect();
                let batch = window_batch(&e, probe, &starts);
                tracer.span("core.score_batch", || r.replay(&e, &batch));
                batch.recycle();
            }
            if i.is_multiple_of(CALIB_EVERY) {
                calib.sample();
            }
            last_end = Some(Instant::now());
        }
        if let Some(g) = gemm.as_mut() {
            // Counting stays off outside the probes.
            g.begin(false);
        }
        par::set_threads(THREADS);

        // Warm re-fit of the fitted ensemble on a test-split slice, alone.
        let adapted = shots.time("refit_s", &mut calib, || {
            tracer.span("core.refit", || e.refit(&recent, &refit_options(seed)))
        });
        checks.check(adapted.num_members() == MEMBERS, || {
            "re-fit lost members".to_string()
        });
        ens = Some(e);
    }
    let ens = ens.expect("at least one round");
    shots.record(m);
    let (raw, scaled) = shots.medians("score_s");
    let n = inputs.data.test.len() as f64;
    m.set_timing("obs_per_s", n / raw, n / scaled);
    record_ticks(m, checks, Some(&calib), &probe_ms);
    eprintln!(
        "offline: {} rounds in {:.1} s, fit {:.3} s, score {:.3} s, re-fit {:.3} s, probe p50 {:.3} ms (raw), calib {:.0} ns",
        rounds,
        secs(start),
        m.raw("fit_s"),
        m.raw("score_s"),
        m.raw("refit_s"),
        m.raw("tick_p50_ms"),
        calib.median_ns()
    );

    if traced {
        m.set("core.refit_alone_s", m.raw("refit_s"));
        if let Some(g) = &gemm {
            g.record(m);
        }
        m.set("bench.start_lag_p99_ms", percentile(&gaps_ms, 99.0));
        m.set(
            "bench.trace_overhead_pct",
            (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
        );
        m.set("core.diversity", ens.diversity_value(&inputs.data.test));
        let test = &inputs.data.test;
        let r = replayer.flatten().expect("traced runs replay");
        r.record(m, &calib);
        replay_training(m, &ens, test, STEADY_STREAMS, 20, seed);
        let score_batch_ms = median(&r.score_ms);

        // Serving layers at this workload's shape: the fitted ensemble
        // serving 64 streams of the test split.
        let mut fleet = FleetDetector::new(Arc::clone(&ens));
        let ids: Vec<StreamId> = (0..STEADY_STREAMS).map(|_| fleet.add_stream()).collect();
        let offset = |k: usize, t: usize| (k * 41 + t) % test.len();
        let mut out = Vec::new();
        let mut push_ns = Vec::new();
        let mut tick_ms = Vec::new();
        for t in 0..WINDOW + 128 {
            for (k, &id) in ids.iter().enumerate() {
                let ts = Instant::now();
                let _ = fleet.push(id, test.observation(offset(k, t)));
                push_ns.push(ts.elapsed().as_nanos() as f64);
            }
            let ts = Instant::now();
            fleet.tick(&mut out);
            if t >= WINDOW {
                tick_ms.push(ms(ts));
                checks.check(out.len() == STEADY_STREAMS, || {
                    format!("replay tick scored {}", out.len())
                });
            }
        }
        m.set("serve.push_ns", median(&push_ns));
        m.set("serve.tick_self_ms", median(&tick_ms) - score_batch_ms);
        m.set("serve.batch_windows", STEADY_STREAMS as f64);
        let observe: Vec<(Vec<f32>, f32)> = (0..1000.min(test.len()))
            .map(|t| (test.observation(t).to_vec(), scores[t]))
            .collect();
        let journal_obs: Vec<&[f32]> = (0..STEADY_STREAMS * 64)
            .map(|i| test.observation(i % test.len()))
            .collect();
        crate::side::replay(
            m,
            checks,
            &mut fleet,
            &ids,
            &observe,
            &journal_obs,
            &scores,
            &work,
        );
    } else {
        m.set("tensor.calib_ns", calib.median_ns());
    }
    (tracer, inputs.fingerprint())
}
