//! `serve_steady`: 64 SMD-like streams served by `FleetDetector` on one
//! pool thread in a closed loop — push one observation per stream, `tick`,
//! repeat. Journal, adaptation and telemetry are off, so the forward pass
//! does nearly all the work.

use crate::calib::{Calibration, REF_NS};
use crate::common::{
    check_scores, fit, ms, record_ticks, refit_options, secs, Checks, Metrics, Shots, WorkDir,
    CALIB_BURST, MEMBERS,
};
use crate::inputs::{SteadyInputs, REFIT_OBS, STEADY_STREAMS, WINDOW};
use crate::layers::{replay_training, GemmCounts, Replayer};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use cae_core::CaeEnsemble;
use cae_data::{Detector, TimeSeries};
use cae_serve::{FleetDetector, PushOutcome, StreamId};
use cae_tensor::{par, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// Ticks per traced/untraced block in the traced run.
const TRACE_BLOCK: usize = 32;
/// Every n-th traced tick replays its batch through the lower layers.
const REPLAY_EVERY: usize = 4;
/// Minimum measured ticks: ten beyond p99.
const MIN_TICKS: usize = 1000;
/// Set-ups timed per run (the median is reported).
const SETUPS: usize = 9;
/// Ticks between calibration samples.
const CALIB_EVERY: usize = 2;

pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    m: &mut Metrics,
    checks: &mut Checks,
) -> (Tracer, u64) {
    par::set_threads(1);
    let mut tracer = Tracer::new();
    let inputs = SteadyInputs::generate(seed);
    let work = WorkDir::new("serve_steady").expect("create the run directory");
    let data = &inputs.data;
    let mut calib = Calibration::default();

    // The checkpoint this workload serves, trained before serving starts.
    let mut shots = Shots::default();
    let ens = fit(&mut shots, &mut calib, &data.train, seed);
    let scores = shots.time("score_s", &mut calib, || ens.score(&data.test));
    m.set("roc_auc", check_scores(checks, &scores, &data.test_labels));
    let refit_at = inputs.offsets[0] % (data.test.len() - REFIT_OBS);
    let recent = data.test.slice(refit_at, refit_at + REFIT_OBS);
    let adapted = shots.time("refit_s", &mut calib, || {
        ens.refit(&recent, &refit_options(seed))
    });
    checks.check(adapted.num_members() == MEMBERS, || {
        "re-fit lost members".to_string()
    });
    let ckpt = work.path("ensemble.caee");
    let saved = ens.save(&ckpt);
    checks.check(saved.is_ok(), || {
        format!("checkpoint save failed: {saved:?}")
    });
    drop(adapted);

    // Set-up: checkpoint load + fleet construction + warm-up fill.
    let mut out = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    calib.burst(CALIB_BURST);
    let setup_from = Instant::now();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let ensemble = Arc::new(CaeEnsemble::load(&ckpt).expect("load the checkpoint just saved"));
        let mut fleet = FleetDetector::new(ensemble);
        let ids: Vec<StreamId> = (0..STEADY_STREAMS).map(|_| fleet.add_stream()).collect();
        for t in 0..WINDOW {
            for (k, &id) in ids.iter().enumerate() {
                let _ = fleet.push(id, inputs.observation(k, t));
            }
            fleet.tick(&mut out);
        }
        setups.push(secs(t));
        checks.check(out.len() == STEADY_STREAMS, || {
            format!("warm-up fill scored {} streams", out.len())
        });
        served = Some((fleet, ids));
    }
    let setup_to = Instant::now();
    calib.burst(CALIB_BURST);
    let setup = median(&setups);
    m.set_timing(
        "setup_s",
        setup,
        setup * REF_NS / calib.around_ns(setup_from, setup_to),
    );
    let (mut fleet, ids) = served.expect("at least one set-up");
    let live = Arc::clone(fleet.ensemble());

    let mut gemm = traced.then(GemmCounts::gated);

    let parity_len = SteadyInputs::parity_len();
    let parity_from = inputs.parity_start + 1;
    let mut parity_scores: Vec<Vec<Option<f32>>> =
        vec![vec![None; parity_from + parity_len]; inputs.parity_streams.len()];
    let mut iter_ms: Vec<(Instant, f64)> = Vec::new();
    let mut traced_iter_ms = Vec::new();
    let mut untraced_iter_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut tick_self_ms = Vec::new();
    let mut replayer = traced.then(|| Replayer::new(live.model_config(), seed));
    let mut scored = 0u64;
    let mut t = WINDOW;
    let loop_start = Instant::now();
    let mut last_end: Option<Instant> = None;
    let mut tick = 0usize;
    while tick < MIN_TICKS || secs(loop_start) < seconds as f64 {
        let in_trace = traced && (tick / TRACE_BLOCK) % 2 == 1;
        tracer.set_tick(tick as u64);
        if let Some(g) = gemm.as_mut() {
            g.begin(in_trace);
        }
        let start = Instant::now();
        if let Some(prev) = last_end {
            gaps_ms.push((start - prev).as_secs_f64() * 1e3);
        }
        let mut ok = true;
        let span = in_trace.then(|| tracer.begin("serve.iteration"));
        for (k, &id) in ids.iter().enumerate() {
            let pushed = tracer.span_if(in_trace, "serve.push", || {
                fleet.push(id, inputs.observation(k, t))
            });
            ok &= pushed == Ok(PushOutcome::Stored);
        }
        tracer.span_if(in_trace, "serve.tick", || fleet.tick(&mut out));
        if let Some(s) = span {
            tracer.end(s);
        }
        let elapsed = ms(start);
        iter_ms.push((start, elapsed));
        if let Some(g) = gemm.as_mut() {
            g.end(in_trace);
            if in_trace {
                traced_iter_ms.push(elapsed);
            } else {
                untraced_iter_ms.push(elapsed);
            }
        }

        // Bookkeeping and checks, outside the timed iteration.
        checks.check(ok, || format!("tick {tick}: a clean push was not stored"));
        checks.check(out.len() == STEADY_STREAMS, || {
            format!(
                "tick {tick}: {} of {STEADY_STREAMS} streams scored",
                out.len()
            )
        });
        scored += out.len() as u64;
        for (p, &k) in inputs.parity_streams.iter().enumerate() {
            if t < parity_scores[p].len() {
                parity_scores[p][t] = out.iter().find(|(id, _)| *id == ids[k]).map(|&(_, s)| s);
            }
        }
        if let Some(r) = replayer
            .as_mut()
            .filter(|_| in_trace && tick.is_multiple_of(REPLAY_EVERY))
        {
            let batch = tick_batch(&live, &inputs, t);
            let score_ms = tracer.span("core.score_batch", || r.replay(&live, &batch));
            let tick_span = tracer.last_ns("serve.tick").unwrap_or(f64::NAN);
            tick_self_ms.push(tick_span / 1e6 - score_ms);
            let same = r
                .scores
                .iter()
                .zip(&out)
                .all(|(a, (_, b))| a.to_bits() == b.to_bits());
            checks.check(same && r.scores.len() == out.len(), || {
                format!("tick {tick}: replayed batch scores differ from the tick's")
            });
            batch.recycle();
        }
        if tick.is_multiple_of(CALIB_EVERY) {
            calib.sample();
        }
        last_end = Some(Instant::now());
        tick += 1;
        t += 1;
    }
    let loop_s = secs(loop_start);
    let loop_end = Instant::now();

    record_ticks(m, checks, Some(&calib), &iter_ms);

    // The single-shot phases again after serving: `fit_s` reports the
    // median of two samples half a minute apart, and the shorter `score_s`
    // and `refit_s` the median of three.
    let again = fit(&mut shots, &mut calib, &data.train, seed);
    for _ in 0..2 {
        let rescored = shots.time("score_s", &mut calib, || again.score(&data.test));
        checks.check(rescored == scores, || {
            "a second fit scores differently".to_string()
        });
        let readapted = shots.time("refit_s", &mut calib, || {
            again.refit(&recent, &refit_options(seed))
        });
        checks.check(readapted.num_members() == MEMBERS, || {
            "re-fit lost members".to_string()
        });
    }
    drop(again);
    shots.record(m);
    let per_s = scored as f64 / loop_s;
    m.set_timing(
        "obs_per_s",
        per_s,
        per_s * calib.around_ns(loop_start, loop_end) / REF_NS,
    );
    eprintln!(
        "serve_steady: {tick} ticks in {loop_s:.1} s, p50 {:.3} ms, p99 {:.3} ms (raw), calib {:.0} ns",
        m.raw("tick_p50_ms"),
        m.raw("tick_p99_ms"),
        calib.median_ns()
    );

    // Fleet-vs-batch parity: each sampled stream's served scores over a
    // segment of 8 whole 64-window chunks equal `score` on that segment.
    for (p, &k) in inputs.parity_streams.iter().enumerate() {
        let mut series = TimeSeries::empty(data.test.dim());
        for t in parity_from..parity_from + parity_len {
            series.push(inputs.observation(k, t));
        }
        let batch = live.score(&series);
        for i in WINDOW - 1..parity_len {
            let served = parity_scores[p][parity_from + i];
            checks.check(served.map(f32::to_bits) == Some(batch[i].to_bits()), || {
                format!(
                    "stream {k} t={}: served {served:?} vs batch {}",
                    parity_from + i,
                    batch[i]
                )
            });
        }
    }

    if let Some(r) = &replayer {
        m.set("serve.push_ns", median(&tracer.durations_ns("serve.push")));
        m.set("serve.tick_self_ms", median(&tick_self_ms));
        m.set("serve.batch_windows", scored as f64 / tick as f64);
        if let Some(g) = &gemm {
            g.record(m);
        }
        m.set("bench.start_lag_p99_ms", percentile(&gaps_ms, 99.0));
        m.set(
            "bench.trace_overhead_pct",
            (median(&traced_iter_ms) / median(&untraced_iter_ms) - 1.0) * 100.0,
        );
        m.set("core.refit_alone_s", m.raw("refit_s"));
        let div_from = inputs.offsets[1] % (data.test.len() - 600);
        m.set(
            "core.diversity",
            live.diversity_value(&data.test.slice(div_from, div_from + 600)),
        );
        r.record(m, &calib);
        replay_training(m, &live, &data.test, STEADY_STREAMS, 20, seed);

        // Side layers at this workload's shape: the last 64 ticks'
        // observations, and (observation, score) pairs of the test split.
        let last = t - 1;
        let observe: Vec<(Vec<f32>, f32)> = (0..MIN_TICKS.min(data.test.len()))
            .map(|t| (data.test.observation(t).to_vec(), scores[t]))
            .collect();
        let journal_obs: Vec<&[f32]> = (last - 64..last)
            .flat_map(|t| (0..STEADY_STREAMS).map(move |k| (k, t)))
            .map(|(k, t)| inputs.observation(k, t))
            .collect();
        let baseline: Vec<f32> = scores.iter().copied().filter(|s| s.is_finite()).collect();
        crate::side::replay(
            m,
            checks,
            &mut fleet,
            &ids,
            &observe,
            &journal_obs,
            &baseline,
            &work,
        );
    } else {
        m.set("tensor.calib_ns", calib.median_ns());
    }
    (tracer, inputs.fingerprint())
}

/// The `(64, w, D)` batch tick `t` scored: every stream's last `w`
/// observations in slot order, scaled.
fn tick_batch(ens: &CaeEnsemble, inputs: &SteadyInputs, t: usize) -> Tensor {
    let dim = inputs.data.test.dim();
    let mut data = Vec::with_capacity(STEADY_STREAMS * WINDOW * dim);
    for k in 0..STEADY_STREAMS {
        for s in t + 1 - WINDOW..=t {
            data.extend_from_slice(inputs.observation(k, s));
        }
    }
    if let Some(scaler) = ens.scaler() {
        scaler.apply_in_place(&mut data);
    }
    Tensor::from_vec(data, &[STEADY_STREAMS, WINDOW, dim])
}
