//! `perf_report` — the machine-readable performance baseline.
//!
//! Times the tensor kernels underneath every model, one full training step
//! of the CAE basic model, full-ensemble inference, the ensemble-level
//! scoring primitives and the serving, adaptation and durability paths on
//! synthetic data, then writes `BENCH_tensor.json` at the repo root:
//!
//! ```json
//! {"version": 2, "threads": 8, "pool_workers_spawned": 7, "isa": "avx2+fma",
//!  "results": [{"op": "matmul", "shape": "256x256x256",
//!               "iters": 420, "ns_per_iter": 513211}, …]}
//! ```
//!
//! The committed JSON is the perf trajectory's anchor: future PRs rerun
//! the binary and diff `ns_per_iter` per op — `--baseline` does the diff
//! in-process and turns the binary into a regression gate. Flags:
//!
//! * `--out PATH`        output path (default `BENCH_tensor.json`)
//! * `--budget-ms N`     target wall time per op (default 100, CI uses 25)
//! * `--threads N`       worker threads (default: all cores)
//! * `--force-scalar`    pin the scalar dispatch path (stable on any
//!   runner regardless of its vector ISA; also via
//!   `CAE_TENSOR_FORCE_SCALAR=1`)
//! * `--baseline PATH`   compare against a previously committed report:
//!   prints per-op speedup ratios and exits non-zero if any op regressed
//!   more than `--max-regress-pct` (default 15) percent
//! * `--max-regress-pct N`  regression tolerance for `--baseline`

use cae_autograd::ParamStore;
use cae_bench::HARNESS_SEED;
use cae_core::diversity::{ensemble_diversity, pairwise_diversity};
use cae_core::{Cae, CaeConfig, CaeEnsemble, EnsembleConfig, StreamingDetector};
use cae_data::scoring::{median_scores, series_scores_from_window_errors};
use cae_data::{Detector, TimeSeries};
use cae_nn::{Adam, Optimizer};
use cae_obs::MetricsRegistry;
use cae_serve::{FleetDetector, HealthConfig, StreamId};
use cae_tensor::{par, simd, Padding, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

struct Entry {
    op: &'static str,
    shape: String,
    iters: u64,
    ns_per_iter: u128,
}

/// Number of measurement repetitions; the fastest is reported, which is
/// robust against scheduler interference on shared machines.
const REPS: u32 = 8;

/// Times `f` as the **minimum** per-iteration wall time over [`REPS`]
/// repetitions, each sized to roughly `budget / REPS`.
fn bench(
    op: &'static str,
    shape: impl Into<String>,
    budget: Duration,
    mut f: impl FnMut(),
) -> Entry {
    // Warmup + calibration: size one repetition from a first timed call.
    f();
    let t0 = Instant::now();
    f();
    let estimate = t0.elapsed().max(Duration::from_nanos(50));
    let per_rep = (budget.as_nanos() / u128::from(REPS) / estimate.as_nanos()).clamp(1, 1 << 20);
    let per_rep = per_rep as u64;

    let mut best = u128::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..per_rep {
            f();
        }
        best = best.min(start.elapsed().as_nanos() / u128::from(per_rep));
    }
    entry(op, shape.into(), per_rep * u64::from(REPS), best)
}

/// Prints one op's timing line and returns its report entry.
fn entry(op: &'static str, shape: String, iters: u64, best: u128) -> Entry {
    eprintln!("{op:<26} {shape:<22} {iters:>8} iters  {best:>12} ns/iter (min of {REPS} reps)");
    Entry {
        op,
        shape,
        iters,
        ns_per_iter: best,
    }
}

/// Like [`bench()`], but every timed call of `f` follows `gap` of idle
/// sleep, which is not timed: the latency of work that arrives at an idle
/// pool.
fn bench_after_gap(
    op: &'static str,
    shape: impl Into<String>,
    budget: Duration,
    gap: Duration,
    mut f: impl FnMut(),
) -> Entry {
    f();
    let per_rep = (budget.as_nanos() / u128::from(REPS) / gap.as_nanos()).clamp(1, 1 << 20);
    let per_rep = per_rep as u64;
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let mut busy = Duration::ZERO;
        for _ in 0..per_rep {
            std::thread::sleep(gap);
            let start = Instant::now();
            f();
            busy += start.elapsed();
        }
        best = best.min(busy.as_nanos() / u128::from(per_rep));
    }
    entry(op, shape.into(), per_rep * u64::from(REPS), best)
}

/// A fixed dependent chain of float arithmetic, seeded by `seed`: the
/// unit of work of the `pool_fork_join` op.
fn fixed_arithmetic(seed: usize) -> f32 {
    let mut x = 1.0 + seed as f32;
    for _ in 0..FORK_JOIN_STEPS {
        x = std::hint::black_box(x * 0.999_9 + 0.5);
    }
    x
}

/// Steps of [`fixed_arithmetic`]; about 20 µs on one 2.1 GHz Xeon core.
const FORK_JOIN_STEPS: u32 = 4_200;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|pair| pair[0] == name)
        .map(|pair| pair[1].clone())
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Minimal extractor for the report's own JSON: one result object per
/// line, fields in a fixed order (this tool both writes and reads the
/// format, so no general parser is needed).
fn parse_baseline(json: &str) -> Vec<(String, String, u128)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(key)? + key.len()..];
        let rest = rest.trim_start_matches([':', ' ']);
        // Quoted values (shapes may contain commas) end at the closing
        // quote; bare numbers end at the next separator.
        if let Some(q) = rest.strip_prefix('"') {
            Some(q[..q.find('"')?].to_string())
        } else {
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim().to_string())
        }
    };
    json.lines()
        .filter(|l| l.contains("\"op\""))
        .filter_map(|l| {
            Some((
                field(l, "\"op\"")?,
                field(l, "\"shape\"")?,
                field(l, "\"ns_per_iter\"")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Prints the per-op comparison against a baseline report and returns
/// whether any op regressed beyond `max_regress_pct`.
fn compare_to_baseline(results: &[Entry], baseline_path: &str, max_regress_pct: f64) -> bool {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&text);
    // Comparing across thread counts or ISA paths is legitimate when
    // measuring a speedup, but a gate run that does it accidentally is
    // meaningless — make the mismatch loud.
    let header = |key: &str| -> Option<String> {
        let line = text.lines().find(|l| l.contains(&format!("\"{key}\"")))?;
        let rest = line.split(':').nth(1)?;
        Some(rest.trim().trim_matches([',', '"', ' ']).to_string())
    };
    if let Some(base_threads) = header("threads") {
        if base_threads != par::threads().to_string() {
            eprintln!(
                "warning: baseline was recorded at {base_threads} thread(s), this run uses {} — \
                 ratios mix thread scaling with kernel changes",
                par::threads()
            );
        }
    }
    if let Some(base_isa) = header("isa") {
        if base_isa != simd::active_name() {
            eprintln!(
                "warning: baseline ISA path is '{base_isa}', this run uses '{}' — ratios measure \
                 dispatch speedup, not regressions",
                simd::active_name()
            );
        }
    }
    let limit = 1.0 + max_regress_pct / 100.0;
    let mut regressed = false;
    eprintln!("\ncomparison vs {baseline_path} (regression limit {max_regress_pct}%):");
    eprintln!(
        "{:<26} {:<22} {:>12} {:>12} {:>9}",
        "op", "shape", "baseline ns", "now ns", "speedup"
    );
    for e in results {
        let Some((_, _, base_ns)) = baseline
            .iter()
            .find(|(op, shape, _)| *op == e.op && *shape == e.shape)
        else {
            eprintln!(
                "{:<26} {:<22} {:>12} {:>12} {:>9}",
                e.op, e.shape, "-", e.ns_per_iter, "new"
            );
            continue;
        };
        let speedup = *base_ns as f64 / e.ns_per_iter as f64;
        let flag = if e.ns_per_iter as f64 > *base_ns as f64 * limit {
            regressed = true;
            "  REGRESSED"
        } else {
            ""
        };
        eprintln!(
            "{:<26} {:<22} {:>12} {:>12} {:>8.2}x{flag}",
            e.op, e.shape, base_ns, e.ns_per_iter, speedup
        );
    }
    // Reverse pass: a baseline op the new run no longer times is a hole
    // in coverage, not a pass — fail so the gate cannot go blind.
    for (op, shape, _) in &baseline {
        if !results.iter().any(|e| e.op == *op && e.shape == *shape) {
            eprintln!("{op:<26} {shape:<22} missing from this run  REGRESSED");
            regressed = true;
        }
    }
    regressed
}

fn sine_series(dim: usize, len: usize) -> TimeSeries {
    let mut s = TimeSeries::empty(dim);
    let mut obs = vec![0.0f32; dim];
    for t in 0..len {
        for (d, o) in obs.iter_mut().enumerate() {
            *o = ((t as f32) * 0.3 + d as f32 * 0.7).sin();
        }
        s.push(&obs);
    }
    s
}

fn main() {
    match arg_value("--threads").map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => par::set_threads(n),
        Some(Err(e)) => panic!("invalid --threads: {e}"),
        None => par::use_all_cores(),
    }
    if arg_flag("--force-scalar") {
        simd::set_force_scalar(true);
    }
    let budget = Duration::from_millis(
        arg_value("--budget-ms").map_or(100, |v| v.parse::<u64>().expect("invalid --budget-ms")),
    );
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_tensor.json".to_string());
    let threads = par::threads();
    let isa = simd::active_name();
    eprintln!("perf_report: {threads} threads, {isa} kernels, {budget:?} budget per op\n");

    let mut rng = StdRng::seed_from_u64(HARNESS_SEED);
    let mut results: Vec<Entry> = Vec::new();

    // --- Tensor kernels -------------------------------------------------
    let a64 = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    let b64 = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    results.push(bench("matmul", "64x64x64", budget, || {
        a64.matmul(&b64).recycle();
    }));

    let a256 = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let b256 = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    results.push(bench("matmul", "256x256x256", budget, || {
        a256.matmul(&b256).recycle();
    }));

    // Attention-shaped batched products: (B, w, D') x (B, w, D')^T.
    let z = Tensor::rand_uniform(&[32, 16, 32], -1.0, 1.0, &mut rng);
    let e = Tensor::rand_uniform(&[32, 16, 32], -1.0, 1.0, &mut rng);
    results.push(bench("bmm_nt", "32x16x32", budget, || {
        z.bmm_nt(&e).recycle();
    }));
    let scores = Tensor::rand_uniform(&[32, 16, 16], -1.0, 1.0, &mut rng).softmax_last();
    results.push(bench("bmm", "32x16x16·32x16x32", budget, || {
        scores.bmm(&e).recycle();
    }));

    // CAE-shaped convolutions: batch 32, 32 channels, window 16, K = 3.
    let x = Tensor::rand_uniform(&[32, 32, 16], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[32, 32, 3], -1.0, 1.0, &mut rng);
    let g = Tensor::rand_uniform(&[32, 32, 16], -1.0, 1.0, &mut rng);
    results.push(bench("conv1d_same", "32x32x16 k3", budget, || {
        x.conv1d(&w, Padding::Same).recycle();
    }));
    results.push(bench("conv1d_causal", "32x32x16 k3", budget, || {
        x.conv1d(&w, Padding::Causal).recycle();
    }));
    results.push(bench("conv1d_input_grad", "32x32x16 k3", budget, || {
        Tensor::conv1d_input_grad(&g, &w, Padding::Same).recycle();
    }));
    results.push(bench("conv1d_kernel_grad", "32x32x16 k3", budget, || {
        Tensor::conv1d_kernel_grad(&x, &g, 3, Padding::Same).recycle();
    }));

    let big = Tensor::rand_uniform(&[64, 32, 64], -1.0, 1.0, &mut rng);
    results.push(bench("softmax_last", "32x16x16", budget, || {
        scores.softmax_last().recycle();
    }));
    results.push(bench("sum_axis0", "64x32x64", budget, || {
        big.sum_axis0().recycle();
    }));

    // Pool dispatch overhead: trivial per-chunk work on a large buffer —
    // the submitter's side of a job (publish, claim, join). The tasks are
    // so short that the submitter usually claims every span before a
    // parked worker wakes, so this is not the cost of waking a worker;
    // `pool_fork_join` below measures that.
    let mut dispatch_buf = vec![0.0f32; 1 << 16];
    results.push(bench("pool_dispatch", "65536/1024", budget, || {
        par::for_each_chunk(&mut dispatch_buf, 1024, |bi, chunk| {
            chunk[0] = bi as f32;
        });
    }));

    // Fork-join latency: 2 tasks of fixed arithmetic (about 20 µs each on
    // one 2.1 GHz Xeon core), so both threads of a 2-thread pool must
    // take part. Back to back, workers find each job while they spin;
    // after an idle gap longer than `par::SPIN_WINDOW` they have parked
    // and the job pays their wake-up.
    let fork_join = || {
        par::for_each_index(2, |i| {
            std::hint::black_box(fixed_arithmetic(i));
        });
    };
    results.push(bench("pool_fork_join", "2x20us", budget, fork_join));
    let gap = Duration::from_millis(1);
    assert!(gap > par::SPIN_WINDOW, "the idle gap must outlast the spin");
    results.push(bench_after_gap(
        "pool_fork_join",
        "2x20us after 1ms idle",
        budget,
        gap,
        fork_join,
    ));

    // --- One training step of the CAE basic model -----------------------
    // The step `train_member` runs, reached through the real path: a
    // one-member, one-epoch fit over exactly one batch of 32 windows (47
    // observations at stride 1) of the paper-shaped model (D' = 24,
    // w = 16, 2 layers). Besides the two-shard forward and backward, the
    // gradient clip and the Adam step, it pays the fit's set-up: the
    // scaler, the Xavier init and the shards' tapes.
    let step_series = sine_series(4, 32 + 16 - 1);
    results.push(bench(
        "training_step",
        "fit M1 B32 w16 D'24 L2",
        budget,
        || {
            let mc = CaeConfig::new(4).embed_dim(24).window(16).layers(2);
            let ec = EnsembleConfig::new()
                .num_models(1)
                .epochs_per_model(1)
                .batch_size(32)
                .train_stride(1)
                .seed(HARNESS_SEED);
            let mut ens = CaeEnsemble::new(mc, ec);
            ens.fit(&step_series);
        },
    ));

    // --- Optimizer step and training noise ------------------------------
    // One Adam step over a model's parameters: the gradients are
    // re-accumulated first, as `Tape::accumulate_param_grads` does every
    // training step, so the moments stay at a steady magnitude instead of
    // decaying towards subnormals over the repetitions.
    let adam_step = |op_shape: &str, store: &mut ParamStore, rng: &mut StdRng| {
        let grads: Vec<Tensor> = store
            .ids()
            .map(|id| Tensor::rand_uniform(store.value(id).dims(), -1e-2, 1e-2, rng))
            .collect();
        let mut opt = Adam::new(store, 1e-3);
        let shape = format!("{op_shape} ({} params)", store.num_scalars());
        bench("adam_step", shape, budget, || {
            for (id, g) in store.ids().zip(&grads) {
                store.accumulate_grad(id, g);
            }
            opt.step(store);
        })
    };
    let mut store = ParamStore::new();
    let cfg = CaeConfig::new(4).embed_dim(24).window(16).layers(2);
    let _model = Cae::new(cfg, &mut store, &mut rng);
    results.push(adam_step("D'24 L2 D4", &mut store, &mut rng));
    // The paper architecture (D' = 256, L = 10, D = 38 as for SMD).
    let mut paper_store = ParamStore::new();
    let paper_cfg = CaeConfig::new(38).embed_dim(256).window(16).layers(10);
    let _paper_model = Cae::new(paper_cfg, &mut paper_store, &mut rng);
    results.push(adam_step("D'256 L10 D38", &mut paper_store, &mut rng));
    drop(paper_store);

    // The denoising noise of one training batch (B = 32, w = 16, D = 38).
    results.push(bench("rand_normal", "32x16x38", budget, || {
        Tensor::rand_normal(&[32, 16, 38], 0.0, 0.1, &mut rng).recycle();
    }));

    // --- Full-ensemble training & inference ------------------------------
    let series = sine_series(4, 600);
    let ens_budget = budget.max(Duration::from_millis(400));
    results.push(bench(
        "ensemble_fit",
        "5 members, 600 obs",
        ens_budget,
        || {
            let mc = CaeConfig::new(4).embed_dim(24).window(16).layers(2);
            let ec = EnsembleConfig::new()
                .num_models(5)
                .epochs_per_model(1)
                .train_stride(8)
                .seed(HARNESS_SEED);
            let mut ens = CaeEnsemble::new(mc, ec);
            ens.fit(&series);
        },
    ));

    let mc = CaeConfig::new(4).embed_dim(24).window(16).layers(2);
    let ec = EnsembleConfig::new()
        .num_models(5)
        .epochs_per_model(2)
        .train_stride(8)
        .seed(HARNESS_SEED);
    let mut ens = CaeEnsemble::new(mc, ec);
    ens.fit(&series);
    let test = sine_series(4, 256);
    results.push(bench(
        "ensemble_inference",
        "5 members, 256 obs",
        budget,
        || {
            std::hint::black_box(ens.score(&test));
        },
    ));

    // `offline`'s latency probe: one `score` of 79 observations (64
    // windows) by a 5-member ensemble at D = 38, i.e. one last-position
    // forward of 64 windows and one all-position forward of window 0 per
    // member.
    let mut probe_ens = CaeEnsemble::new(
        CaeConfig::new(38).embed_dim(24).window(16).layers(2),
        EnsembleConfig::new()
            .num_models(5)
            .epochs_per_model(1)
            .train_stride(8)
            .seed(HARNESS_SEED),
    );
    probe_ens.fit(&sine_series(38, 200));
    let probe = sine_series(38, 79);
    results.push(bench(
        "score_probe",
        "5 members, D38, 79 obs",
        budget,
        || {
            std::hint::black_box(probe_ens.score(&probe));
        },
    ));
    drop(probe_ens);

    // --- Ensemble-level scoring primitives --------------------------------
    // The model-free steps around the member forwards: the Eq. 15 median
    // over members, the Figure 10 window→series protocol (first window
    // scores every position, later windows their last), and the Eq. 9–10
    // diversity metric the trainer's anchors and Table 6 evaluate.
    let mut random_scores = |models: usize, len: usize| -> Vec<Vec<f32>> {
        (0..models)
            .map(|_| (0..len).map(|_| rng.gen_range(0.0f32..10.0)).collect())
            .collect()
    };
    let per_model = random_scores(8, 10_000);
    let outputs = random_scores(8, 50_000);
    let window_errors: Vec<f32> = (0..10_000 * 16).map(|_| rng.gen_range(0.0..1.0)).collect();
    results.push(bench("median_scores", "8 models, 10k obs", budget, || {
        std::hint::black_box(median_scores(&per_model));
    }));
    results.push(bench("window_protocol", "10k windows, w16", budget, || {
        std::hint::black_box(series_scores_from_window_errors(&window_errors, 10_000, 16));
    }));
    results.push(bench("pairwise_diversity", "50k outputs", budget, || {
        std::hint::black_box(pairwise_diversity(&outputs[0], &outputs[1]));
    }));
    results.push(bench("ensemble_diversity", "8 models, 50k", budget, || {
        std::hint::black_box(ensemble_diversity(&outputs));
    }));

    // --- Serving: per-stream streaming vs fleet-batched ticks ------------
    // The same workload — 64 concurrent streams, one observation each per
    // round — served two ways. `streaming_push` is the per-stream
    // deployment: 64 independent `StreamingDetector`s, each push running
    // M batch-size-1 forwards (and each detector dragging its own ring,
    // window tensor and tape through the cache). `fleet_tick` pools all
    // 64 ready windows into one (64, w, D) batch per member, so the same
    // 64 observations ride the packed GEMM path at full batch width.
    // Both sides are warmed past the w-observation ring fill (and to the
    // scratch pool's steady state) before timing.
    const FLEET_STREAMS: usize = 64;
    let fleet_obs = |t: usize, k: usize, obs: &mut [f32; 4]| {
        for (d, o) in obs.iter_mut().enumerate() {
            *o = ((t as f32) * 0.3 + (d + k) as f32 * 0.7).sin();
        }
    };

    let mut detectors: Vec<StreamingDetector> = (0..FLEET_STREAMS)
        .map(|_| StreamingDetector::new(&ens))
        .collect();
    let mut obs = [0.0f32; 4];
    let mut t = 0usize;
    for _ in 0..16 {
        t += 1;
        for (k, det) in detectors.iter_mut().enumerate() {
            fleet_obs(t, k, &mut obs);
            det.push(&obs);
        }
    }
    results.push(bench(
        "streaming_push",
        "64 streams, B=1",
        ens_budget,
        || {
            t += 1;
            for (k, det) in detectors.iter_mut().enumerate() {
                fleet_obs(t, k, &mut obs);
                std::hint::black_box(det.push(&obs));
            }
        },
    ));

    let ens = std::sync::Arc::new(ens);
    let mut fleet = FleetDetector::new(ens.clone());
    let ids: Vec<StreamId> = (0..FLEET_STREAMS).map(|_| fleet.add_stream()).collect();
    let mut out = Vec::new();
    let mut ft = 0usize;
    for _ in 0..16 {
        ft += 1;
        for (k, &id) in ids.iter().enumerate() {
            fleet_obs(ft, k, &mut obs);
            fleet.push(id, &obs).expect("live stream");
        }
        fleet.tick(&mut out);
    }
    results.push(bench(
        "fleet_tick",
        "64 streams, 5 members",
        ens_budget,
        || {
            ft += 1;
            for (k, &id) in ids.iter().enumerate() {
                fleet_obs(ft, k, &mut obs);
                fleet.push(id, &obs).expect("live stream");
            }
            fleet.tick(&mut out);
            std::hint::black_box(out.len());
        },
    ));

    // --- Observability: metric hit and instrumented serving --------------
    // obs_counter_hit is the enabled-registry fast path every
    // instrumented site pays when telemetry is on: one Relaxed
    // fetch_add through a retained handle. fleet_tick_instrumented is
    // the same workload as fleet_tick with a live registry attached
    // (per-push and per-tick latency timers, batch-occupancy histogram,
    // buffered-windows gauge); the committed baselines keep the
    // instrumented op within the same gate as the rest, pinning the
    // "enabled telemetry costs ≤5% of a tick" claim.
    let obs_registry = MetricsRegistry::new();
    let obs_counter = obs_registry.counter("bench_counter_hits_total");
    results.push(bench("obs_counter_hit", "enabled, relaxed", budget, || {
        obs_counter.inc();
    }));

    let mut ifleet =
        FleetDetector::with_observability(ens.clone(), HealthConfig::default(), &obs_registry);
    let iids: Vec<StreamId> = (0..FLEET_STREAMS).map(|_| ifleet.add_stream()).collect();
    let mut it = 0usize;
    for _ in 0..16 {
        it += 1;
        for (k, &id) in iids.iter().enumerate() {
            fleet_obs(it, k, &mut obs);
            ifleet.push(id, &obs).expect("live stream");
        }
        ifleet.tick(&mut out);
    }
    results.push(bench(
        "fleet_tick_instrumented",
        "64 streams, 5 members",
        ens_budget,
        || {
            it += 1;
            for (k, &id) in iids.iter().enumerate() {
                fleet_obs(it, k, &mut obs);
                ifleet.push(id, &obs).expect("live stream");
            }
            ifleet.tick(&mut out);
            std::hint::black_box(out.len());
        },
    ));

    // --- Online adaptation: warm re-fit and hot swap ---------------------
    // refit_warm is the background-thread workload of `cae-adapt`: a
    // one-epoch warm-started re-fit of the live 5-member ensemble on a
    // 240-observation reservoir, diversity term anchored to the live
    // ensemble. ensemble_swap is the publish step — a generation-tagged
    // Arc pointer exchange on the serving fleet. Timing it pins the
    // "swap never blocks a tick" property: regressions that sneak real
    // work into the swap path show up as orders of magnitude, not
    // percent.
    let recent = sine_series(4, 240);
    results.push(bench(
        "refit_warm",
        "5 members, 240 obs",
        ens_budget,
        || {
            std::hint::black_box(ens.refit_warm(&recent, 1, HARNESS_SEED));
        },
    ));

    let next = std::sync::Arc::new(ens.refit_warm(&recent, 1, HARNESS_SEED));
    results.push(bench("ensemble_swap", "64 streams", budget, || {
        std::hint::black_box(fleet.swap_ensemble(next.clone()));
    }));

    // --- Durability: write-ahead journal and snapshot restore ------------
    // journal_append is the WAL hot path every served observation crosses
    // under the journal-then-apply discipline: frame encode + checksum +
    // buffered write, OS-flushed (the default policy; fsync cadence is a
    // deployment knob). fleet_restore is the recovery-time cost of
    // rebuilding the full 64-stream fleet — rings, health machines,
    // counters — from a decoded snapshot; it bounds restart latency
    // together with journal replay.
    {
        use cae_data::{JournalConfig, JournalRecord, ObservationJournal};
        let dir = std::env::temp_dir().join(format!("cae_perf_journal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal =
            ObservationJournal::open(&dir, JournalConfig::new()).expect("bench journal");
        let record = JournalRecord::Observation {
            slot: 7,
            generation: 3,
            values: vec![0.25, -0.5, 0.75, -1.0],
        };
        results.push(bench(
            "journal_append",
            "obs dim4, 1MiB seg",
            budget,
            || {
                std::hint::black_box(journal.append(&record).expect("bench append"));
            },
        ));
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);

        let snap = fleet.snapshot();
        results.push(bench("fleet_restore", "64 streams", budget, || {
            std::hint::black_box(
                FleetDetector::restore(next.clone(), &snap).expect("bench restore"),
            );
        }));
    }

    // The serving headline: per-observation throughput of the batched
    // fleet path relative to per-stream pushes over the same 64 streams.
    {
        let per_iter = |op: &str| {
            results
                .iter()
                .find(|e| e.op == op)
                .map(|e| e.ns_per_iter)
                .expect("op was just benchmarked")
        };
        let push_ns_per_obs = per_iter("streaming_push") as f64 / FLEET_STREAMS as f64;
        let tick_ns_per_obs = per_iter("fleet_tick") as f64 / FLEET_STREAMS as f64;
        eprintln!(
            "\nserving {FLEET_STREAMS} streams: fleet_tick {tick_ns_per_obs:.0} ns/observation \
             vs per-stream push {push_ns_per_obs:.0} ns/observation — \
             {:.2}x per-observation throughput",
            push_ns_per_obs / tick_ns_per_obs
        );
        let plain = per_iter("fleet_tick") as f64;
        let instrumented = per_iter("fleet_tick_instrumented") as f64;
        eprintln!(
            "telemetry overhead: fleet_tick_instrumented / fleet_tick = {:+.1}%",
            (instrumented / plain - 1.0) * 100.0
        );
    }

    // --- Emit JSON -------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"version\": 2,\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"pool_workers_spawned\": {},\n",
        par::pool_threads_spawned()
    ));
    json.push_str(&format!("  \"isa\": \"{isa}\",\n"));
    json.push_str("  \"results\": [\n");
    for (i, e) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"shape\": \"{}\", \"iters\": {}, \"ns_per_iter\": {}}}{comma}\n",
            e.op, e.shape, e.iters, e.ns_per_iter
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("failed to write benchmark JSON");
    println!("{json}");
    eprintln!("wrote {out_path}");

    // --- Optional regression gate ----------------------------------------
    if let Some(baseline_path) = arg_value("--baseline") {
        let max_regress_pct = arg_value("--max-regress-pct").map_or(15.0, |v| {
            v.parse::<f64>().expect("invalid --max-regress-pct")
        });
        if compare_to_baseline(&results, &baseline_path, max_regress_pct) {
            eprintln!("perf regression beyond {max_regress_pct}% detected");
            std::process::exit(1);
        }
        eprintln!("no op regressed beyond {max_regress_pct}%");
    }
}
