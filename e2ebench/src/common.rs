//! What every workload shares: the paper-shaped model, the metric
//! catalogue and its output, check accounting, and run context probes.

use crate::calib::Calibration;
use crate::stats::{median, percentile, tail, Tail};
use cae_core::{CaeConfig, CaeEnsemble, EnsembleConfig, RefitOptions};
use cae_data::{Detector, TimeSeries};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Paper-shaped basic model: D′ = 24, w = 16, L = 2, k = 3, attention on.
pub fn model_config(dim: usize) -> CaeConfig {
    CaeConfig::new(dim)
        .embed_dim(24)
        .window(crate::inputs::WINDOW)
        .layers(2)
        .kernel_size(3)
        .attention(true)
}

/// Members of every ensemble.
pub const MEMBERS: usize = 5;
/// Training batch of the ensemble configuration (windows).
pub const TRAIN_BATCH: usize = 32;
/// Warm re-fit epochs: a 240-observation re-fit then spans about a
/// second of serving ticks.
pub const REFIT_EPOCHS: usize = 12;

/// The diversity-driven 5-member ensemble with parameter transfer,
/// trained for 5 epochs at stride 6 (the paper's batch setting, scaled).
pub fn ensemble_config(seed: u64) -> EnsembleConfig {
    EnsembleConfig::new()
        .num_models(MEMBERS)
        .epochs_per_model(5)
        .train_stride(6)
        .batch_size(TRAIN_BATCH)
        .seed(seed)
}

/// Warm re-fit options used wherever the benchmark re-fits.
pub fn refit_options(seed: u64) -> RefitOptions {
    RefitOptions::warm(REFIT_EPOCHS, seed ^ 0x52_4546_4954)
}

/// ROC AUC below which an `offline`-style score fails the quality check.
pub const AUC_FLOOR: f64 = 0.7;

/// Raw and scaled samples of single-shot phases (fit, score, re-fit,
/// set-up), each reported as the median of its samples.
#[derive(Debug, Default)]
pub struct Shots(BTreeMap<&'static str, Vec<(f64, f64)>>);

impl Shots {
    /// Runs `f` between two calibration bursts as one timed sample of
    /// `name`, and returns its output.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        calib: &mut Calibration,
        f: impl FnOnce() -> T,
    ) -> T {
        calib.burst(CALIB_BURST);
        let from = Instant::now();
        let out = f();
        let to = Instant::now();
        calib.burst(CALIB_BURST);
        let raw = (to - from).as_secs_f64();
        let scaled = calib.scale(raw, from, to);
        self.0.entry(name).or_default().push((raw, scaled));
        out
    }

    /// Medians of the raw and scaled samples of `name`.
    pub fn medians(&self, name: &str) -> (f64, f64) {
        let v = self.0.get(name).map_or(&[][..], Vec::as_slice);
        let raw: Vec<f64> = v.iter().map(|s| s.0).collect();
        let scaled: Vec<f64> = v.iter().map(|s| s.1).collect();
        (median(&raw), median(&scaled))
    }

    /// Sets every phase's metric to its medians.
    pub fn record(&self, m: &mut Metrics) {
        for name in self.0.keys() {
            let (raw, scaled) = self.medians(name);
            m.set_timing(name, raw, scaled);
        }
    }
}

/// Fits a fresh ensemble on `train` as one `fit_s` sample.
pub fn fit(
    shots: &mut Shots,
    calib: &mut Calibration,
    train: &TimeSeries,
    seed: u64,
) -> CaeEnsemble {
    let mut ens = CaeEnsemble::new(model_config(train.dim()), ensemble_config(seed));
    shots.time("fit_s", calib, || ens.fit(train));
    ens
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

pub fn ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// One metric of the catalogue: name, unit and which direction is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Checked against `BENCHMARK.json` by the catalogue test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them (see README.md for each one's definition per
/// workload).
pub const END_TO_END: &[MetricDef] = &[
    def("tick_p50_ms", "ms", "lower"),
    def("tick_p99_ms", "ms", "lower"),
    def("obs_per_s", "1/s", "higher"),
    def("refit_s", "s", "lower"),
    def("fit_s", "s", "lower"),
    def("score_s", "s", "lower"),
    def("roc_auc", "1", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("serve.push_ns", "ns", "lower"),
    def("serve.tick_self_ms", "ms", "lower"),
    def("serve.batch_windows", "count", "higher"),
    def("serve.snapshot_ms", "ms", "lower"),
    def("serve.swap_ns", "ns", "lower"),
    def("serve.discarded_obs", "count", "lower"),
    def("serve.quarantines", "count", "lower"),
    def("core.score_batch_ms", "ms", "lower"),
    def("core.member_forward_ms", "ms", "lower"),
    def("core.score_agg_ms", "ms", "lower"),
    def("core.train_step_ms", "ms", "lower"),
    def("core.refit_alone_s", "s", "lower"),
    def("core.diversity", "1", "higher"),
    def("nn.embed_ms", "ms", "lower"),
    def("nn.enc_glu_ms", "ms", "lower"),
    def("nn.dec_glu_ms", "ms", "lower"),
    def("nn.recon_glu_ms", "ms", "lower"),
    def("nn.conv_ms", "ms", "lower"),
    def("nn.recon_head_ms", "ms", "lower"),
    def("nn.adam_ms", "ms", "lower"),
    def("autograd.attention_ms", "ms", "lower"),
    def("autograd.transpose_ms", "ms", "lower"),
    def("autograd.tape_nodes", "count", "lower"),
    def("autograd.backward_ms", "ms", "lower"),
    def("tensor.gemm_packed_calls", "count", "lower"),
    def("tensor.gemm_scalar_calls", "count", "lower"),
    def("tensor.madds_per_tick", "count", "lower"),
    def("tensor.bytes_per_tick", "B", "lower"),
    def("tensor.madds_per_train_step", "count", "lower"),
    def("tensor.gmadd_per_s", "Gmadd/s", "higher"),
    def("tensor.kernel_grad_ms", "ms", "lower"),
    def("tensor.pool_threads", "count", "lower"),
    def("tensor.calib_ns", "ns", "lower"),
    def("data.journal_append_p50_us", "us", "lower"),
    def("data.journal_append_p99_us", "us", "lower"),
    def("data.journal_bytes_per_obs", "B", "lower"),
    def("data.journal_segments", "count", "lower"),
    def("adapt.observe_p50_ns", "ns", "lower"),
    def("adapt.observe_p99_ns", "ns", "lower"),
    def("adapt.poll_ns", "ns", "lower"),
    def("adapt.trip_delay_ticks", "count", "lower"),
    def("adapt.refits_completed", "count", "higher"),
    def("adapt.refits_failed", "count", "lower"),
    def("obs.scrape_us", "us", "lower"),
    def("bench.start_lag_p99_ms", "ms", "lower"),
    def("bench.trace_overhead_pct", "%", "lower"),
    def("bench.stage_coverage", "1", "higher"),
];

/// Metric values of one run, keyed by catalogue name, plus the raw
/// (unscaled) value of every end-to-end timing.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    raw: BTreeMap<&'static str, f64>,
    /// The tick latency tail: the percentile the rule reached and the
    /// sample count it was read from.
    pub tick_tail: Option<Tail>,
    /// `serve_drift`'s wall-clock tick latency from each tick's due time,
    /// median and p99 in ms, for the context line.
    pub wall_from_due_ms: Option<(f64, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// A timing reported at reference speed, with its raw value kept for
    /// the context line.
    pub fn set_timing(&mut self, name: &'static str, raw: f64, scaled: f64) {
        self.set(name, scaled);
        self.raw.insert(name, raw);
    }

    /// The raw value of a timing set with [`Metrics::set_timing`].
    pub fn raw(&self, name: &str) -> f64 {
        self.raw.get(name).copied().unwrap_or(f64::NAN)
    }

    /// The raw timings as a JSON object.
    pub fn raw_json(&self) -> String {
        let fields: Vec<String> = self
            .raw
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\": {}",
                    if v.is_finite() {
                        v.to_string()
                    } else {
                        "null".into()
                    }
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The catalogue entries this run must report, missing or non-finite
    /// values counted as failed checks, rendered as the `metrics` object.
    pub fn render(&self, catalogue: &[MetricDef], checks: &mut Checks) -> String {
        let mut out = String::from("{");
        for (i, d) in catalogue.iter().enumerate() {
            let value = self.get(d.name);
            let ok = value.is_some_and(f64::is_finite);
            checks.check(ok, || format!("metric {} missing or not finite", d.name));
            let shown = match value {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_string(),
            };
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {shown}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push('}');
        out
    }
}

/// Correctness accounting: every checked operation is attempted once and
/// either passes or counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Records `tick_p50_ms` and `tick_p99_ms` from per-tick `(start, ms)`
/// latencies — each scaled by the calibration around it when `calib` is
/// given — and checks that the tail rule reaches p99.
pub fn record_ticks(
    m: &mut Metrics,
    checks: &mut Checks,
    calib: Option<&Calibration>,
    ticks: &[(Instant, f64)],
) {
    let raw: Vec<f64> = ticks.iter().map(|t| t.1).collect();
    let scaled: Vec<f64> = match calib {
        Some(c) => ticks
            .iter()
            .map(|&(from, ms)| c.scale(ms, from, from + Duration::from_secs_f64(ms / 1e3)))
            .collect(),
        None => raw.clone(),
    };
    m.tick_tail = tail(&scaled);
    match m.tick_tail {
        Some(t) => checks.check(t.percentile >= 99.0, || {
            format!("only p{} has ten samples beyond it", t.percentile)
        }),
        None => checks.check(false, || "too few ticks for a tail".to_string()),
    }
    m.set_timing("tick_p50_ms", median(&raw), median(&scaled));
    m.set_timing(
        "tick_p99_ms",
        percentile(&raw, 99.0),
        percentile(&scaled, 99.0),
    );
}

/// Calibration samples taken before and after a timed phase.
pub const CALIB_BURST: usize = 5;

/// Scratch directory of one run inside the working directory, removed
/// when dropped.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = work_root().join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark keeps run files and span dumps.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Finite-score and quality checks on a batch `score` output.
pub fn check_scores(checks: &mut Checks, scores: &[f32], labels: &[bool]) -> f64 {
    checks.check(scores.len() == labels.len(), || {
        format!("{} scores for {} labels", scores.len(), labels.len())
    });
    let finite = scores.iter().all(|s| s.is_finite());
    checks.check(finite, || "non-finite batch score".to_string());
    let auc = cae_metrics::roc_auc(scores, labels);
    checks.check(auc >= AUC_FLOOR, || {
        format!("roc_auc {auc} below {AUC_FLOOR}")
    });
    auc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "stray metric or workload"
        );
        for w in ["serve_steady", "serve_drift", "offline"] {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "workload {w}"
            );
        }
    }

    #[test]
    fn render_reports_every_catalogue_metric_and_flags_gaps() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        m.set("fit_s", f64::NAN);
        let mut checks = Checks::default();
        let out = m.render(END_TO_END, &mut checks);
        assert_eq!(checks.attempted, END_TO_END.len() as u64);
        assert_eq!(checks.failed, 1, "the NaN metric fails");
        assert!(
            out.contains("\"fit_s\": {\"value\": null, \"unit\": \"s\"}"),
            "{out}"
        );
        assert!(
            out.contains("\"tick_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"),
            "{out}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        Metrics::default().set("no_such_metric", 1.0);
    }
}
