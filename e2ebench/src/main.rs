//! `e2ebench` — the end-to-end benchmark of the CAE-Ensemble workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Generates the workload's inputs from the seed, runs it for about the
//! given number of seconds, checks the outputs, and prints one JSON object
//! as the last line of standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, timed around public
//! calls only; with `--trace 1` they are the per-layer ones, and every
//! span is written to `.bench_work/trace-<workload>-<seed>.json`. A line
//! before it records the run's context. See README.md.

mod calib;
mod common;
mod cpu;
mod drift;
mod inputs;
mod layers;
mod offline;
mod schedule;
mod side;
mod stats;
mod steady;
mod trace;
mod work;

use common::{peak_rss_mb, work_root, Checks, Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve_steady", "serve_drift", "offline"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <serve_steady|serve_drift|offline> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_root()) {
        eprintln!("e2ebench: cannot create {}: {e}", work_root().display());
        return ExitCode::from(1);
    }

    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let (tracer, fingerprint) = match args.workload.as_str() {
        "serve_steady" => steady::run(seed, seconds, trace, &mut metrics, &mut checks),
        "serve_drift" => drift::run(seed, seconds, trace, &mut metrics, &mut checks),
        _ => offline::run(seed, seconds, trace, &mut metrics, &mut checks),
    };
    metrics.set("peak_rss_mb", peak_rss_mb());

    if trace {
        let path = work_root().join(format!("trace-{}-{seed}.json", args.workload));
        let written = tracer.write_json(&path);
        checks.check(written.is_ok(), || {
            format!("writing {}: {written:?}", path.display())
        });
    }

    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"available_parallelism\": {parallelism}, \"simd\": \"{}\", \
         \"pool_threads\": {}, \"pool_workers_spawned\": {}, \"calib_ns\": {}, \
         \"inputs_fingerprint\": \"{fingerprint:016x}\", \"tick_tail\": {}, \
         \"wall_from_due_ms\": {}, \"raw\": {}}}}}",
        args.workload,
        u8::from(trace),
        cae_tensor::simd::active_name(),
        cae_tensor::par::threads(),
        cae_tensor::par::pool_threads_spawned(),
        metrics.get("tensor.calib_ns").unwrap_or(f64::NAN),
        metrics.tick_tail.map_or("null".to_string(), |t| format!(
            "{{\"percentile\": {}, \"samples\": {}}}",
            t.percentile, t.samples
        )),
        metrics
            .wall_from_due_ms
            .map_or("null".to_string(), |(p50, p99)| format!(
                "{{\"p50\": {p50}, \"p99\": {p99}}}"
            )),
        metrics.raw_json(),
    );
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let rendered = metrics.render(catalogue, &mut checks);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {rendered}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    ExitCode::SUCCESS
}
