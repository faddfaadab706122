//! Calibration: a fixed kernel owned by the benchmark, timed between
//! pieces of measured work, that end-to-end timings are scaled by.
//!
//! The machines this runs on change speed by ±20–40% over tens of seconds
//! (other tenants' load on shared cores). A timing taken in a slow stretch
//! reads slow even though the code did not change. The calibration kernel
//! — a 32×256 · 256×32 product with AVX2 FMA where available, written here
//! so that no change to the repository can speed it up — slows down with
//! the machine. Every end-to-end timing is reported at reference speed:
//!
//! ```text
//! reported = measured × REF_NS / calib
//! ```
//!
//! where `calib` is the median of the calibration samples taken within a
//! quarter second of the measured interval. The raw timings and `calib` itself go
//! to the run's context line, so a throttled run stays visible.

use crate::stats::median;
use std::time::Instant;

/// Calibration time the reported timings are scaled to: about this
/// kernel's median time on the 2-vCPU, 2.1 GHz AVX2 machine the benchmark
/// was tuned on, so reported and raw timings read alike there.
pub const REF_NS: f64 = 45_000.0;

const M: usize = 32;
const K: usize = 256;
const N: usize = 32;
/// Samples within this many seconds of an interval calibrate it.
const WINDOW_S: f64 = 0.25;
/// Fewest samples a calibration window uses (widened to the nearest).
const MIN_SAMPLES: usize = 5;

/// `c += a·b` for row-major `a` (M×K), `b` (K×N), `c` (M×N).
fn product(a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU supports AVX2 and FMA (checked just above),
            // which is all `product_fma` requires.
            unsafe { product_fma(a, b, c) };
            return;
        }
    }
    for i in 0..M {
        for k in 0..K {
            let x = a[i * K + k];
            for j in 0..N {
                c[i * N + j] += x * b[k * N + j];
            }
        }
    }
}

/// [`product`] compiled for AVX2 + FMA (the inner loop vectorizes to
/// fused multiply-adds).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn product_fma(a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..M {
        let row = &mut c[i * N..(i + 1) * N];
        for k in 0..K {
            let x = a[i * K + k];
            let brow = &b[k * N..(k + 1) * N];
            for j in 0..N {
                row[j] = x.mul_add(brow[j], row[j]);
            }
        }
    }
}

/// Timestamped calibration samples of one run.
#[derive(Debug)]
pub struct Calibration {
    origin: Instant,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    /// `(seconds since origin, kernel ns)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            origin: Instant::now(),
            a: (0..M * K).map(|i| (i % 7) as f32 * 0.1).collect(),
            b: (0..K * N).map(|i| (i % 5) as f32 * 0.2).collect(),
            c: vec![0.0; M * N],
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        self.c.fill(0.0);
        let t = Instant::now();
        product(&self.a, &self.b, &mut self.c);
        std::hint::black_box(&self.c);
        let ns = t.elapsed().as_nanos() as f64;
        self.samples.push((self.origin.elapsed().as_secs_f64(), ns));
    }

    /// Times the kernel `n` times back to back.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median kernel time over the whole run, in ns.
    pub fn median_ns(&self) -> f64 {
        let ns: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&ns)
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Median kernel time around `[from, to]`: the samples within
    /// [`WINDOW_S`] of it, or the [`MIN_SAMPLES`] nearest if fewer.
    pub fn around_ns(&self, from: Instant, to: Instant) -> f64 {
        let (lo, hi) = (self.secs(from) - WINDOW_S, self.secs(to) + WINDOW_S);
        let start = self.samples.partition_point(|s| s.0 < lo);
        let end = self.samples.partition_point(|s| s.0 <= hi);
        if end - start >= MIN_SAMPLES || self.samples.len() <= MIN_SAMPLES {
            let ns: Vec<f64> = self.samples[start..end].iter().map(|s| s.1).collect();
            return if ns.is_empty() {
                self.median_ns()
            } else {
                median(&ns)
            };
        }
        let mid = 0.5 * (lo + hi);
        let mut by_distance: Vec<&(f64, f64)> = self.samples.iter().collect();
        by_distance.sort_by(|x, y| (x.0 - mid).abs().total_cmp(&(y.0 - mid).abs()));
        let ns: Vec<f64> = by_distance[..MIN_SAMPLES].iter().map(|s| s.1).collect();
        median(&ns)
    }

    /// `raw` (a time measured over `[from, to]`) at reference speed.
    pub fn scale(&self, raw: f64, from: Instant, to: Instant) -> f64 {
        raw * REF_NS / self.around_ns(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn kernel_matches_the_scalar_product() {
        let a: Vec<f32> = (0..M * K).map(|i| (i % 3) as f32).collect();
        let b: Vec<f32> = (0..K * N).map(|i| (i % 2) as f32).collect();
        let mut c = vec![0.0; M * N];
        product(&a, &b, &mut c);
        let mut expected = 0.0;
        for k in 0..K {
            expected += a[k] * b[k * N];
        }
        assert_eq!(c[0], expected);
    }

    fn with_samples(samples: &[(f64, f64)]) -> Calibration {
        Calibration {
            samples: samples.to_vec(),
            ..Calibration::default()
        }
    }

    #[test]
    fn scaling_uses_the_samples_around_the_interval() {
        // A slow stretch (2× the reference) from 10 s on.
        let mut samples: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, REF_NS)).collect();
        samples.extend((100..200).map(|i| (i as f64 * 0.1, 2.0 * REF_NS)));
        let cal = with_samples(&samples);
        let at = |s: f64| cal.origin + Duration::from_secs_f64(s);
        assert_eq!(cal.scale(10.0, at(3.0), at(4.0)), 10.0);
        assert_eq!(cal.scale(10.0, at(15.0), at(16.0)), 5.0);
    }

    #[test]
    fn sparse_samples_widen_to_the_nearest() {
        let cal = with_samples(&[
            (0.0, 1.0),
            (1.0, 2.0),
            (50.0, 3.0),
            (51.0, 4.0),
            (52.0, 5.0),
            (90.0, 6.0),
            (99.0, 7.0),
        ]);
        let at = |s: f64| cal.origin + Duration::from_secs_f64(s);
        // Nothing within a second of 70–71 s: the five nearest are
        // 50, 51, 52, 90 and 99 s (tie-broken by time order).
        assert_eq!(cal.around_ns(at(70.0), at(71.0)), 5.0);
    }
}
