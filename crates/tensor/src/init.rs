//! Seeded random tensor constructors.
//!
//! Everything in the reproduction is deterministic given a seed: data
//! generation, weight initialization, connection-mask sampling and the
//! random hyperparameter search all thread `rand` RNGs explicitly.

use crate::Tensor;
use rand::distributions::Distribution;
use rand::Rng;

impl Tensor {
    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Tensor {
        assert!(lo <= hi, "rand_uniform: lo {lo} > hi {hi}");
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(data, dims)
    }

    /// Gaussian samples with the given mean and standard deviation,
    /// generated via Box–Muller (avoids a `rand_distr` dependency).
    pub fn rand_normal<R: Rng + ?Sized>(
        dims: &[usize],
        mean: f32,
        std: f32,
        rng: &mut R,
    ) -> Tensor {
        let n: usize = dims.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let (z0, z1) = box_muller(rng);
            data.push(mean + std * z0);
            if data.len() < n {
                data.push(mean + std * z1);
            }
        }
        Tensor::from_vec(data, dims)
    }

    /// Glorot/Xavier uniform initialization for a parameter with the given
    /// fan-in and fan-out: `U(−a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier_uniform<R: Rng + ?Sized>(
        dims: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut R,
    ) -> Tensor {
        let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform(dims, -a, a, rng)
    }

    /// Bernoulli 0/1 mask where each entry is 1 with probability `keep`.
    ///
    /// Used for the random connection removal of AE-Ensemble (20% of the
    /// connections dropped, Section 4.1.2) and for selecting the fraction
    /// `β` of parameters to transfer between basic models (Figure 9).
    pub fn bernoulli_mask<R: Rng + ?Sized>(dims: &[usize], keep: f64, rng: &mut R) -> Tensor {
        assert!(
            (0.0..=1.0).contains(&keep),
            "keep probability {keep} outside [0, 1]"
        );
        let n: usize = dims.iter().product();
        let data = (0..n)
            .map(|_| if rng.gen_bool(keep) { 1.0 } else { 0.0 })
            .collect();
        Tensor::from_vec(data, dims)
    }
}

/// One Box–Muller draw producing two independent standard normals.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    let u1: f32 = rand::distributions::Open01.sample(rng);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::rand_normal(&[20_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|v| (v - mean) * (v - mean)).mean();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn same_seed_same_tensor() {
        let a = Tensor::rand_normal(&[64], 0.0, 1.0, &mut StdRng::seed_from_u64(7));
        let b = Tensor::rand_normal(&[64], 0.0, 1.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn bernoulli_mask_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Tensor::bernoulli_mask(&[10_000], 0.8, &mut rng);
        let ones = m.sum();
        assert!(m.data().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(
            (ones / 10_000.0 - 0.8).abs() < 0.02,
            "keep rate {}",
            ones / 10_000.0
        );
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(4);
        let wide = Tensor::xavier_uniform(&[1000], 1000, 1000, &mut rng);
        let bound = (6.0f32 / 2000.0).sqrt();
        assert!(wide.data().iter().all(|&v| v.abs() <= bound));
    }
}
