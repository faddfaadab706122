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
    ///
    /// Each pair of outputs comes from one `(u₁, u₂)` draw; the draws are
    /// taken from `rng` in order first, then transformed on the worker
    /// pool, so the result is the same at every thread count. An odd
    /// count still draws a whole last pair and keeps its first value.
    pub fn rand_normal<R: Rng + ?Sized>(
        dims: &[usize],
        mean: f32,
        std: f32,
        rng: &mut R,
    ) -> Tensor {
        let n: usize = dims.iter().product();
        let mut data = crate::scratch::take(2 * n.div_ceil(2));
        for _ in 0..n.div_ceil(2) {
            let u1: f32 = rand::distributions::Open01.sample(rng);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            data.extend_from_slice(&[u1, u2]);
        }
        crate::par::for_each_chunk(&mut data, 2, |_, pair| {
            let (z0, z1) = box_muller(pair[0], pair[1]);
            pair[0] = mean + std * z0;
            pair[1] = mean + std * z1;
        });
        data.truncate(n);
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

/// The Box–Muller transform of one uniform pair `u₁ ∈ (0, 1)`,
/// `u₂ ∈ [0, 1)` into two independent standard normals.
fn box_muller(u1: f32, u2: f32) -> (f32, f32) {
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The exact values of a fixed-seed draw, recorded when each pair was
    /// still transformed as it was drawn: drawing first and transforming
    /// afterwards must change neither the RNG order nor a bit.
    #[test]
    fn normal_draws_are_pinned_at_a_fixed_seed() {
        let t = Tensor::rand_normal(&[16], 0.5, 2.0, &mut StdRng::seed_from_u64(2024));
        assert_eq!(
            bits(&t),
            [
                0x3fbb397e, 0xc086a52e, 0x403dc067, 0x408bcc9a, 0x3f0bd105, 0x3ff74f86, 0x3ec283b8,
                0x404e738c, 0x40238f95, 0x3f96b716, 0x3ffc90ee, 0xbe31f044, 0xbe2d19a8, 0x3f9f859e,
                0x3f83a857, 0x3fea970b,
            ]
        );
        // An odd count draws a whole last pair and keeps its first value.
        let t = Tensor::rand_normal(&[17], 0.0, 1.0, &mut StdRng::seed_from_u64(2024));
        assert_eq!(
            bits(&t),
            [
                0x3ef672fb, 0xc016a52e, 0x3f9dc067, 0x3ff79934, 0x3cbd104f, 0x3f374f86, 0xbd75f121,
                0x3fae738c, 0x3f838f95, 0x3ead6e2d, 0x3f3c90ee, 0xbeac7c11, 0xbeab466a, 0x3ebf0b3d,
                0x3e8750ae, 0x3f2a970b, 0xbfb85c2b,
            ]
        );
    }

    #[test]
    fn odd_count_is_a_prefix_of_the_next_even_count() {
        for n in [1, 3, 9, 4097] {
            let odd = Tensor::rand_normal(&[n], 0.0, 1.0, &mut StdRng::seed_from_u64(5));
            let even = Tensor::rand_normal(&[n + 1], 0.0, 1.0, &mut StdRng::seed_from_u64(5));
            assert_eq!(bits(&odd)[..], bits(&even)[..n], "n = {n}");
        }
        let empty = Tensor::rand_normal(&[0], 0.0, 1.0, &mut StdRng::seed_from_u64(5));
        assert!(empty.data().is_empty());
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
