//! The one-sided exponential distribution.
//!
//! The accuracy-enhanced SVT of arXiv:2407.20068 replaces the two-sided
//! Laplace perturbations with *one-sided* exponential noise: both the
//! threshold perturbation `ρ` and the per-query perturbation `ν` are
//! drawn from `Exp(b)` supported on `[0, ∞)`. The SVT privacy proof only
//! ever shifts `ρ` and `ν` *upwards* by the sensitivity, and for the
//! exponential density `f(x)/f(x + Δ) = exp(Δ/b)` exactly, so the same
//! scales that make Laplace-SVT `ε`-DP keep exponential-SVT `ε`-DP while
//! halving the noise variance at equal scale.
//!
//! Convention: `Exp(b)` denotes the exponential distribution with *scale*
//! `b` (mean `b`, rate `1/b`), i.e. density `f(x) = exp(-x/b)/b` on
//! `x ≥ 0`.
//!
//! Not to be confused with [`crate::ExponentialMechanism`], the
//! McSherry–Talwar selection mechanism, which shares nothing with this
//! module but the name.

use crate::error::MechanismError;
use crate::fastmath;
use crate::rng::DpRng;
use crate::sample::BatchSample;
use crate::Result;

/// A one-sided exponential distribution with scale `b > 0` on `[0, ∞)`.
///
/// ```
/// use dp_mechanisms::{DpRng, Exponential};
///
/// // Threshold noise for a Δ = 1 counting query under ε₁ = 0.5: Exp(2).
/// let noise = Exponential::for_query(1.0, 0.5)?;
/// assert_eq!(noise.scale(), 2.0);
///
/// // Analytic support:
/// assert_eq!(noise.cdf(0.0), 0.0);
/// assert!((noise.survival(2.0) - (-1.0f64).exp()).abs() < 1e-15);
///
/// // Samples are non-negative and deterministic given a seeded rng.
/// let mut rng = DpRng::seed_from_u64(7);
/// let x = noise.sample(&mut rng);
/// assert!(x.is_finite() && x >= 0.0);
/// # Ok::<(), dp_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    scale: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given scale.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidScale`] unless `scale` is finite
    /// and strictly positive.
    pub fn new(scale: f64) -> Result<Self> {
        if scale.is_finite() && scale > 0.0 {
            Ok(Self { scale })
        } else {
            Err(MechanismError::InvalidScale(scale))
        }
    }

    /// The exponential noise whose one-sided likelihood ratio matches a
    /// query of the given `sensitivity` under `epsilon`: `Exp(Δ/ε)`, the
    /// same scale [`crate::Laplace::for_query`] would use.
    pub fn for_query(sensitivity: f64, epsilon: f64) -> Result<Self> {
        crate::error::check_sensitivity(sensitivity)?;
        crate::error::check_epsilon(epsilon)?;
        Self::new(sensitivity / epsilon)
    }

    /// The scale parameter `b` (also the mean).
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The mean, `b`.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.scale
    }

    /// The variance, `b²` — half of `Lap(b)`'s `2b²`.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.scale * self.scale
    }

    /// The standard deviation, `b`.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.scale
    }

    /// Density `f(x) = exp(-x/b)/b` for `x ≥ 0`, zero below.
    #[inline]
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            (-x / self.scale).exp() / self.scale
        }
    }

    /// Distribution function `F(x) = P[X ≤ x] = 1 − exp(-x/b)` for
    /// `x ≥ 0`, zero below.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-x / self.scale).exp_m1()
        }
    }

    /// Survival function `P[X ≥ x] = exp(-x/b)` for `x ≥ 0`, one below —
    /// exact even in the deep tail (no `1 − F` cancellation).
    #[inline]
    pub fn survival(&self, x: f64) -> f64 {
        if x < 0.0 {
            1.0
        } else {
            (-x / self.scale).exp()
        }
    }

    /// Quantile function: the unique `x ≥ 0` with `F(x) = p`, for
    /// `p ∈ (0,1)`: `-b·ln(1-p)`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidProbability`] when `p` is outside
    /// the open unit interval.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(MechanismError::InvalidProbability(p));
        }
        Ok(-self.scale * (-p).ln_1p())
    }

    /// Draws one sample by inverse-CDF transform.
    #[inline]
    pub fn sample(&self, rng: &mut DpRng) -> f64 {
        // u uniform on (0,1); x = -b · ln(1 − u). open_uniform() keeps
        // the argument of ln strictly positive, so the sample is always
        // finite and non-negative.
        let u = rng.open_uniform();
        Self::transform(self.scale, u)
    }

    /// The inverse-CDF transform shared by the scalar and batched paths;
    /// `u` is uniform on `(0, 1)`.
    ///
    /// Uses `ln_1p(-u)` rather than `ln(1 - u)` (mirroring
    /// [`Self::quantile`] and the categorical sampler's fix): for the
    /// 53-bit grid uniforms `DpRng` produces, `1 − u` is exactly
    /// representable and the two agree to the last bit, but `ln_1p`
    /// keeps full precision for *any* `u`, including subnormal-adjacent
    /// values where `1.0 - u` would round to `1.0` and collapse the
    /// sample to zero.
    #[inline]
    fn transform(scale: f64, u: f64) -> f64 {
        -scale * (-u).ln_1p()
    }

    /// Fills `out` with independent samples.
    ///
    /// Bit-identical to `for x in out { *x = dist.sample(rng) }` for the
    /// same generator state — the underlying uniforms are drawn through
    /// the block-wise [`DpRng::fill_open_uniform`], which consumes the
    /// identical word sequence — but amortizes the per-draw RNG
    /// bookkeeping (the [`BatchSample`] contract).
    pub fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]) {
        rng.fill_open_uniform(out);
        for x in out.iter_mut() {
            *x = Self::transform(self.scale, *x);
        }
    }

    /// The vectorized fill: same uniforms as
    /// [`sample_into`](Self::sample_into) through the batched
    /// polynomial log. For 53-bit grid uniforms `1 − u` is exactly
    /// representable (no `ln_1p` needed on this path), strictly
    /// positive, and normal, so the whole batch takes
    /// [`fastmath::ln_in_place`]'s fast lane.
    pub fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        rng.fill_open_uniform(out);
        for x in out.iter_mut() {
            *x = 1.0 - *x;
        }
        fastmath::ln_in_place(out);
        let scale = self.scale;
        for x in out.iter_mut() {
            *x *= -scale;
        }
    }
}

impl BatchSample for Exponential {
    #[inline]
    fn sample_one(&self, rng: &mut DpRng) -> f64 {
        self.sample(rng)
    }

    #[inline]
    fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]) {
        Exponential::sample_into(self, rng, out);
    }

    #[inline]
    fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        Exponential::sample_into_vectorized(self, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::tests::buffer_stream_bits;

    fn exp(b: f64) -> Exponential {
        Exponential::new(b).unwrap()
    }

    #[test]
    fn construction_rejects_bad_scales() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
        assert!(Exponential::new(1e-12).is_ok());
    }

    #[test]
    fn for_query_divides_sensitivity_by_epsilon() {
        let e = Exponential::for_query(2.0, 0.5).unwrap();
        assert!((e.scale() - 4.0).abs() < 1e-12);
        assert!(Exponential::for_query(0.0, 0.5).is_err());
        assert!(Exponential::for_query(1.0, 0.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let e = exp(1.7);
        // Trapezoid rule over [0, 40b]; the support starts at 0.
        let (lo, hi, steps) = (0.0, 40.0 * 1.7, 400_000);
        let h = (hi - lo) / steps as f64;
        let mut total = 0.0;
        for i in 0..=steps {
            let x = lo + i as f64 * h;
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            total += w * e.pdf(x);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-6, "integral {total}");
    }

    #[test]
    fn density_vanishes_below_the_support() {
        let e = exp(2.0);
        assert_eq!(e.pdf(-0.001), 0.0);
        assert_eq!(e.cdf(-0.001), 0.0);
        assert_eq!(e.survival(-0.001), 1.0);
    }

    #[test]
    fn cdf_matches_known_values() {
        let e = exp(2.0);
        assert_eq!(e.cdf(0.0), 0.0);
        // F(b·ln 2) = 1 - exp(-ln 2) = 0.5: the median is b·ln 2.
        assert!((e.cdf(2.0 * std::f64::consts::LN_2) - 0.5).abs() < 1e-12);
        // F(b) = 1 - 1/e.
        assert!((e.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn survival_complements_cdf() {
        let e = exp(0.9);
        for &x in &[-3.0, 0.0, 0.1, 0.9, 3.0, 30.0] {
            assert!((e.cdf(x) + e.survival(x) - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn survival_avoids_cancellation_in_deep_tail() {
        let e = exp(1.0);
        let s = e.survival(400.0);
        assert!(s > 0.0, "deep tail must stay positive, got {s}");
        let expected = (-400.0f64).exp();
        assert!((s / expected - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let e = exp(3.3);
        for &p in &[1e-9, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-9] {
            let x = e.quantile(p).unwrap();
            assert!(x >= 0.0, "p={p}");
            assert!((e.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
        assert!(e.quantile(0.0).is_err());
        assert!(e.quantile(1.0).is_err());
        assert!(e.quantile(-0.2).is_err());
        assert!(e.quantile(f64::NAN).is_err());
    }

    #[test]
    fn samples_are_nonnegative_and_finite() {
        let e = exp(5.0);
        let mut rng = DpRng::seed_from_u64(13);
        let mut xs = vec![0.0; 10_000];
        e.sample_into(&mut rng, &mut xs);
        assert!(xs.iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    #[test]
    fn sample_moments_match_theory() {
        let e = exp(2.5);
        let mut rng = DpRng::seed_from_u64(17);
        let n = 200_000;
        let mut xs = vec![0.0; n];
        e.sample_into(&mut rng, &mut xs);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean / e.mean() - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var / e.variance() - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn sample_empirical_cdf_matches_analytic() {
        let e = exp(1.0);
        let mut rng = DpRng::seed_from_u64(23);
        let n = 100_000;
        let mut xs = vec![0.0; n];
        e.sample_into(&mut rng, &mut xs);
        for &x in &[0.1, 0.5, 1.0, 2.0, 4.0] {
            let emp = xs.iter().filter(|&&v| v <= x).count() as f64 / n as f64;
            assert!((emp - e.cdf(x)).abs() < 0.01, "x={x}: emp {emp}");
        }
    }

    #[test]
    fn sample_into_is_bit_identical_to_scalar_sampling() {
        let e = exp(3.7);
        for len in [1usize, 8, 255, 256, 257, 5000] {
            let mut scalar_rng = DpRng::seed_from_u64(977);
            let mut batched_rng = DpRng::seed_from_u64(977);
            let want: Vec<u64> = (0..len)
                .map(|_| e.sample(&mut scalar_rng).to_bits())
                .collect();
            let mut got = vec![0.0; len];
            e.sample_into(&mut batched_rng, &mut got);
            let got_bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got_bits, want, "len {len}");
            // Both generators must also land in the same state.
            assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64(), "len {len}");
        }
    }

    #[test]
    fn noise_buffer_stream_is_independent_of_batch_size() {
        let e = exp(2.0);
        let draws = 700;
        let reference: Vec<u64> = {
            let mut rng = DpRng::seed_from_u64(991);
            (0..draws).map(|_| e.sample(&mut rng).to_bits()).collect()
        };
        for batch in [1usize, 2, 17, 256, 1024] {
            assert_eq!(
                buffer_stream_bits(&e, 991, batch, draws),
                reference,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn transform_keeps_precision_at_extreme_uniforms() {
        // Regression for the ln(1 - u) → ln_1p(-u) fix: near u = 0 the
        // old expression rounds 1 - u to 1.0 and collapses the sample
        // to exactly zero; ln_1p keeps the leading term u·b.
        for &u in &[1e-20f64, 1e-18, 2.5e-17] {
            let x = Exponential::transform(4.0, u);
            assert!(x > 0.0, "u={u} collapsed to {x}");
            assert!((x / (4.0 * u) - 1.0).abs() < 1e-12, "u={u}: {x}");
            assert_eq!((1.0 - u).ln(), 0.0, "u={u} would collapse under ln(1-u)");
        }
        // And at the other extreme the tail stays finite and huge.
        let near_one = 1.0 - 2f64.powi(-53);
        let x = Exponential::transform(1.0, near_one);
        assert!(x.is_finite() && x > 36.0, "tail sample {x}");
    }

    #[test]
    fn vectorized_fill_consumes_same_words_and_stays_within_bound() {
        let e = exp(3.7);
        for len in [1usize, 8, 64, 1000] {
            let mut ref_rng = DpRng::seed_from_u64(977);
            let mut vec_rng = DpRng::seed_from_u64(977);
            let mut reference = vec![0.0; len];
            let mut fast = vec![0.0; len];
            e.sample_into(&mut ref_rng, &mut reference);
            e.sample_into_vectorized(&mut vec_rng, &mut fast);
            assert_eq!(ref_rng.next_u64(), vec_rng.next_u64(), "len {len}");
            for (i, (r, f)) in reference.iter().zip(&fast).enumerate() {
                assert!(*f >= 0.0, "len {len} i {i}");
                let rel = if *r == 0.0 {
                    (f - r).abs()
                } else {
                    ((f - r) / r).abs()
                };
                assert!(rel <= 1e-12, "len {len} i {i}: ref {r} vec {f}");
            }
        }
    }

    #[test]
    fn one_sided_dp_ratio_is_exact() {
        // The property SVT's proof leans on: for upward shifts the
        // likelihood ratio is *exactly* exp(Δ/b) everywhere on the
        // support (downward shifts are unbounded — the proof never
        // needs them).
        let e = exp(1.0);
        let delta = 1.0;
        let bound = (delta / e.scale()).exp();
        for i in 0..200 {
            let x = i as f64 * 0.25;
            let ratio = e.pdf(x) / e.pdf(x + delta);
            assert!((ratio - bound).abs() < 1e-9, "x={x} ratio={ratio}");
        }
    }

    #[test]
    fn variance_is_half_of_laplace_at_equal_scale() {
        let b = 3.0;
        let e = exp(b);
        let l = crate::Laplace::new(b).unwrap();
        assert!((e.variance() * 2.0 - l.variance()).abs() < 1e-12);
    }
}
