//! The Laplace distribution and the Laplace mechanism.
//!
//! Everything in the Sparse Vector Technique is built out of Laplace
//! noise: the threshold perturbation `ρ = Lap(Δ/ε₁)`, the per-query
//! perturbation `ν = Lap(2cΔ/ε₂)`, and the optional numeric release
//! `Lap(cΔ/ε₃)` of Algorithm 7. This module provides the distribution
//! with full analytic support (density, CDF, survival, quantile) because
//! the grouped traversal simulator in `svt-experiments` needs exact
//! crossing probabilities, and the budget-allocation optimizer needs
//! variances.
//!
//! Convention: `Lap(b)` denotes the zero-centred Laplace distribution
//! with *scale* `b`, i.e. density `f(x) = exp(-|x|/b) / (2b)`, exactly as
//! in Section 2 of the paper.

use crate::error::MechanismError;
use crate::fastmath;
use crate::rng::DpRng;
use crate::sample::{BatchSample, NoiseKernel};
use crate::Result;

/// A zero-centred Laplace distribution with scale `b > 0`.
///
/// ```
/// use dp_mechanisms::{DpRng, Laplace};
///
/// // Noise for a Δ = 1 counting query under ε = 0.5: Lap(2).
/// let noise = Laplace::for_query(1.0, 0.5)?;
/// assert_eq!(noise.scale(), 2.0);
///
/// // Analytic support used throughout the workspace:
/// assert!((noise.cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((noise.survival(2.0) - 0.5 * (-1.0f64).exp()).abs() < 1e-15);
///
/// // Sampling is deterministic given a seeded generator.
/// let mut rng = DpRng::seed_from_u64(7);
/// let x = noise.sample(&mut rng);
/// assert!(x.is_finite());
/// # Ok::<(), dp_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with the given scale.
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

    /// The Laplace noise calibrated for a query of the given
    /// `sensitivity` released under `epsilon`-DP: `Lap(Δ/ε)`.
    pub fn for_query(sensitivity: f64, epsilon: f64) -> Result<Self> {
        crate::error::check_sensitivity(sensitivity)?;
        crate::error::check_epsilon(epsilon)?;
        Self::new(sensitivity / epsilon)
    }

    /// The scale parameter `b`.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The variance, `2b²`.
    #[inline]
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// The standard deviation, `√2·b`.
    ///
    /// The paper's SVT-ReTr experiments raise the threshold by multiples
    /// of "one standard deviation of the added noises"; this is that
    /// quantity.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        std::f64::consts::SQRT_2 * self.scale
    }

    /// Density `f(x) = exp(-|x|/b)/(2b)`.
    #[inline]
    pub fn pdf(&self, x: f64) -> f64 {
        (-(x.abs()) / self.scale).exp() / (2.0 * self.scale)
    }

    /// Distribution function `F(x) = P[X ≤ x]`.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }

    /// Survival function `P[X ≥ x] = 1 − F(x)` computed without
    /// catastrophic cancellation for large `x`.
    ///
    /// (For a continuous distribution `P[X ≥ x] = P[X > x]`.)
    #[inline]
    pub fn survival(&self, x: f64) -> f64 {
        if x < 0.0 {
            1.0 - 0.5 * (x / self.scale).exp()
        } else {
            0.5 * (-x / self.scale).exp()
        }
    }

    /// Quantile function: the unique `x` with `F(x) = p`, for `p ∈ (0,1)`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidProbability`] when `p` is outside
    /// the open unit interval.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(MechanismError::InvalidProbability(p));
        }
        Ok(if p < 0.5 {
            self.scale * (2.0 * p).ln()
        } else {
            -self.scale * (2.0 * (1.0 - p)).ln()
        })
    }

    /// Draws one sample by inverse-CDF transform.
    #[inline]
    pub fn sample(&self, rng: &mut DpRng) -> f64 {
        // u uniform on (-1/2, 1/2]; x = -b · sgn(u) · ln(1 − 2|u|).
        // open_uniform() ∈ (0,1) keeps the argument of ln strictly
        // positive, so the sample is always finite.
        let u = rng.open_uniform() - 0.5;
        Self::transform(self.scale, u)
    }

    /// The inverse-CDF transform shared by the scalar and batched paths;
    /// `u` is uniform on `(-1/2, 1/2)`.
    #[inline]
    fn transform(scale: f64, u: f64) -> f64 {
        if u < 0.0 {
            scale * (1.0 + 2.0 * u).ln()
        } else {
            -scale * (1.0 - 2.0 * u).ln()
        }
    }

    /// Fills `out` with independent samples.
    ///
    /// Bit-identical to `for x in out { *x = dist.sample(rng) }` for the
    /// same generator state — the underlying uniforms are drawn through
    /// the block-wise [`DpRng::fill_open_uniform`], which consumes the
    /// identical word sequence — but validates parameters once per batch
    /// (at construction) and amortizes the per-draw RNG bookkeeping.
    pub fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]) {
        rng.fill_open_uniform(out);
        for x in out.iter_mut() {
            *x = Self::transform(self.scale, *x - 0.5);
        }
    }

    /// The [`NoiseKernel::Vectorized`] fill: identical uniforms (same
    /// words consumed as [`sample_into`](Self::sample_into)), with the
    /// inverse CDF rewritten branch-free over the [`fastmath`] log so
    /// the whole transform auto-vectorizes:
    ///
    /// ```text
    /// d = u − ½ ∈ (−½, ½)       (exact on the 53-bit uniform grid)
    /// arg = 1 − 2|d| ∈ [2⁻⁵², 1] (exact, always a positive normal)
    /// x = copysign(−b · ln(arg), d)
    /// ```
    ///
    /// Values agree with the reference transform to the `fastmath`
    /// relative-error bound (the sign and the argument of the log are
    /// computed exactly, so the only divergence is the log itself).
    pub fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        const L: usize = fastmath::LANES;
        rng.fill_open_uniform(out);
        let scale = self.scale;
        let mut chunks = out.chunks_exact_mut(L);
        for chunk in &mut chunks {
            let mut signs = [0.0f64; L];
            let mut args = [0.0f64; L];
            for j in 0..L {
                let d = chunk[j] - 0.5;
                signs[j] = d;
                args[j] = 1.0 - 2.0 * d.abs();
            }
            let mut lns = [0.0f64; L];
            fastmath::ln_into(&args, &mut lns);
            for j in 0..L {
                chunk[j] = (-scale * lns[j]).copysign(signs[j]);
            }
        }
        for x in chunks.into_remainder() {
            let d = *x - 0.5;
            *x = (-scale * fastmath::ln(1.0 - 2.0 * d.abs())).copysign(d);
        }
    }
}

impl BatchSample for Laplace {
    #[inline]
    fn sample_one(&self, rng: &mut DpRng) -> f64 {
        self.sample(rng)
    }

    #[inline]
    fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]) {
        Laplace::sample_into(self, rng, out);
    }

    #[inline]
    fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        Laplace::sample_into_vectorized(self, rng, out);
    }
}

/// A reusable scratch buffer of noise from any [`BatchSample`]
/// distribution, filled a block at a time.
///
/// The item walks draw one noise value per examined item; drawing them
/// a block at a time through `sample_into` (e.g.
/// [`Laplace::sample_into`] or [`Gumbel::sample_into`](crate::Gumbel::sample_into))
/// keeps the RNG on its bulk path. Because `sample_into` is
/// stream-equivalent to scalar sampling (the [`BatchSample`] contract),
/// the values [`take_into`](NoiseBuffer::take_into) hands out do not
/// depend on the batch size or on how the takes are split — only how far
/// ahead of the consumer the generator has run differs, so a dedicated
/// (forked) noise generator sees no observable difference.
///
/// The buffer caches raw samples of *one* distribution drawn from *one*
/// generator; call [`reset`](NoiseBuffer::reset) before switching either.
///
/// ## Kernel policy
///
/// Every refill is dispatched through the [`NoiseKernel`] fixed at
/// construction. [`NoiseKernel::Reference`] keeps the values
/// bit-identical to scalar draws; [`NoiseKernel::Vectorized`] changes
/// only the transform applied to the batched uniforms — the generator
/// consumes the identical word sequence either way.
#[derive(Debug, Clone)]
pub struct NoiseBuffer {
    buf: Vec<f64>,
    cursor: usize,
    batch: usize,
    kernel: NoiseKernel,
}

impl NoiseBuffer {
    /// Default batch size: big enough to amortize per-call overhead,
    /// small enough that a typical early-aborting SVT run wastes little
    /// buffered noise.
    pub const DEFAULT_BATCH: usize = 256;

    /// Creates an empty buffer that refills `batch` samples at a time
    /// (clamped to at least 1) through `kernel`.
    pub fn with_kernel(batch: usize, kernel: NoiseKernel) -> Self {
        Self {
            buf: Vec::new(),
            cursor: 0,
            batch: batch.max(1),
            kernel,
        }
    }

    /// The transform kernel refills use.
    #[inline]
    pub fn kernel(&self) -> NoiseKernel {
        self.kernel
    }

    /// Discards any buffered noise; the next
    /// [`take_into`](Self::take_into) refills from the generator it is
    /// handed.
    #[inline]
    pub fn reset(&mut self) {
        self.cursor = self.buf.len();
    }

    fn refill<D: BatchSample>(&mut self, dist: &D, rng: &mut DpRng) {
        self.buf.resize(self.batch, 0.0);
        dist.sample_into_kernel(rng, &mut self.buf, self.kernel);
        self.cursor = 0;
    }

    /// Copies the next `out.len()` buffered samples of `dist` into
    /// `out`, refilling a batch from `rng` whenever the buffer runs dry:
    /// one `memcpy` per buffered span. Under [`NoiseKernel::Reference`]
    /// the takes hand out `rng`'s scalar draws of `dist` in order, less
    /// only what a [`reset`](Self::reset) discarded.
    pub fn take_into<D: BatchSample>(&mut self, dist: &D, rng: &mut DpRng, out: &mut [f64]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.cursor >= self.buf.len() {
                self.refill(dist, rng);
            }
            let take = (out.len() - filled).min(self.buf.len() - self.cursor);
            out[filled..filled + take].copy_from_slice(&self.buf[self.cursor..self.cursor + take]);
            self.cursor += take;
            filled += take;
        }
    }
}

/// The Laplace mechanism: releases `value + Lap(Δ/ε)`.
///
/// This is the primitive invoked by Algorithm 7's numeric output phase
/// (`a_i = q_i(D) + Lap(cΔ/ε₃)`) and by the interactive mediator when a
/// query's derived answer is rejected.
///
/// # Errors
/// Propagates parameter validation from [`Laplace::for_query`].
pub fn laplace_mechanism(
    value: f64,
    sensitivity: f64,
    epsilon: f64,
    rng: &mut DpRng,
) -> Result<f64> {
    Ok(value + Laplace::for_query(sensitivity, epsilon)?.sample(rng))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn lap(b: f64) -> Laplace {
        Laplace::new(b).unwrap()
    }

    #[test]
    fn construction_rejects_bad_scales() {
        assert!(Laplace::new(0.0).is_err());
        assert!(Laplace::new(-1.0).is_err());
        assert!(Laplace::new(f64::NAN).is_err());
        assert!(Laplace::new(f64::INFINITY).is_err());
        assert!(Laplace::new(1e-12).is_ok());
    }

    #[test]
    fn for_query_divides_sensitivity_by_epsilon() {
        let l = Laplace::for_query(2.0, 0.5).unwrap();
        assert!((l.scale() - 4.0).abs() < 1e-12);
        assert!(Laplace::for_query(0.0, 0.5).is_err());
        assert!(Laplace::for_query(1.0, 0.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let l = lap(1.7);
        // Trapezoid rule over [-40b, 40b].
        let (lo, hi, steps) = (-40.0 * 1.7, 40.0 * 1.7, 400_000);
        let h = (hi - lo) / steps as f64;
        let mut total = 0.0;
        for i in 0..=steps {
            let x = lo + i as f64 * h;
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            total += w * l.pdf(x);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-6, "integral {total}");
    }

    #[test]
    fn cdf_matches_known_values() {
        let l = lap(2.0);
        assert!((l.cdf(0.0) - 0.5).abs() < 1e-15);
        // F(b·ln 2) at positive side: 1 - 0.5·exp(-ln 2) = 0.75
        assert!((l.cdf(2.0 * std::f64::consts::LN_2) - 0.75).abs() < 1e-12);
        assert!((l.cdf(-2.0 * std::f64::consts::LN_2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn survival_complements_cdf() {
        let l = lap(0.9);
        for &x in &[-30.0, -3.0, -0.1, 0.0, 0.1, 3.0, 30.0] {
            assert!((l.cdf(x) + l.survival(x) - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn survival_avoids_cancellation_in_deep_tail() {
        let l = lap(1.0);
        let s = l.survival(400.0);
        assert!(s > 0.0, "deep tail must stay positive, got {s}");
        let expected = 0.5 * (-400.0f64).exp();
        assert!((s / expected - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let l = lap(3.3);
        for &p in &[1e-9, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-9] {
            let x = l.quantile(p).unwrap();
            assert!((l.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
        assert!(l.quantile(0.0).is_err());
        assert!(l.quantile(1.0).is_err());
        assert!(l.quantile(-0.2).is_err());
        assert!(l.quantile(f64::NAN).is_err());
    }

    #[test]
    fn quantile_is_antisymmetric() {
        let l = lap(1.0);
        for &p in &[0.05, 0.2, 0.4] {
            let lo = l.quantile(p).unwrap();
            let hi = l.quantile(1.0 - p).unwrap();
            assert!((lo + hi).abs() < 1e-12, "p={p}: {lo} vs {hi}");
        }
    }

    #[test]
    fn sample_moments_match_theory() {
        let l = lap(2.5);
        let mut rng = DpRng::seed_from_u64(17);
        let n = 200_000;
        let mut xs = vec![0.0; n];
        l.sample_into(&mut rng, &mut xs);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var / l.variance() - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn sample_empirical_cdf_matches_analytic() {
        let l = lap(1.0);
        let mut rng = DpRng::seed_from_u64(23);
        let n = 100_000;
        let mut xs = vec![0.0; n];
        l.sample_into(&mut rng, &mut xs);
        for &x in &[-2.0, -0.5, 0.0, 0.5, 2.0] {
            let emp = xs.iter().filter(|&&v| v <= x).count() as f64 / n as f64;
            assert!((emp - l.cdf(x)).abs() < 0.01, "x={x}: emp {emp}");
        }
    }

    #[test]
    fn sample_into_is_bit_identical_to_scalar_sampling() {
        let l = lap(3.7);
        for len in [1usize, 8, 255, 256, 257, 5000] {
            let mut scalar_rng = DpRng::seed_from_u64(977);
            let mut batched_rng = DpRng::seed_from_u64(977);
            let want: Vec<u64> = (0..len)
                .map(|_| l.sample(&mut scalar_rng).to_bits())
                .collect();
            let mut got = vec![0.0; len];
            l.sample_into(&mut batched_rng, &mut got);
            let got_bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got_bits, want, "len {len}");
            // Both generators must also land in the same state.
            assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64(), "len {len}");
        }
    }

    /// The first `draws` values a reference-kernel buffer of `batch`
    /// hands out of `dist` on a generator seeded with `seed`, taken in
    /// chunks of varying length, as bits.
    pub(crate) fn buffer_stream_bits<D: BatchSample>(
        dist: &D,
        seed: u64,
        batch: usize,
        draws: usize,
    ) -> Vec<u64> {
        let mut rng = DpRng::seed_from_u64(seed);
        let mut buf = NoiseBuffer::with_kernel(batch, NoiseKernel::Reference);
        let mut out = vec![0.0; draws];
        let mut chunks = [1usize, 5, 2, 33, 7, 300, 3].into_iter().cycle();
        let mut start = 0;
        while start < draws {
            let end = (start + chunks.next().unwrap()).min(draws);
            buf.take_into(dist, &mut rng, &mut out[start..end]);
            start = end;
        }
        out.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn noise_buffer_stream_is_independent_of_batch_size() {
        let l = lap(2.0);
        let draws = 700;
        let reference: Vec<u64> = {
            let mut rng = DpRng::seed_from_u64(991);
            (0..draws).map(|_| l.sample(&mut rng).to_bits()).collect()
        };
        for batch in [1usize, 2, 17, 256, 1024] {
            assert_eq!(
                buffer_stream_bits(&l, 991, batch, draws),
                reference,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn noise_buffer_reset_discards_prefetched_noise() {
        // After a reset the buffer refills from the generator where its
        // last refill left it: the rest of the first batch is never
        // handed out.
        let l = lap(1.0);
        let batch = NoiseBuffer::DEFAULT_BATCH;
        let reference: Vec<u64> = {
            let mut rng = DpRng::seed_from_u64(997);
            (0..2 * batch + 50)
                .map(|_| l.sample(&mut rng).to_bits())
                .collect()
        };
        let mut rng = DpRng::seed_from_u64(997);
        let mut buf = NoiseBuffer::with_kernel(batch, NoiseKernel::Reference);
        let (mut first, mut second) = ([0.0; 3], vec![0.0; batch + 50]);
        buf.take_into(&l, &mut rng, &mut first);
        buf.reset();
        buf.take_into(&l, &mut rng, &mut second);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), reference[..3]);
        assert_eq!(bits(&second), reference[batch..]);
    }

    #[test]
    fn vectorized_fill_consumes_same_words_and_stays_within_bound() {
        let l = lap(3.7);
        for len in [1usize, 7, 8, 64, 1000] {
            let mut ref_rng = DpRng::seed_from_u64(4242);
            let mut vec_rng = DpRng::seed_from_u64(4242);
            let mut reference = vec![0.0; len];
            let mut fast = vec![0.0; len];
            l.sample_into(&mut ref_rng, &mut reference);
            l.sample_into_vectorized(&mut vec_rng, &mut fast);
            // Identical word consumption: generators stay in lockstep.
            assert_eq!(ref_rng.next_u64(), vec_rng.next_u64(), "len {len}");
            for (i, (r, f)) in reference.iter().zip(&fast).enumerate() {
                assert_eq!(r.signum(), f.signum(), "len {len} i {i}");
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
    fn kernel_dispatch_selects_the_requested_transform() {
        let l = lap(1.3);
        let mut a = DpRng::seed_from_u64(55);
        let mut b = DpRng::seed_from_u64(55);
        let mut reference = vec![0.0; 64];
        let mut via_kernel = vec![0.0; 64];
        l.sample_into(&mut a, &mut reference);
        l.sample_into_kernel(&mut b, &mut via_kernel, NoiseKernel::Reference);
        assert_eq!(
            reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            via_kernel.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        let mut c = DpRng::seed_from_u64(55);
        l.sample_into_kernel(&mut c, &mut via_kernel, NoiseKernel::Vectorized);
        // Vectorized diverges in the last bits somewhere over 64 draws
        // (not bit-pinned to reference), while staying within 1e-12.
        for (r, v) in reference.iter().zip(&via_kernel) {
            assert!(((v - r) / r).abs() <= 1e-12);
        }
    }

    #[test]
    fn dp_ratio_bound_holds_pointwise() {
        // The defining property: pdf(x)/pdf(x+Δ) ≤ exp(Δ/b).
        let l = lap(1.0);
        let delta = 1.0;
        let bound = (delta / l.scale()).exp();
        for i in -50..50 {
            let x = i as f64 * 0.25;
            let ratio = l.pdf(x) / l.pdf(x + delta);
            assert!(ratio <= bound + 1e-12, "x={x} ratio={ratio}");
        }
    }

    #[test]
    fn std_dev_is_sqrt_two_times_scale() {
        let l = lap(4.0);
        assert!((l.std_dev() - 4.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((l.std_dev().powi(2) - l.variance()).abs() < 1e-9);
    }

    #[test]
    fn laplace_mechanism_adds_bounded_expected_noise() {
        let mut rng = DpRng::seed_from_u64(29);
        let n = 50_000;
        let sum: f64 = (0..n)
            .map(|_| laplace_mechanism(10.0, 1.0, 0.5, &mut rng).unwrap())
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }
}
