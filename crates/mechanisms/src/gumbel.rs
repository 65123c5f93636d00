//! The Gumbel distribution and the Gumbel-max trick.
//!
//! Sampling the Exponential Mechanism naively requires normalizing
//! `exp(ε·q_i / kΔ)` over all candidates, which overflows for the large
//! scores in the paper's workloads (e.g. the Zipf head score ≈ 10⁵ with
//! `ε/c ≈ 4·10⁻³` gives `exp(400)`). The Gumbel-max trick sidesteps
//! normalization entirely: if `G_i` are i.i.d. standard Gumbel draws then
//!
//! ```text
//! argmax_i (φ_i + G_i)   ~   Categorical(softmax(φ))
//! ```
//!
//! so EM selection is a single pass of `argmax` in log-space. The same
//! trick grouped over tied scores drives the fast simulators: the
//! maximum of `n` i.i.d. standard Gumbels is `Gumbel(ln n, 1)`
//! ([`Gumbel::max_of`]), and [`GumbelMax`] generates the *descending
//! order statistics* of `n` i.i.d. keys lazily — the maximum in `O(1)`,
//! each subsequent order statistic in `O(1)` — so a group of millions of
//! tied candidates costs one draw per key actually consumed, never one
//! per member.

use crate::error::MechanismError;
use crate::fastmath;
use crate::rng::DpRng;
use crate::sample::BatchSample;
use crate::Result;

/// A Gumbel distribution with location `mu` and scale `beta > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gumbel {
    mu: f64,
    beta: f64,
}

impl Gumbel {
    /// The standard Gumbel distribution (`mu = 0`, `beta = 1`).
    pub fn standard() -> Self {
        Self { mu: 0.0, beta: 1.0 }
    }

    /// Creates a Gumbel distribution with the given location and scale.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidScale`] unless `beta` is finite
    /// and strictly positive, or [`MechanismError::InvalidParameter`] if
    /// `mu` is not finite.
    pub fn new(mu: f64, beta: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(MechanismError::InvalidParameter(
                "Gumbel location must be finite",
            ));
        }
        if beta.is_finite() && beta > 0.0 {
            Ok(Self { mu, beta })
        } else {
            Err(MechanismError::InvalidScale(beta))
        }
    }

    /// The location parameter.
    #[inline]
    pub fn location(&self) -> f64 {
        self.mu
    }

    /// The scale parameter.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.beta
    }

    /// The mean, `mu + γ·beta` (γ is the Euler–Mascheroni constant).
    #[inline]
    pub fn mean(&self) -> f64 {
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        self.mu + EULER_GAMMA * self.beta
    }

    /// Distribution function `F(x) = exp(-exp(-(x-mu)/beta))`.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        (-(-(x - self.mu) / self.beta).exp()).exp()
    }

    /// Draws one sample: `mu − beta · ln(−ln U)` with `U ~ (0,1)`.
    #[inline]
    pub fn sample(&self, rng: &mut DpRng) -> f64 {
        self.transform(rng.open_uniform())
    }

    /// The inverse-CDF transform shared by the scalar and batched
    /// paths; `u` is uniform on `(0, 1)`.
    #[inline]
    fn transform(&self, u: f64) -> f64 {
        self.mu - self.beta * (-(u.ln())).ln()
    }

    /// Fills `out` with independent samples.
    ///
    /// Bit-identical to `for x in out { *x = dist.sample(rng) }` for the
    /// same generator state — the underlying uniforms come from the
    /// block-wise [`DpRng::fill_open_uniform`], which consumes the
    /// identical word sequence — mirroring
    /// [`Laplace::sample_into`](crate::Laplace::sample_into). This is
    /// what the scratch-buffered EM top-`c` path draws its keys from.
    pub fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]) {
        rng.fill_open_uniform(out);
        for x in out.iter_mut() {
            *x = self.transform(*x);
        }
    }

    /// The vectorized fill: same uniforms as
    /// [`sample_into`](Self::sample_into), with both logarithms of the
    /// double-log transform routed through the batched
    /// [`fastmath::ln_in_place`]. Each value stays within a small
    /// multiple of the `1e-12` relative bound of the reference value
    /// (two polynomial logs compose).
    ///
    /// The inner argument `−ln u` is always a positive normal for grid
    /// uniforms (`u ≤ 1 − 2⁻⁵³` gives `−ln u ≥ 1.1e-16`), so no special
    /// cases arise between the two passes.
    pub fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        rng.fill_open_uniform(out);
        fastmath::ln_in_place(out);
        for x in out.iter_mut() {
            *x = -*x;
        }
        fastmath::ln_in_place(out);
        for x in out.iter_mut() {
            *x = self.mu - self.beta * *x;
        }
    }

    /// The distribution of `max(G_1, …, G_n)` for `n` i.i.d. copies of
    /// this distribution: a Gumbel shifted by `beta·ln n`.
    ///
    /// # Errors
    /// Returns [`MechanismError::InvalidParameter`] when `n == 0`.
    pub fn max_of(&self, n: u64) -> Result<Self> {
        if n == 0 {
            return Err(MechanismError::InvalidParameter(
                "max_of() requires at least one draw",
            ));
        }
        Gumbel::new(self.mu + self.beta * (n as f64).ln(), self.beta)
    }
}

/// Lazy descending order statistics of `m` i.i.d. draws from one
/// [`Gumbel`] distribution.
///
/// The first key returned by [`next_key`](Self::next_key) is the
/// *maximum* of the `m` conceptual draws, produced from a **single**
/// uniform — by max-stability, `max(G_1, …, G_m) ~ Gumbel(mu + beta·ln m,
/// beta)`, and inverting that CDF with uniform `U` is algebraically
/// identical to inverting the base CDF with `U^{1/m}`. Subsequent calls
/// peel the 2nd, 3rd, … largest keys via the descending-uniform-order-
/// statistics recurrence (the exponential-spacings / truncated-Gumbel
/// identity in log-space):
///
/// ```text
/// ln U_(m)   = ln V_1 / m              (V_k i.i.d. uniform)
/// ln U_(k-1) = ln U_(k) + ln V / (k-1)
/// key_(k)    = mu − beta · ln(−ln U_(k))
/// ```
///
/// so drawing the top `j` keys of a group of `m` costs `O(j)` uniforms
/// — independent of `m`. This is what makes an Exponential-Mechanism
/// top-`c` over grouped (tied) scores `O(#groups + c)` instead of
/// `O(#items)`: see `EmTopC::select_grouped_into` in `svt-core` and the
/// grouped simulation engine in `svt-experiments`.
///
/// The joint law of the emitted sequence is exactly that of sorting `m`
/// independent [`Gumbel::sample`] draws in decreasing order. For
/// `m == 1` the single emitted key is **bit-identical** to
/// [`Gumbel::sample`] from the same generator state (property-tested).
///
/// ```
/// use dp_mechanisms::{DpRng, Gumbel, GumbelMax};
///
/// let mut rng = DpRng::seed_from_u64(7);
/// let mut top = GumbelMax::new(Gumbel::standard(), 1000)?;
/// let first = top.next_key(&mut rng).unwrap();
/// let second = top.next_key(&mut rng).unwrap();
/// assert!(first > second); // order statistics descend
/// # Ok::<(), dp_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GumbelMax {
    dist: Gumbel,
    /// `ln` of the most recently emitted uniform order statistic
    /// (`0.0` before the first draw, standing in for `ln 1`).
    ln_u: f64,
    /// Order-statistic rank of the *next* draw, counting down from `m`;
    /// `0` means exhausted.
    next_rank: u64,
}

impl GumbelMax {
    /// Creates the sampler for the maximum (and successors) of `m`
    /// i.i.d. draws from `dist`.
    ///
    /// # Errors
    /// [`MechanismError::InvalidParameter`] when `m == 0`.
    pub fn new(dist: Gumbel, m: u64) -> Result<Self> {
        if m == 0 {
            return Err(MechanismError::InvalidParameter(
                "GumbelMax requires at least one draw",
            ));
        }
        Ok(Self {
            dist,
            ln_u: 0.0,
            next_rank: m,
        })
    }

    /// How many order statistics are still available.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.next_rank
    }

    /// Emits the next (largest remaining) order statistic, or `None`
    /// once all `m` keys have been peeled. Each call consumes exactly
    /// one uniform from `rng`.
    ///
    /// Both logarithms are libm's: called one value at a time, the
    /// scalar polynomial [`fastmath::ln`] is the slower of the two (only
    /// its batched form pays), so peeling has one transform whatever
    /// kernel a caller's noise buffers run.
    #[inline]
    pub fn next_key(&mut self, rng: &mut DpRng) -> Option<f64> {
        if self.next_rank == 0 {
            return None;
        }
        let u = rng.open_uniform();
        self.ln_u += u.ln() / self.next_rank as f64;
        debug_assert!(
            self.ln_u < 0.0,
            "uniform order statistic must stay in (0,1)"
        );
        self.next_rank -= 1;
        Some(self.dist.mu - self.dist.beta * (-self.ln_u).ln())
    }
}

impl BatchSample for Gumbel {
    #[inline]
    fn sample_one(&self, rng: &mut DpRng) -> f64 {
        self.sample(rng)
    }

    #[inline]
    fn sample_into(&self, rng: &mut DpRng, out: &mut [f64]) {
        Gumbel::sample_into(self, rng, out);
    }

    #[inline]
    fn sample_into_vectorized(&self, rng: &mut DpRng, out: &mut [f64]) {
        Gumbel::sample_into_vectorized(self, rng, out);
    }
}

/// Samples `argmax_i (log_weights[i] + G_i)` with i.i.d. standard Gumbel
/// `G_i` — i.e. a categorical draw with probabilities
/// `softmax(log_weights)` — without ever exponentiating.
///
/// Entries equal to `f64::NEG_INFINITY` are treated as weight zero
/// (never selected).
///
/// # Errors
/// [`MechanismError::EmptyCandidates`] on an empty slice, or
/// [`MechanismError::InvalidParameter`] if every weight is `-∞`.
pub fn gumbel_argmax(log_weights: &[f64], rng: &mut DpRng) -> Result<usize> {
    if log_weights.is_empty() {
        return Err(MechanismError::EmptyCandidates);
    }
    let g = Gumbel::standard();
    let mut best: Option<(usize, f64)> = None;
    for (i, &lw) in log_weights.iter().enumerate() {
        if lw == f64::NEG_INFINITY {
            continue;
        }
        let key = lw + g.sample(rng);
        match best {
            Some((_, b)) if key <= b => {}
            _ => best = Some((i, key)),
        }
    }
    best.map(|(i, _)| i).ok_or(MechanismError::InvalidParameter(
        "all candidates have zero weight",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(Gumbel::new(0.0, 1.0).is_ok());
        assert!(Gumbel::new(0.0, 0.0).is_err());
        assert!(Gumbel::new(0.0, -2.0).is_err());
        assert!(Gumbel::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn sample_mean_matches_theory() {
        let g = Gumbel::new(2.0, 1.5).unwrap();
        let mut rng = DpRng::seed_from_u64(31);
        let n = 200_000;
        let mean = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - g.mean()).abs() < 0.02,
            "mean {mean} vs {}",
            g.mean()
        );
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        let g = Gumbel::standard();
        let mut rng = DpRng::seed_from_u64(37);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        for &x in &[-1.0, 0.0, 1.0, 2.0] {
            let emp = xs.iter().filter(|&&v| v <= x).count() as f64 / n as f64;
            assert!((emp - g.cdf(x)).abs() < 0.01, "x={x}");
        }
    }

    #[test]
    fn max_of_matches_explicit_maximum() {
        // max of n standard Gumbels ~ Gumbel(ln n, 1): compare means.
        let g = Gumbel::standard();
        let shifted = g.max_of(64).unwrap();
        let mut rng = DpRng::seed_from_u64(41);
        let trials = 40_000;
        let mut explicit = 0.0;
        for _ in 0..trials {
            let m = (0..64)
                .map(|_| g.sample(&mut rng))
                .fold(f64::NEG_INFINITY, f64::max);
            explicit += m;
        }
        explicit /= trials as f64;
        assert!(
            (explicit - shifted.mean()).abs() < 0.03,
            "explicit {explicit} vs analytic {}",
            shifted.mean()
        );
        assert!(g.max_of(0).is_err());
    }

    #[test]
    fn sample_into_is_bit_identical_to_scalar_sampling() {
        let g = Gumbel::new(1.2, 0.7).unwrap();
        for len in [1usize, 8, 255, 256, 257, 5000] {
            let mut scalar_rng = DpRng::seed_from_u64(1877);
            let mut batched_rng = DpRng::seed_from_u64(1877);
            let want: Vec<u64> = (0..len)
                .map(|_| g.sample(&mut scalar_rng).to_bits())
                .collect();
            let mut got = vec![0.0; len];
            g.sample_into(&mut batched_rng, &mut got);
            let got_bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got_bits, want, "len {len}");
            // Both generators must also land in the same state.
            assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64(), "len {len}");
        }
    }

    #[test]
    fn noise_buffer_serves_gumbel_batch_size_invariantly() {
        // The generic NoiseBuffer path must uphold the same contract for
        // Gumbel that it does for Laplace.
        let g = Gumbel::standard();
        let draws = 700;
        let reference: Vec<u64> = {
            let mut rng = DpRng::seed_from_u64(1879);
            (0..draws).map(|_| g.sample(&mut rng).to_bits()).collect()
        };
        for batch in [1usize, 2, 17, 256, 1024] {
            let mut rng = DpRng::seed_from_u64(1879);
            let mut buf = crate::NoiseBuffer::with_batch(batch);
            let got: Vec<u64> = (0..draws)
                .map(|_| buf.next(&g, &mut rng).to_bits())
                .collect();
            assert_eq!(got, reference, "batch {batch}");
        }
    }

    #[test]
    fn vectorized_fill_consumes_same_words_and_stays_close() {
        let g = Gumbel::new(1.2, 0.7).unwrap();
        for len in [1usize, 8, 64, 1000] {
            let mut ref_rng = DpRng::seed_from_u64(1877);
            let mut vec_rng = DpRng::seed_from_u64(1877);
            let mut reference = vec![0.0; len];
            let mut fast = vec![0.0; len];
            g.sample_into(&mut ref_rng, &mut reference);
            g.sample_into_vectorized(&mut vec_rng, &mut fast);
            assert_eq!(ref_rng.next_u64(), vec_rng.next_u64(), "len {len}");
            for (i, (r, f)) in reference.iter().zip(&fast).enumerate() {
                // Two composed polynomial logs: allow a few ulps of
                // headroom over the single-log 1e-12 bound, in absolute
                // terms near the transform's zero crossing.
                let tol = 1e-11 * r.abs().max(1.0);
                assert!((f - r).abs() <= tol, "len {len} i {i}: {r} vs {f}");
            }
        }
    }

    #[test]
    fn gumbel_max_validates_and_exhausts() {
        assert!(GumbelMax::new(Gumbel::standard(), 0).is_err());
        let mut top = GumbelMax::new(Gumbel::standard(), 3).unwrap();
        let mut rng = DpRng::seed_from_u64(61);
        assert_eq!(top.remaining(), 3);
        for k in (0..3u64).rev() {
            assert!(top.next_key(&mut rng).is_some());
            assert_eq!(top.remaining(), k);
        }
        assert_eq!(top.next_key(&mut rng), None);
        assert_eq!(top.next_key(&mut rng), None);
    }

    #[test]
    fn gumbel_max_keys_strictly_descend() {
        let mut rng = DpRng::seed_from_u64(67);
        for m in [2u64, 5, 100, 1_000_000] {
            let mut top = GumbelMax::new(Gumbel::new(3.0, 0.5).unwrap(), m).unwrap();
            let take = m.min(50);
            let mut prev = f64::INFINITY;
            for _ in 0..take {
                let key = top.next_key(&mut rng).unwrap();
                assert!(key < prev, "m={m}: {key} !< {prev}");
                prev = key;
            }
        }
    }

    #[test]
    fn gumbel_max_of_one_is_bit_identical_to_sample() {
        // The m = 1 degenerate case must collapse to a plain draw — the
        // identity the all-scores-distinct EM fast path leans on.
        let g = Gumbel::new(-2.5, 1.7).unwrap();
        for seed in [1u64, 71, 8_191] {
            let mut a = DpRng::seed_from_u64(seed);
            let mut b = DpRng::seed_from_u64(seed);
            let plain = g.sample(&mut a);
            let peeled = GumbelMax::new(g, 1).unwrap().next_key(&mut b).unwrap();
            assert_eq!(plain.to_bits(), peeled.to_bits());
            assert_eq!(a.next_u64(), b.next_u64(), "same words consumed");
        }
    }

    #[test]
    fn gumbel_max_first_key_matches_location_shifted_mean() {
        // max of m iid Gumbel(mu, beta) ~ Gumbel(mu + beta ln m, beta):
        // the first emitted key's empirical mean must match.
        let base = Gumbel::new(1.0, 0.8).unwrap();
        let m = 4096;
        let shifted = base.max_of(m).unwrap();
        let mut rng = DpRng::seed_from_u64(73);
        let trials = 60_000;
        let mean = (0..trials)
            .map(|_| GumbelMax::new(base, m).unwrap().next_key(&mut rng).unwrap())
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean - shifted.mean()).abs() < 0.02,
            "mean {mean} vs analytic {}",
            shifted.mean()
        );
    }

    #[test]
    fn gumbel_max_peeled_sequence_matches_sorted_iid_draws() {
        // The joint law: peeling all m order statistics must match
        // sorting m iid draws descending — compare per-rank means.
        let g = Gumbel::standard();
        let m = 8usize;
        let trials = 40_000;
        let mut rng = DpRng::seed_from_u64(79);
        let mut peeled_mean = vec![0.0f64; m];
        let mut sorted_mean = vec![0.0f64; m];
        for _ in 0..trials {
            let mut top = GumbelMax::new(g, m as u64).unwrap();
            for mean in peeled_mean.iter_mut() {
                *mean += top.next_key(&mut rng).unwrap();
            }
            let mut draws: Vec<f64> = (0..m).map(|_| g.sample(&mut rng)).collect();
            draws.sort_unstable_by(|a, b| b.total_cmp(a));
            for (mean, d) in sorted_mean.iter_mut().zip(&draws) {
                *mean += d;
            }
        }
        for rank in 0..m {
            let p = peeled_mean[rank] / trials as f64;
            let s = sorted_mean[rank] / trials as f64;
            assert!(
                (p - s).abs() < 0.03,
                "rank {rank}: peeled {p} vs sorted {s}"
            );
        }
    }

    #[test]
    fn gumbel_argmax_matches_softmax_frequencies() {
        let lw = [0.0f64, 1.0, 2.0];
        let z: f64 = lw.iter().map(|w| w.exp()).sum();
        let probs: Vec<f64> = lw.iter().map(|w| w.exp() / z).collect();
        let mut rng = DpRng::seed_from_u64(43);
        let trials = 60_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[gumbel_argmax(&lw, &mut rng).unwrap()] += 1;
        }
        for i in 0..3 {
            let f = counts[i] as f64 / trials as f64;
            assert!((f - probs[i]).abs() < 0.01, "i={i}: {f} vs {}", probs[i]);
        }
    }

    #[test]
    fn gumbel_argmax_ignores_neg_infinity() {
        let lw = [f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY];
        let mut rng = DpRng::seed_from_u64(47);
        for _ in 0..100 {
            assert_eq!(gumbel_argmax(&lw, &mut rng).unwrap(), 1);
        }
    }

    #[test]
    fn gumbel_argmax_handles_huge_log_weights_without_overflow() {
        // exp(1e6) overflows, but log-space selection must still work.
        let lw = [1e6, 1e6 - 1.0];
        let mut rng = DpRng::seed_from_u64(53);
        let picks_first = (0..10_000)
            .filter(|_| gumbel_argmax(&lw, &mut rng).unwrap() == 0)
            .count() as f64
            / 10_000.0;
        let expected = 1.0 / (1.0 + (-1.0f64).exp());
        assert!((picks_first - expected).abs() < 0.02, "{picks_first}");
    }

    #[test]
    fn gumbel_argmax_error_cases() {
        let mut rng = DpRng::seed_from_u64(59);
        assert_eq!(
            gumbel_argmax(&[], &mut rng),
            Err(MechanismError::EmptyCandidates)
        );
        assert!(gumbel_argmax(&[f64::NEG_INFINITY], &mut rng).is_err());
    }
}
