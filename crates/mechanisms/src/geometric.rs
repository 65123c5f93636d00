//! The two-sided geometric mechanism for integer-valued queries.
//!
//! The Laplace mechanism releases real numbers even when the underlying
//! query is a count. For counting queries (the paper's evaluation
//! workloads are item supports) the natural discrete analogue adds
//! **two-sided geometric** noise:
//!
//! ```text
//! Pr[X = k] = (1 − α)/(1 + α) · α^|k|,   k ∈ ℤ,   α = e^(−ε/Δ)
//! ```
//!
//! Adding `X` to an integer query of sensitivity `Δ` satisfies `ε`-DP,
//! by the same telescoping argument as the Laplace mechanism — the
//! distribution is the Laplace density restricted to the integers and
//! renormalized. This module is the discrete companion of
//! [`crate::laplace`] and an extension beyond the paper: it is not used
//! by the paper's experiments (which follow the paper in using Laplace
//! noise on counts) but is provided for downstream users who want
//! integer-valued releases, and the `counting_release` example
//! exercises it.
//!
//! Sampling is exact (no floating-point truncation of the support): a
//! draw is `0` with probability `(1−α)/(1+α)`, otherwise a uniform sign
//! is attached to a geometric magnitude.

use crate::error::MechanismError;
use crate::rng::DpRng;
use crate::Result;

/// The symmetric (two-sided) geometric distribution over the integers.
///
/// Parametrized by `α ∈ (0, 1)`; smaller `α` concentrates more mass at
/// zero. For a DP release use [`TwoSidedGeometric::from_epsilon`], which
/// sets `α = e^(−ε/Δ)`.
///
/// ```
/// use dp_mechanisms::{geometric_mechanism, DpRng, TwoSidedGeometric};
///
/// let mut rng = DpRng::seed_from_u64(42);
/// // Release an integer support count under ε = 1 (Δ = 1):
/// let released = geometric_mechanism(1_000, 1.0, 1.0, &mut rng)?;
/// assert!((released - 1_000).abs() < 30);
///
/// // The distribution itself is fully analytic:
/// let d = TwoSidedGeometric::from_epsilon(1.0, 1.0)?;
/// assert!((d.pmf(0) + d.pmf(1) + d.pmf(-1)).is_finite());
/// assert!((d.cdf(0) + d.survival(0) - 1.0).abs() < 1e-12);
/// # Ok::<(), dp_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSidedGeometric {
    alpha: f64,
}

impl TwoSidedGeometric {
    /// Creates the distribution with decay parameter `alpha`.
    ///
    /// # Errors
    /// `alpha` must lie strictly inside `(0, 1)`.
    pub fn new(alpha: f64) -> Result<Self> {
        if alpha.is_finite() && alpha > 0.0 && alpha < 1.0 {
            Ok(Self { alpha })
        } else {
            Err(MechanismError::InvalidParameter(
                "two-sided geometric decay must lie strictly in (0, 1)",
            ))
        }
    }

    /// The calibration used for an `ε`-DP release of a sensitivity-`Δ`
    /// integer query: `α = e^(−ε/Δ)`.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite `epsilon` / `sensitivity`.
    pub fn from_epsilon(epsilon: f64, sensitivity: f64) -> Result<Self> {
        crate::error::check_epsilon(epsilon)?;
        crate::error::check_sensitivity(sensitivity)?;
        Self::new((-epsilon / sensitivity).exp())
    }

    /// The decay parameter `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability mass at integer `k`.
    pub fn pmf(&self, k: i64) -> f64 {
        let a = self.alpha;
        (1.0 - a) / (1.0 + a) * a.powi(k.unsigned_abs().min(i32::MAX as u64) as i32)
    }

    /// Distribution function `Pr[X ≤ k]`.
    ///
    /// Closed forms: `α^(−k)/(1+α)` for `k < 0` and
    /// `1 − α^(k+1)/(1+α)` for `k ≥ 0`.
    pub fn cdf(&self, k: i64) -> f64 {
        let a = self.alpha;
        if k < 0 {
            a.powi((-k).min(i64::from(i32::MAX)) as i32) / (1.0 + a)
        } else {
            1.0 - a.powi((k + 1).min(i64::from(i32::MAX)) as i32) / (1.0 + a)
        }
    }

    /// Survival function `Pr[X > k]`; computed directly (not as
    /// `1 − cdf`) so deep-tail probabilities keep full precision.
    pub fn survival(&self, k: i64) -> f64 {
        let a = self.alpha;
        if k < 0 {
            1.0 - a.powi((-k).min(i64::from(i32::MAX)) as i32) / (1.0 + a)
        } else {
            a.powi((k + 1).min(i64::from(i32::MAX)) as i32) / (1.0 + a)
        }
    }

    /// The distribution's variance, `2α/(1−α)²`.
    pub fn variance(&self) -> f64 {
        let a = self.alpha;
        2.0 * a / ((1.0 - a) * (1.0 - a))
    }

    /// Draws one exact sample.
    ///
    /// With probability `(1−α)/(1+α)` the draw is `0`; otherwise a
    /// uniform sign is attached to a magnitude `M ≥ 1` with
    /// `Pr[M = m] = (1−α)α^(m−1)`, giving the stated two-sided mass
    /// function exactly.
    pub fn sample(&self, rng: &mut DpRng) -> i64 {
        let a = self.alpha;
        if rng.uniform() < (1.0 - a) / (1.0 + a) {
            return 0;
        }
        let sign = if rng.bernoulli(0.5) { 1 } else { -1 };
        // Geometric on {1, 2, …} by inversion: m = ⌈ln(u)/ln(α)⌉ for
        // u ∈ (0, 1) — equivalently 1 + ⌊ln(u)/ln(α)⌋ a.s.
        let u = rng.open_uniform();
        let m = (u.ln() / a.ln()).floor() as i64 + 1;
        sign * m.max(1)
    }
}

/// Releases an integer query answer under `ε`-DP by adding two-sided
/// geometric noise calibrated to `sensitivity`.
///
/// The discrete analogue of [`crate::laplace::laplace_mechanism`], with
/// the same argument order (`value, sensitivity, epsilon`).
///
/// # Errors
/// Rejects non-positive or non-finite `epsilon` / `sensitivity`.
pub fn geometric_mechanism(
    true_answer: i64,
    sensitivity: f64,
    epsilon: f64,
    rng: &mut DpRng,
) -> Result<i64> {
    let dist = TwoSidedGeometric::from_epsilon(epsilon, sensitivity)?;
    Ok(true_answer.saturating_add(dist.sample(rng)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_alpha() {
        assert!(TwoSidedGeometric::new(0.5).is_ok());
        assert!(TwoSidedGeometric::new(0.0).is_err());
        assert!(TwoSidedGeometric::new(1.0).is_err());
        assert!(TwoSidedGeometric::new(-0.3).is_err());
        assert!(TwoSidedGeometric::new(f64::NAN).is_err());
    }

    #[test]
    fn epsilon_calibration_sets_alpha() {
        let d = TwoSidedGeometric::from_epsilon(1.0, 1.0).unwrap();
        assert!((d.alpha() - (-1.0f64).exp()).abs() < 1e-15);
        let d = TwoSidedGeometric::from_epsilon(0.5, 2.0).unwrap();
        assert!((d.alpha() - (-0.25f64).exp()).abs() < 1e-15);
        assert!(TwoSidedGeometric::from_epsilon(0.0, 1.0).is_err());
        assert!(TwoSidedGeometric::from_epsilon(1.0, 0.0).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = TwoSidedGeometric::new(0.7).unwrap();
        let total: f64 = (-300..=300).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn pmf_is_symmetric_and_decaying() {
        let d = TwoSidedGeometric::new(0.6).unwrap();
        for k in 0..20 {
            assert!((d.pmf(k) - d.pmf(-k)).abs() < 1e-15);
            assert!(d.pmf(k + 1) < d.pmf(k));
        }
    }

    #[test]
    fn cdf_matches_pmf_partial_sums() {
        let d = TwoSidedGeometric::new(0.8).unwrap();
        let mut acc = 0.0;
        for k in -200..=200 {
            acc += d.pmf(k);
            assert!(
                (d.cdf(k) - acc).abs() < 1e-10,
                "cdf({k}) = {} vs partial sum {acc}",
                d.cdf(k)
            );
        }
    }

    #[test]
    fn survival_complements_cdf() {
        let d = TwoSidedGeometric::new(0.4).unwrap();
        for k in [-50, -3, -1, 0, 1, 3, 50] {
            assert!((d.cdf(k) + d.survival(k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_ratio_respects_epsilon() {
        // Shifting the true answer by Δ = 1 changes any output's
        // probability by at most e^ε — the DP guarantee, checked on the
        // mass function directly.
        let eps = 0.7;
        let d = TwoSidedGeometric::from_epsilon(eps, 1.0).unwrap();
        for k in -30..=30 {
            let ratio = d.pmf(k) / d.pmf(k + 1);
            assert!(
                ratio <= eps.exp() + 1e-12 && ratio >= (-eps).exp() - 1e-12,
                "k={k} ratio={ratio}"
            );
        }
    }

    #[test]
    fn sample_frequencies_match_pmf() {
        let d = TwoSidedGeometric::new(0.5).unwrap();
        let mut rng = DpRng::seed_from_u64(97);
        let n = 200_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(d.sample(&mut rng)).or_insert(0usize) += 1;
        }
        for k in -4..=4 {
            let expected = d.pmf(k);
            let observed = *counts.get(&k).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.005,
                "k={k}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sample_mean_is_near_zero_and_variance_matches() {
        let d = TwoSidedGeometric::new(0.6).unwrap();
        let mut rng = DpRng::seed_from_u64(101);
        let n = 100_000;
        let draws: Vec<i64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = draws.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var = draws
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(
            (var - d.variance()).abs() / d.variance() < 0.05,
            "var {var} vs {}",
            d.variance()
        );
    }

    #[test]
    fn mechanism_perturbs_around_truth() {
        let mut rng = DpRng::seed_from_u64(103);
        let released = geometric_mechanism(1_000, 1.0, 1.0, &mut rng).unwrap();
        assert!((released - 1_000).abs() < 50, "released {released}");
        assert!(geometric_mechanism(0, 1.0, -1.0, &mut rng).is_err());
        assert!(geometric_mechanism(0, -1.0, 1.0, &mut rng).is_err());
    }

    #[test]
    fn variance_grows_as_epsilon_shrinks() {
        let tight = TwoSidedGeometric::from_epsilon(1.0, 1.0).unwrap();
        let loose = TwoSidedGeometric::from_epsilon(0.1, 1.0).unwrap();
        assert!(loose.variance() > tight.variance());
    }
}
