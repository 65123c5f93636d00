//! Composition theorems for differential privacy, including the
//! advanced composition bound the paper cites in §3.4.
//!
//! The workspace's SVT variants are pure `ε`-DP and compose
//! *sequentially* (`Σεᵢ`; tracked by [`crate::BudgetLedger`]). But
//! §3.4 of the paper notes that some SVT usages instead target
//! `(ε, δ)`-DP by exploiting the **advanced composition theorem**
//! (Dwork–Rothblum–Vadhan, FOCS 2010):
//!
//! > applying `k` instances of `ε`-DP algorithms satisfies
//! > `(ε′, δ′)`-DP, where `ε′ = √(2k ln(1/δ′))·ε + k·ε·(e^ε − 1)`.
//!
//! This module makes that bound (and its inverse — "what per-instance
//! `ε` may I spend to hit a target `(ε′, δ′)` over `k` runs?")
//! available, so an interactive deployment can trade a small `δ` for
//! substantially less per-query noise when `c` is large. The paper
//! itself confines its analysis to pure `ε`-DP ("we limit our attention
//! to SVT variants satisfying ε-DP"); this module is the flagged
//! extension that covers the other regime.

use crate::error::MechanismError;
use crate::Result;

/// An `(ε, δ)` approximate-DP guarantee.
///
/// ```
/// use dp_mechanisms::composition::{per_instance_epsilon, ApproxDp};
///
/// // How much may each of 256 composed mechanisms spend to keep the
/// // whole session (1.0, 1e-6)-DP?
/// let target = ApproxDp::new(1.0, 1e-6)?;
/// let per = per_instance_epsilon(target, 256)?;
/// // Advanced composition beats the naive 1.0/256 split here:
/// assert!(per > 1.0 / 256.0);
/// # Ok::<(), dp_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxDp {
    /// The privacy-loss bound `ε`.
    pub epsilon: f64,
    /// The failure probability `δ` (zero means pure `ε`-DP).
    pub delta: f64,
}

impl ApproxDp {
    /// Creates a guarantee, validating both parameters.
    ///
    /// # Errors
    /// `epsilon` must be positive and finite; `delta` must lie in
    /// `[0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self> {
        crate::error::check_epsilon(epsilon)?;
        if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
            return Err(MechanismError::InvalidProbability(delta));
        }
        Ok(Self { epsilon, delta })
    }

    /// A pure `ε`-DP guarantee (`δ = 0`).
    ///
    /// # Errors
    /// Rejects non-positive or non-finite `epsilon`.
    pub fn pure(epsilon: f64) -> Result<Self> {
        Self::new(epsilon, 0.0)
    }

    /// Whether this is a pure (δ = 0) guarantee.
    #[inline]
    pub fn is_pure(&self) -> bool {
        self.delta == 0.0
    }
}

/// Basic (sequential) composition: `k` runs of an `ε`-DP mechanism are
/// `(k·ε)`-DP. Exact, with no `δ` cost.
///
/// # Errors
/// Rejects non-positive or non-finite `epsilon`, or `k == 0`.
pub fn basic_composition(epsilon: f64, k: usize) -> Result<f64> {
    crate::error::check_epsilon(epsilon)?;
    check_k(k)?;
    Ok(k as f64 * epsilon)
}

/// Advanced composition (§3.4): `k` runs of an `ε`-DP mechanism are
/// `(ε′, δ)`-DP with `ε′ = √(2k ln(1/δ))·ε + k·ε·(e^ε − 1)`.
///
/// For small `ε` and large `k` this scales as `√k·ε` instead of `k·ε`,
/// which is where the savings over [`basic_composition`] come from.
///
/// # Errors
/// Rejects invalid `epsilon`, `k == 0`, or `delta` outside `(0, 1)`
/// (advanced composition needs a strictly positive `δ`).
pub fn advanced_composition(epsilon: f64, k: usize, delta: f64) -> Result<f64> {
    crate::error::check_epsilon(epsilon)?;
    check_k(k)?;
    check_open_delta(delta)?;
    let kf = k as f64;
    Ok((2.0 * kf * (1.0 / delta).ln()).sqrt() * epsilon + kf * epsilon * (epsilon.exp() - 1.0))
}

/// The tighter of basic and advanced composition for the same inputs.
///
/// Advanced composition is *worse* than basic for small `k` or large
/// `ε` (its √-term constant dominates); a careful accountant always
/// takes the minimum, which is itself a valid `(ε′, δ)` guarantee.
///
/// # Errors
/// As [`advanced_composition`].
pub fn best_composition(epsilon: f64, k: usize, delta: f64) -> Result<f64> {
    Ok(advanced_composition(epsilon, k, delta)?.min(basic_composition(epsilon, k)?))
}

/// Inverts [`advanced_composition`]: the largest per-instance `ε` such
/// that `k` runs stay within `target.epsilon` at failure probability
/// `target.delta`.
///
/// Uses bisection (the forward map is strictly increasing in `ε`);
/// the result is exact to within `1e-12` relative tolerance. Also
/// considers plain sequential composition (`target.epsilon / k`) and
/// returns whichever per-instance budget is larger, since both bounds
/// are valid.
///
/// # Errors
/// Rejects `k == 0` or a target with `δ` outside `(0, 1)`.
pub fn per_instance_epsilon(target: ApproxDp, k: usize) -> Result<f64> {
    check_k(k)?;
    check_open_delta(target.delta)?;
    crate::error::check_epsilon(target.epsilon)?;
    let basic = target.epsilon / k as f64;
    // Bisection bracket: the advanced bound at ε = basic is ≥ target
    // exactly when advanced is no better than basic, so [0, hi] with
    // hi = target.epsilon always brackets the root.
    let mut lo = 0.0f64;
    let mut hi = target.epsilon;
    // The forward map at hi: k·hi·(e^hi − 1) alone already exceeds the
    // target for k ≥ 1 and hi = target (since e^x − 1 > x·… for x > 0
    // when k ≥ 1 — verified below by construction of the loop).
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= 0.0 {
            break;
        }
        match advanced_composition(mid, k, target.delta) {
            Ok(v) if v <= target.epsilon => lo = mid,
            _ => hi = mid,
        }
        if (hi - lo) <= 1e-12 * hi.max(1.0) {
            break;
        }
    }
    Ok(lo.max(basic))
}

/// How much per-instance budget advanced composition buys relative to
/// basic composition: `per_instance_epsilon(target, k) / (target.ε / k)`.
///
/// Values above `1` mean advanced composition lets each instance spend
/// more (add less noise); the factor grows like `√k` for small targets.
///
/// # Errors
/// As [`per_instance_epsilon`].
pub fn composition_advantage(target: ApproxDp, k: usize) -> Result<f64> {
    let adv = per_instance_epsilon(target, k)?;
    Ok(adv / (target.epsilon / k as f64))
}

fn check_k(k: usize) -> Result<()> {
    if k == 0 {
        Err(MechanismError::InvalidParameter(
            "composition requires at least one mechanism (k ≥ 1)",
        ))
    } else {
        Ok(())
    }
}

fn check_open_delta(delta: f64) -> Result<()> {
    if delta.is_finite() && delta > 0.0 && delta < 1.0 {
        Ok(())
    } else {
        Err(MechanismError::InvalidProbability(delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_dp_validation() {
        assert!(ApproxDp::new(1.0, 1e-6).is_ok());
        assert!(ApproxDp::pure(0.5).unwrap().is_pure());
        assert!(ApproxDp::new(0.0, 0.1).is_err());
        assert!(ApproxDp::new(1.0, 1.0).is_err());
        assert!(ApproxDp::new(1.0, -0.1).is_err());
        assert!(ApproxDp::new(1.0, f64::NAN).is_err());
    }

    #[test]
    fn basic_composition_is_linear() {
        assert!((basic_composition(0.1, 10).unwrap() - 1.0).abs() < 1e-12);
        assert!(basic_composition(0.1, 0).is_err());
        assert!(basic_composition(-0.1, 3).is_err());
    }

    #[test]
    fn advanced_composition_matches_formula() {
        // Hand-evaluate ε′ = √(2k ln(1/δ))ε + kε(e^ε − 1).
        let (eps, k, delta) = (0.1, 100usize, 1e-5);
        let expected =
            (2.0 * 100.0 * (1e5f64).ln()).sqrt() * 0.1 + 100.0 * 0.1 * (0.1f64.exp() - 1.0);
        let got = advanced_composition(eps, k, delta).unwrap();
        assert!((got - expected).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn advanced_composition_rejects_zero_delta() {
        assert!(advanced_composition(0.1, 10, 0.0).is_err());
        assert!(advanced_composition(0.1, 10, 1.0).is_err());
    }

    #[test]
    fn advanced_beats_basic_for_large_k_small_epsilon() {
        let eps = 0.01;
        let delta = 1e-6;
        let basic = basic_composition(eps, 10_000).unwrap();
        let advanced = advanced_composition(eps, 10_000, delta).unwrap();
        assert!(
            advanced < basic,
            "advanced {advanced} should beat basic {basic}"
        );
    }

    #[test]
    fn basic_beats_advanced_for_small_k() {
        // For k = 1 the √-term alone exceeds ε, so basic wins.
        let eps = 0.5;
        let delta = 1e-6;
        let basic = basic_composition(eps, 1).unwrap();
        let advanced = advanced_composition(eps, 1, delta).unwrap();
        assert!(advanced > basic);
        assert!((best_composition(eps, 1, delta).unwrap() - basic).abs() < 1e-12);
    }

    #[test]
    fn forward_map_is_monotone_in_epsilon() {
        let mut prev = 0.0;
        for i in 1..=50 {
            let eps = i as f64 * 0.02;
            let v = advanced_composition(eps, 64, 1e-5).unwrap();
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn inverse_recovers_forward() {
        let target = ApproxDp::new(1.0, 1e-5).unwrap();
        for &k in &[2usize, 16, 128, 1024] {
            let per = per_instance_epsilon(target, k).unwrap();
            let achieved = best_composition(per, k, target.delta).unwrap();
            assert!(
                achieved <= target.epsilon * (1.0 + 1e-9),
                "k={k}: achieved {achieved}"
            );
            // And it is not needlessly conservative: spending 1% more
            // per instance would blow the target.
            let bumped = best_composition(per * 1.01, k, target.delta).unwrap();
            assert!(bumped > target.epsilon, "k={k}: bumped {bumped}");
        }
    }

    #[test]
    fn inverse_falls_back_to_basic_when_advanced_is_worse() {
        // k = 1: the best per-instance budget is the whole target.
        let target = ApproxDp::new(0.5, 1e-6).unwrap();
        let per = per_instance_epsilon(target, 1).unwrap();
        assert!((per - 0.5).abs() < 1e-9, "per {per}");
    }

    #[test]
    fn advantage_grows_with_k() {
        let target = ApproxDp::new(1.0, 1e-5).unwrap();
        let a16 = composition_advantage(target, 16).unwrap();
        let a1024 = composition_advantage(target, 1024).unwrap();
        assert!(a1024 > a16, "a16={a16} a1024={a1024}");
        assert!(a16 >= 1.0 - 1e-12);
        // √k scaling: at k = 1024 the advantage should be well above 5×.
        assert!(a1024 > 5.0, "a1024={a1024}");
    }

    #[test]
    fn zero_k_is_rejected_everywhere() {
        let target = ApproxDp::new(1.0, 1e-5).unwrap();
        assert!(per_instance_epsilon(target, 0).is_err());
        assert!(advanced_composition(0.1, 0, 1e-5).is_err());
        assert!(composition_advantage(target, 0).is_err());
    }
}
