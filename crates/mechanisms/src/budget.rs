//! The overdraw rule of sequential composition and the `ε₁/ε₂/ε₃` split
//! used by SVT. Running mechanisms with budgets `ε₁, …, ε_m` on the same
//! data is `(Σεᵢ)`-DP; [`charge_fits`] refuses a charge past the total
//! for every [`BudgetLedger`](crate::ledger::BudgetLedger).
//!
//! [`SvtBudget`] captures the three-way split of Algorithm 7:
//! `ε₁` perturbs the threshold, `ε₂` perturbs the query answers, and an
//! optional `ε₃` releases numeric answers for above-threshold queries.
//! The ratio `ε₁:ε₂` is the subject of the paper's Section 4.2
//! optimization (implemented in `svt-core::allocation`).

use crate::error::MechanismError;
use crate::Result;

/// Whether a charge of `epsilon` fits a budget with `spent` of `total`
/// already consumed, under the workspace-wide floating-point tolerance
/// (e.g. three charges of `0.1` fill a total of `0.3` even though
/// `0.1 × 3 ≠ 0.3` in binary).
#[inline]
#[must_use]
pub fn charge_fits(total: f64, spent: f64, epsilon: f64) -> bool {
    const TOLERANCE: f64 = 1e-12;
    spent + epsilon <= total * (1.0 + TOLERANCE) + TOLERANCE
}

/// The `ε₁/ε₂/ε₃` decomposition of an SVT invocation (Algorithm 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvtBudget {
    /// `ε₁` — perturbs the threshold (`ρ = Lap(Δ/ε₁)`).
    pub threshold: f64,
    /// `ε₂` — perturbs query answers (`ν = Lap(2cΔ/ε₂)`).
    pub queries: f64,
    /// `ε₃` — optional numeric release for positive queries
    /// (`Lap(cΔ/ε₃)`); `0` disables numeric outputs.
    pub numeric: f64,
}

impl SvtBudget {
    /// Builds a budget from explicit parts.
    ///
    /// # Errors
    /// `threshold` and `queries` must be positive and finite; `numeric`
    /// must be non-negative and finite.
    pub fn new(threshold: f64, queries: f64, numeric: f64) -> Result<Self> {
        crate::error::check_epsilon(threshold)?;
        crate::error::check_epsilon(queries)?;
        if !(numeric.is_finite() && numeric >= 0.0) {
            return Err(MechanismError::InvalidParameter(
                "numeric budget must be finite and non-negative",
            ));
        }
        Ok(Self {
            threshold,
            queries,
            numeric,
        })
    }

    /// The classic even split `ε₁ = ε₂ = ε/2`, `ε₃ = 0` — what most SVT
    /// variants in the literature use (Fig. 2 row 1).
    ///
    /// # Errors
    /// Rejects a non-positive or non-finite total.
    pub fn halves(total_epsilon: f64) -> Result<Self> {
        crate::error::check_epsilon(total_epsilon)?;
        Self::new(total_epsilon / 2.0, total_epsilon / 2.0, 0.0)
    }

    /// Splits `total_epsilon` as `ε₁ : ε₂ = 1 : ratio` with `ε₃ = 0`.
    ///
    /// # Errors
    /// Rejects non-positive totals or ratios.
    pub fn from_ratio(total_epsilon: f64, ratio: f64) -> Result<Self> {
        crate::error::check_epsilon(total_epsilon)?;
        if !(ratio.is_finite() && ratio > 0.0) {
            return Err(MechanismError::InvalidParameter(
                "budget ratio must be positive and finite",
            ));
        }
        let threshold = total_epsilon / (1.0 + ratio);
        let queries = total_epsilon - threshold;
        Self::new(threshold, queries, 0.0)
    }

    /// Total `ε` consumed by the SVT invocation (`ε₁ + ε₂ + ε₃`,
    /// Theorem 4).
    #[inline]
    pub fn total(&self) -> f64 {
        self.threshold + self.queries + self.numeric
    }

    /// The indicator-phase budget `ε₁ + ε₂` (what the ⊤/⊥ vector costs).
    #[inline]
    pub fn indicator(&self) -> f64 {
        self.threshold + self.queries
    }

    /// Whether the numeric output phase is enabled.
    #[inline]
    pub fn has_numeric_phase(&self) -> bool {
        self.numeric > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_split_evenly() {
        let b = SvtBudget::halves(0.5).unwrap();
        assert!((b.threshold - 0.25).abs() < 1e-12);
        assert!((b.queries - 0.25).abs() < 1e-12);
        assert_eq!(b.numeric, 0.0);
        assert!(!b.has_numeric_phase());
        assert!((b.total() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_split_matches_definition() {
        // 1:3 split (Alg. 4's choice): ε₁ = ε/4.
        let b = SvtBudget::from_ratio(1.0, 3.0).unwrap();
        assert!((b.threshold - 0.25).abs() < 1e-12);
        assert!((b.queries - 0.75).abs() < 1e-12);
        assert!((b.indicator() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_split_rejects_bad_ratios() {
        assert!(SvtBudget::from_ratio(1.0, 0.0).is_err());
        assert!(SvtBudget::from_ratio(1.0, f64::INFINITY).is_err());
        assert!(SvtBudget::from_ratio(0.0, 1.0).is_err());
    }

    #[test]
    fn numeric_phase_counts_toward_total() {
        let b = SvtBudget::new(0.2, 0.3, 0.5).unwrap();
        assert!(b.has_numeric_phase());
        assert!((b.total() - 1.0).abs() < 1e-12);
        assert!((b.indicator() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_numeric_budget_rejected() {
        assert!(SvtBudget::new(0.2, 0.3, -0.1).is_err());
        assert!(SvtBudget::new(0.2, 0.3, f64::NAN).is_err());
    }
}
