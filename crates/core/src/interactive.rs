//! The corrected answer-from-history mediator of §3.4.
//!
//! SVT's unique power is interactive: a sequence of queries arrives
//! *online*, each ⊥ answer is free, and only ⊤ answers consume budget —
//! so with one `(ε₁+ε₂)` charge an analyst can keep asking questions
//! until `c` of them come back positive. A plain interactive session is
//! a [`SessionDriver`] plus one
//! [`BudgetLedger::charge`](dp_mechanisms::BudgetLedger::charge).
//!
//! [`HistoryMediator`] implements the iterative-construction idea from
//! the introduction on top of a driver, with the §3.4 **fix**: the papers
//! [12, 16] tested `|q̃ᵢ − qᵢ(D) + νᵢ| ≥ T + ρ` — noise *inside* the
//! absolute value — which makes the left side non-negative, so any ⊤
//! reveals `ρ ≥ −T` and the free-negatives argument collapses. The
//! corrected check treats the derived-answer error `rᵢ = |q̃ᵢ − qᵢ(D)|`
//! as the query and adds the noise *outside*: `rᵢ + νᵢ ≥ T + ρ`.

use crate::alg::StandardSvtConfig;
use crate::session::SessionDriver;
use crate::{Result, SvtError};
use dp_mechanisms::{budget::charge_fits, DpRng, Laplace, MechanismError};
use std::collections::HashMap;

/// Statistics of a [`HistoryMediator`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediatorStats {
    /// Queries answered from history (free).
    pub answered_from_history: usize,
    /// Queries that triggered a database access (paid).
    pub database_accesses: usize,
}

/// The §3.4-corrected interactive mediator: answers queries from a
/// cached history when the cached answer is accurate enough (checked
/// privately via SVT), touching the database — and spending budget —
/// only when it is not.
#[derive(Debug)]
pub struct HistoryMediator {
    driver: SessionDriver,
    /// `Lap(Δ/ε)` for one database refresh.
    refresh: Laplace,
    /// The worst case committed at construction.
    committed: f64,
    error_threshold: f64,
    cache: HashMap<u64, f64>,
    /// Fallback estimate for never-seen queries.
    default_estimate: f64,
    stats: MediatorStats,
}

impl HistoryMediator {
    /// Creates a mediator, opening its [`SessionDriver`] on `rng`.
    ///
    /// * `svt_config` — the SVT used to test derived-answer errors
    ///   (its `c` bounds how many database accesses are allowed);
    /// * `refresh_epsilon` — Laplace budget spent per database access;
    /// * `error_threshold` — the `T` against which the derived answer's
    ///   error is tested;
    /// * `total_epsilon` — overall budget: the SVT indicator budget plus
    ///   `c` refreshes must fit.
    ///
    /// # Errors
    /// Parameter validation, including a refresh noise scale
    /// `Δ/refresh_epsilon` that is not finite; `BudgetExhausted` if the
    /// worst-case cost (`ε₁ + ε₂ + c·refresh_epsilon`) exceeds
    /// `total_epsilon`.
    pub fn new(
        total_epsilon: f64,
        svt_config: StandardSvtConfig,
        refresh_epsilon: f64,
        error_threshold: f64,
        default_estimate: f64,
        rng: &mut DpRng,
    ) -> Result<Self> {
        dp_mechanisms::error::check_epsilon(total_epsilon).map_err(SvtError::from)?;
        let refresh =
            Laplace::for_query(svt_config.sensitivity, refresh_epsilon).map_err(SvtError::from)?;
        crate::error::check_finite(error_threshold, "error threshold")?;
        crate::error::check_finite(default_estimate, "default estimate")?;
        // Commit the worst case up front: the indicator plus c refreshes.
        let committed = svt_config.budget.total() + refresh_epsilon * svt_config.c as f64;
        if !charge_fits(total_epsilon, 0.0, committed) {
            return Err(SvtError::from(MechanismError::BudgetExhausted {
                requested: committed,
                remaining: total_epsilon,
            }));
        }
        Ok(Self {
            driver: SessionDriver::open(svt_config, rng)?,
            refresh,
            committed,
            error_threshold,
            cache: HashMap::new(),
            default_estimate,
            stats: MediatorStats::default(),
        })
    }

    /// Answers query `query_id` whose true answer is `true_answer`.
    ///
    /// The derived answer `q̃` comes from the cache (or the default
    /// estimate). Its error `r = |q̃ − q(D)|` is a sensitivity-`Δ` query;
    /// SVT tests `r + ν ≥ T + ρ`. On ⊥ the cached answer is returned
    /// free; on ⊤ a fresh Laplace answer (noise drawn from `rng`) is
    /// bought, cached, and returned.
    ///
    /// # Errors
    /// [`SvtError::Halted`] when the access allowance is exhausted.
    pub fn answer(&mut self, query_id: u64, true_answer: f64, rng: &mut DpRng) -> Result<f64> {
        crate::error::check_finite(true_answer, "query answer")?;
        let estimate = *self.cache.get(&query_id).unwrap_or(&self.default_estimate);
        // The corrected §3.4 check: noise OUTSIDE the absolute value.
        let error_query = (estimate - true_answer).abs();
        let verdict = self.driver.ask(error_query, self.error_threshold)?;
        if verdict.is_positive() {
            let refreshed = true_answer + self.refresh.sample(rng);
            self.cache.insert(query_id, refreshed);
            self.stats.database_accesses += 1;
            Ok(refreshed)
        } else {
            self.stats.answered_from_history += 1;
            Ok(estimate)
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> MediatorStats {
        self.stats
    }

    /// Whether the database-access allowance is spent.
    pub fn is_exhausted(&self) -> bool {
        self.driver.is_exhausted()
    }

    /// Total budget actually committed (indicator + reserved refreshes).
    pub fn committed_budget(&self) -> f64 {
        self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mechanisms::SvtBudget;

    fn svt_config(c: usize) -> StandardSvtConfig {
        StandardSvtConfig {
            budget: SvtBudget::halves(0.5).unwrap(),
            sensitivity: 1.0,
            c,
            monotonic: false,
        }
    }

    #[test]
    fn mediator_reserves_worst_case_budget() {
        let mut rng = DpRng::seed_from_u64(577);
        // indicator 0.5 + 3 × 0.1 = 0.8 committed.
        let m = HistoryMediator::new(1.0, svt_config(3), 0.1, 5.0, 0.0, &mut rng).unwrap();
        assert!((m.committed_budget() - 0.8).abs() < 1e-12);
        // Doesn't fit → error.
        let mut rng2 = DpRng::seed_from_u64(577);
        assert!(HistoryMediator::new(0.7, svt_config(3), 0.1, 5.0, 0.0, &mut rng2).is_err());
    }

    #[test]
    fn mediator_rejects_refresh_noise_that_overflows() {
        // ε = 1e-320 is positive and finite, but Δ/ε overflows to ∞: refuse
        // it up front instead of spending ⊤s on refreshes it cannot sample.
        let mut rng = DpRng::seed_from_u64(579);
        assert!(HistoryMediator::new(1.0, svt_config(3), 1e-320, 5.0, 0.0, &mut rng).is_err());
    }

    #[test]
    fn mediator_decisions_match_a_driver_fed_the_same_errors() {
        // The mediator's ⊤/⊥ stream is a SessionDriver's, opened from the
        // same seed and asked the same |q̃ − q(D)| error queries.
        let mut rng = DpRng::seed_from_u64(613);
        let mut m = HistoryMediator::new(10.0, svt_config(20), 0.25, 25.0, 0.0, &mut rng).unwrap();
        let mut driver =
            SessionDriver::open(svt_config(20), &mut DpRng::seed_from_u64(613)).unwrap();
        let mut history = HashMap::new();
        for id in (0..5u64).cycle().take(400) {
            if m.is_exhausted() {
                break;
            }
            let truth = 50.0 * (id + 1) as f64;
            let estimate = history.get(&id).copied().unwrap_or(0.0);
            let want = driver.ask((estimate - truth).abs(), 25.0).unwrap();
            let paid = m.stats().database_accesses;
            history.insert(id, m.answer(id, truth, &mut rng).unwrap());
            assert_eq!(m.stats().database_accesses > paid, want.is_positive());
        }
        assert!(m.stats().database_accesses > 0 && m.stats().answered_from_history > 0);
        assert_eq!(m.is_exhausted(), driver.is_exhausted());
    }

    #[test]
    fn accurate_history_answers_free() {
        let mut rng = DpRng::seed_from_u64(587);
        // Huge error threshold: the cached/default answer always passes.
        let mut m = HistoryMediator::new(1.0, svt_config(2), 0.1, 1e9, 42.0, &mut rng).unwrap();
        for id in 0..50 {
            let v = m.answer(id, 40.0, &mut rng).unwrap();
            assert_eq!(v, 42.0, "default estimate served from history");
        }
        assert_eq!(m.stats().answered_from_history, 50);
        assert_eq!(m.stats().database_accesses, 0);
    }

    #[test]
    fn stale_history_triggers_paid_refresh_then_serves_cache() {
        let mut rng = DpRng::seed_from_u64(593);
        // Tight threshold & generous SVT budget: a large error reliably
        // triggers a refresh.
        let config = StandardSvtConfig {
            budget: SvtBudget::halves(200.0).unwrap(),
            sensitivity: 1.0,
            c: 4,
            monotonic: false,
        };
        let mut m = HistoryMediator::new(500.0, config, 50.0, 10.0, 0.0, &mut rng).unwrap();
        // True answer 1000, default estimate 0 → error 1000 >> 10 → refresh.
        let v1 = m.answer(7, 1000.0, &mut rng).unwrap();
        assert!(
            (v1 - 1000.0).abs() < 5.0,
            "refreshed answer near truth: {v1}"
        );
        assert_eq!(m.stats().database_accesses, 1);
        // Now the cache is accurate → next ask is free.
        let v2 = m.answer(7, 1000.0, &mut rng).unwrap();
        assert_eq!(v2, v1);
        assert_eq!(m.stats().answered_from_history, 1);
    }

    #[test]
    fn mediator_halts_after_c_accesses() {
        let mut rng = DpRng::seed_from_u64(599);
        let config = StandardSvtConfig {
            budget: SvtBudget::halves(200.0).unwrap(),
            sensitivity: 1.0,
            c: 2,
            monotonic: false,
        };
        let mut m = HistoryMediator::new(400.0, config, 50.0, 10.0, 0.0, &mut rng).unwrap();
        let _ = m.answer(1, 1e4, &mut rng).unwrap();
        let _ = m.answer(2, 1e4, &mut rng).unwrap();
        assert!(m.is_exhausted());
        assert!(matches!(m.answer(3, 1e4, &mut rng), Err(SvtError::Halted)));
    }
}
