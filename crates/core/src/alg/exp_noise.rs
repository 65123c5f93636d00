//! Exponential-noise SVT — the accuracy-enhanced variant of
//! arXiv:2407.20068. **ε-DP**, with one-sided noise.
//!
//! Structurally this is Algorithm 7's ⊤/⊥ phase with both perturbations
//! drawn from the one-sided exponential distribution instead of
//! Laplace:
//!
//! - `ρ ~ Exp(Δ/ε₁)`, fixed for the session;
//! - `ν ~ Exp(kcΔ/ε₂)` per query, `k = 1` monotonic / `2` general.
//!
//! Why the Laplace scales carry over: the SVT privacy proof only ever
//! shifts `ρ` and `ν` *upwards* by the sensitivity when moving to the
//! neighbouring database, and on its support the exponential density
//! satisfies `f(x)/f(x+Δ) = exp(Δ/b)` exactly — the same bound
//! `Lap(b)` provides. The win is accuracy: `Exp(b)` has variance `b²`
//! against `Lap(b)`'s `2b²`, and its noise never pushes a query *below*
//! its true value relative to the unperturbed threshold comparison's
//! symmetric error.
//!
//! One-sidedness is **not** DP for numeric release (a downward shift of
//! an observed `q + ν` has unbounded likelihood ratio), so this variant
//! rejects budgets with a numeric phase.

use crate::alg::{SparseVector, StandardSvtConfig};
use crate::response::SvtAnswer;
use crate::session::SessionState;
use crate::streaming::SvtNoise;
use crate::{Result, SvtError};
use dp_mechanisms::exp_noise::Exponential;
use dp_mechanisms::DpRng;

/// The exponential SVT's noise family: both scales as Algorithm 7's,
/// and no numeric phase (see the module docs).
impl SvtNoise for Exponential {
    fn for_config(config: &StandardSvtConfig) -> Result<(Self, Self)> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        let query_noise = Exponential::new(config.query_noise_scale()).map_err(SvtError::from)?;
        let threshold_noise =
            Exponential::new(config.threshold_noise_scale()).map_err(SvtError::from)?;
        if config.budget.has_numeric_phase() {
            return Err(SvtError::from(
                dp_mechanisms::MechanismError::InvalidParameter(
                    "one-sided exponential noise is not DP for numeric release",
                ),
            ));
        }
        Ok((threshold_noise, query_noise))
    }
}

/// The exponential-noise SVT. Satisfies `(ε₁+ε₂)`-DP with one-sided
/// `Exp` perturbations at the Laplace scales.
///
/// ```
/// use dp_mechanisms::{DpRng, SvtBudget};
/// use svt_core::alg::{ExpNoiseSvt, SparseVector, StandardSvtConfig};
///
/// let mut rng = DpRng::seed_from_u64(7);
/// let config = StandardSvtConfig {
///     budget: SvtBudget::halves(1.0)?,
///     sensitivity: 1.0,
///     c: 2,
///     monotonic: true,
/// };
/// let mut alg = ExpNoiseSvt::new(config, &mut rng)?;
/// let answer = alg.respond(1e9, 0.0, &mut rng)?;
/// assert!(answer.is_positive());
/// # Ok::<(), svt_core::SvtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExpNoiseSvt {
    state: SessionState,
    query_noise: Exponential,
}

impl ExpNoiseSvt {
    /// Draws `ρ = Exp(Δ/ε₁)` from `rng` and prepares the `Exp(kcΔ/ε₂)`
    /// query noise.
    ///
    /// # Errors
    /// Rejects the same invalid configurations as
    /// [`StandardSvt::new`](crate::alg::StandardSvt::new), plus any
    /// budget with a numeric phase — one-sided noise is not DP for
    /// numeric release (see the module docs).
    pub fn new(config: StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        let (threshold_noise, query_noise) = Exponential::for_config(&config)?;
        let rho = threshold_noise.sample(rng);
        Ok(Self {
            state: SessionState::new(config, rho)?,
            query_noise,
        })
    }

    /// The configuration in force.
    #[inline]
    pub fn config(&self) -> &StandardSvtConfig {
        self.state.config()
    }

    #[cfg(test)]
    pub(crate) fn rho(&self) -> f64 {
        self.state.rho()
    }
}

impl SparseVector for ExpNoiseSvt {
    fn respond(&mut self, query_answer: f64, threshold: f64, rng: &mut DpRng) -> Result<SvtAnswer> {
        self.state.check(query_answer, threshold)?;
        let nu = self.query_noise.sample(rng);
        Ok(
            if self.state.observe_unchecked(query_answer, threshold, nu) {
                SvtAnswer::Above
            } else {
                SvtAnswer::Below
            },
        )
    }

    fn is_halted(&self) -> bool {
        self.state.is_halted()
    }

    fn positives(&self) -> usize {
        self.state.positives()
    }

    fn name(&self) -> &'static str {
        "SVT-Exp (one-sided noise)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::run_svt;
    use crate::threshold::Thresholds;
    use dp_mechanisms::SvtBudget;

    fn config(epsilon: f64, c: usize) -> StandardSvtConfig {
        StandardSvtConfig {
            budget: SvtBudget::halves(epsilon).unwrap(),
            sensitivity: 1.0,
            c,
            monotonic: true,
        }
    }

    #[test]
    fn construction_validates_and_rejects_numeric_phase() {
        let mut rng = DpRng::seed_from_u64(347);
        let mut bad = config(1.0, 1);
        bad.sensitivity = -1.0;
        assert!(ExpNoiseSvt::new(bad, &mut rng).is_err());
        let mut bad_c = config(1.0, 1);
        bad_c.c = 0;
        assert!(ExpNoiseSvt::new(bad_c, &mut rng).is_err());
        let numeric = StandardSvtConfig {
            budget: SvtBudget::new(0.25, 0.25, 0.5).unwrap(),
            sensitivity: 1.0,
            c: 2,
            monotonic: true,
        };
        assert!(ExpNoiseSvt::new(numeric, &mut rng).is_err());
    }

    #[test]
    fn threshold_noise_is_one_sided() {
        let mut rng = DpRng::seed_from_u64(349);
        for _ in 0..500 {
            let alg = ExpNoiseSvt::new(config(1.0, 1), &mut rng).unwrap();
            assert!(alg.rho() >= 0.0, "ρ must be non-negative");
        }
    }

    #[test]
    fn threshold_noise_mean_matches_the_laplace_scale() {
        // Mean Exp(b) = b with b = Δ/ε₁ = 2 for ε = 1.
        let mut rng = DpRng::seed_from_u64(353);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| ExpNoiseSvt::new(config(1.0, 1), &mut rng).unwrap().rho())
            .sum::<f64>()
            / n as f64;
        assert!((mean / 2.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn one_sided_noise_never_lifts_a_deeply_negative_query() {
        // ν ≥ 0 and ρ ≥ 0, so ⊤ requires ν ≥ (T − q) + ρ; for clearly
        // separated scores the answers are near-deterministic.
        let mut rng = DpRng::seed_from_u64(359);
        let mut alg = ExpNoiseSvt::new(config(2.0, 5), &mut rng).unwrap();
        let run = run_svt(
            &mut alg,
            &[1e9, -1e9, 1e9, -1e9],
            &Thresholds::Constant(0.0),
            &mut rng,
        )
        .unwrap();
        let positives: Vec<bool> = run.answers.iter().map(|a| a.is_positive()).collect();
        assert_eq!(positives, vec![true, false, true, false]);
    }

    #[test]
    fn aborts_at_cutoff() {
        let mut rng = DpRng::seed_from_u64(367);
        let mut alg = ExpNoiseSvt::new(config(1.0, 2), &mut rng).unwrap();
        let run = run_svt(&mut alg, &[1e12; 5], &Thresholds::Constant(0.0), &mut rng).unwrap();
        assert_eq!(run.positives(), 2);
        assert!(run.halted);
        assert!(matches!(
            alg.respond(0.0, 0.0, &mut rng),
            Err(SvtError::Halted)
        ));
    }

    #[test]
    fn errors_consume_no_noise() {
        // Same lockstep pin as the other variants: a failed respond
        // leaves the generator untouched.
        let cfg = config(1.0, 3);
        let mut rng_a = DpRng::seed_from_u64(373);
        let mut alg = ExpNoiseSvt::new(cfg, &mut rng_a).unwrap();
        let mut rng_b = DpRng::seed_from_u64(373);
        let rho_dist = Exponential::new(cfg.threshold_noise_scale()).unwrap();
        let nu_dist = Exponential::new(cfg.query_noise_scale()).unwrap();
        let _ = rho_dist.sample(&mut rng_b);
        assert!(alg.respond(f64::NAN, 0.0, &mut rng_a).is_err());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "errors must be free");
        assert!(!alg.respond(-1e12, 0.0, &mut rng_a).unwrap().is_positive());
        let _ = nu_dist.sample(&mut rng_b);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "one ν per answer");
    }

    #[test]
    fn lower_variance_than_laplace_at_equal_epsilon() {
        // The variant's selling point: at identical scales the noise
        // variance halves (b² vs 2b²).
        let cfg = config(0.1, 25);
        let exp_var = {
            let d = Exponential::new(cfg.query_noise_scale()).unwrap();
            d.variance()
        };
        let lap_var = {
            let d = dp_mechanisms::Laplace::new(cfg.query_noise_scale()).unwrap();
            d.variance()
        };
        assert!((exp_var * 2.0 - lap_var).abs() < 1e-9);
    }
}
