//! SVT-Revisited — Kaplan, Mansour & Stemmer (arXiv:2010.00917).
//! **ε-DP**, with budget charged only on ⊤ answers.
//!
//! The 2020 revision of the technique reframes a cutoff-`c` session as
//! `c` *chained cutoff-1 instances* of budget `ε/c` each: an instance
//! fixes its threshold noise `ρ`, answers ⊥ after ⊥ for free, and the
//! first ⊤ closes it — consuming its `ε/c` — whereupon the next
//! instance opens with a fresh `ρ`. The observable stream is the
//! textbook one (a run of ⊥s punctuated by at most `c` ⊤s), but the
//! accounting differs in a way that matters for serving: a session that
//! never crosses the threshold has spent nothing and may keep going,
//! and partial consumption is `positives · ε/c`, not all-or-nothing.
//!
//! Per instance (budget `ε/c`, split `ε₁ : ε₂` like the standard SVT):
//!
//! - `ρ ~ Lap(Δ/(ε₁/c)) = Lap(cΔ/ε₁)`, redrawn after every non-final ⊤
//!   ([`StandardSvtConfig::revisited_threshold_noise_scale`]);
//! - `ν ~ Lap(kΔ/(ε₂/c)) = Lap(kcΔ/ε₂)` with `k = 1` monotonic / `2`
//!   general — numerically the same scale as Algorithm 7's
//!   [`StandardSvtConfig::query_noise_scale`].
//!
//! So at equal total `ε` the revisited variant pays a factor-`c` wider
//! threshold noise (like Alg. 2) to buy the ⊤-only charging rule; its
//! value is the accounting, not the utility.

use crate::alg::{SparseVector, StandardSvtConfig};
use crate::response::SvtAnswer;
use crate::session::SessionState;
use crate::{Result, SvtError};
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::DpRng;

/// SVT-Revisited (KMS '20): `c` chained cutoff-1 instances, `ε/c`
/// charged per ⊤ answer. Satisfies `(ε₁+ε₂)`-DP.
///
/// ```
/// use dp_mechanisms::{DpRng, SvtBudget};
/// use svt_core::alg::{SparseVector, StandardSvtConfig, SvtRevisited};
///
/// let mut rng = DpRng::seed_from_u64(7);
/// let config = StandardSvtConfig {
///     budget: SvtBudget::halves(1.0)?,
///     sensitivity: 1.0,
///     c: 4,
///     monotonic: true,
/// };
/// let mut alg = SvtRevisited::new(config, &mut rng)?;
/// assert_eq!(alg.spent_epsilon(), 0.0); // nothing spent at open
/// let _ = alg.respond(1e9, 0.0, &mut rng)?; // a forced ⊤ costs ε/c
/// assert!((alg.spent_epsilon() - 0.25).abs() < 1e-12);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SvtRevisited {
    state: SessionState,
    query_noise: Laplace,
    threshold_noise: Laplace,
}

impl SvtRevisited {
    /// Opens the first instance: draws `ρ = Lap(cΔ/ε₁)` from `rng` and
    /// prepares the `Lap(kcΔ/ε₂)` query noise.
    ///
    /// The budget in `config` is the **whole-session** `ε`; the
    /// per-instance split is derived internally (see the module docs).
    ///
    /// # Errors
    /// Rejects the same invalid configurations as
    /// [`StandardSvt::new`](crate::alg::StandardSvt::new), plus any
    /// budget with a numeric phase — SVT-Revisited defines no numeric
    /// release.
    pub fn new(config: StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        let query_noise = Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?;
        let threshold_noise =
            Laplace::new(config.revisited_threshold_noise_scale()).map_err(SvtError::from)?;
        if config.budget.has_numeric_phase() {
            return Err(SvtError::from(
                dp_mechanisms::MechanismError::InvalidParameter(
                    "per-top charging (SVT-Revisited) has no numeric phase",
                ),
            ));
        }
        let rho = threshold_noise.sample(rng);
        Ok(Self {
            state: SessionState::new(config, rho)?,
            query_noise,
            threshold_noise,
        })
    }

    /// The configuration in force.
    #[inline]
    pub fn config(&self) -> &StandardSvtConfig {
        self.state.config()
    }

    /// Privacy budget consumed so far: `positives · ε/c` — each ⊤
    /// closes one cutoff-1 instance of budget `ε/c`; ⊥s are free.
    #[inline]
    pub fn spent_epsilon(&self) -> f64 {
        let config = self.state.config();
        config.budget.total() * self.state.positives() as f64 / config.c as f64
    }

    /// The current instance's threshold noise `ρ`.
    pub(crate) fn rho(&self) -> f64 {
        self.state.rho()
    }

    /// The query noise `Lap(kcΔ/ε₂)` and the per-instance threshold
    /// noise `Lap(cΔ/ε₁)`, for samplers that replay this protocol
    /// without walking items ([`revisited_select_grouped`]).
    ///
    /// [`revisited_select_grouped`]: crate::skip_ahead::revisited_select_grouped
    pub(crate) fn noises(&self) -> (Laplace, Laplace) {
        (self.query_noise, self.threshold_noise)
    }
}

impl SparseVector for SvtRevisited {
    fn respond(&mut self, query_answer: f64, threshold: f64, rng: &mut DpRng) -> Result<SvtAnswer> {
        self.state.check(query_answer, threshold)?;
        let nu = self.query_noise.sample(rng);
        let positive = self.state.observe_unchecked(query_answer, threshold, nu);
        if positive && !self.state.is_halted() {
            // The ⊤ closed an instance; open the next one. Drawn from
            // the caller's rng immediately (the Alg. 2 refresh pattern),
            // so a ⊥ consumes exactly one draw and a non-final ⊤ two.
            let rho = self.threshold_noise.sample(rng);
            self.state.refresh_rho(rho)?;
        }
        Ok(if positive {
            SvtAnswer::Above
        } else {
            SvtAnswer::Below
        })
    }

    fn is_halted(&self) -> bool {
        self.state.is_halted()
    }

    fn positives(&self) -> usize {
        self.state.positives()
    }

    fn name(&self) -> &'static str {
        "SVT-Revisited (KMS '20)"
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
    fn construction_validates() {
        let mut rng = DpRng::seed_from_u64(307);
        let mut bad = config(1.0, 1);
        bad.sensitivity = f64::NAN;
        assert!(SvtRevisited::new(bad, &mut rng).is_err());
        let mut bad_c = config(1.0, 1);
        bad_c.c = 0;
        assert!(SvtRevisited::new(bad_c, &mut rng).is_err());
        // No numeric phase: the 2020 formulation has no Alg. 7 line 6.
        let numeric = StandardSvtConfig {
            budget: SvtBudget::new(0.25, 0.25, 0.5).unwrap(),
            sensitivity: 1.0,
            c: 2,
            monotonic: true,
        };
        assert!(SvtRevisited::new(numeric, &mut rng).is_err());
    }

    #[test]
    fn budget_is_charged_only_on_tops() {
        let mut rng = DpRng::seed_from_u64(311);
        let mut alg = SvtRevisited::new(config(1.0, 4), &mut rng).unwrap();
        assert_eq!(alg.spent_epsilon(), 0.0);
        for _ in 0..25 {
            let _ = alg.respond(-1e12, 0.0, &mut rng).unwrap(); // forced ⊥
        }
        assert_eq!(alg.spent_epsilon(), 0.0, "⊥ answers are free");
        let _ = alg.respond(1e12, 0.0, &mut rng).unwrap(); // forced ⊤
        assert!((alg.spent_epsilon() - 0.25).abs() < 1e-12);
        for _ in 0..3 {
            let _ = alg.respond(1e12, 0.0, &mut rng).unwrap();
        }
        assert!((alg.spent_epsilon() - 1.0).abs() < 1e-12);
        assert!(alg.is_halted());
    }

    #[test]
    fn rho_is_refreshed_after_each_nonfinal_positive() {
        let mut rng = DpRng::seed_from_u64(313);
        let mut alg = SvtRevisited::new(config(1.0, 10), &mut rng).unwrap();
        let before = alg.rho();
        let _ = alg.respond(1e12, 0.0, &mut rng).unwrap(); // forced ⊤
        assert_ne!(alg.rho(), before, "ρ must be refreshed on ⊤");
        let mid = alg.rho();
        let _ = alg.respond(-1e12, 0.0, &mut rng).unwrap(); // forced ⊥
        assert_eq!(alg.rho(), mid, "ρ must NOT be refreshed on ⊥");
    }

    #[test]
    fn threshold_noise_scales_with_c() {
        // Mean |Lap(b)| = b: the initial ρ dispersion must carry the
        // factor-c per-instance widening (cΔ/ε₁).
        let mut rng = DpRng::seed_from_u64(317);
        let n = 4000;
        let spread_c100: f64 = (0..n)
            .map(|_| {
                SvtRevisited::new(config(0.1, 100), &mut rng)
                    .unwrap()
                    .rho()
                    .abs()
            })
            .sum::<f64>()
            / n as f64;
        let spread_c1: f64 = (0..n)
            .map(|_| {
                SvtRevisited::new(config(0.1, 1), &mut rng)
                    .unwrap()
                    .rho()
                    .abs()
            })
            .sum::<f64>()
            / n as f64;
        let ratio = spread_c100 / spread_c1;
        assert!((70.0..140.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn aborts_at_cutoff() {
        let mut rng = DpRng::seed_from_u64(331);
        let mut alg = SvtRevisited::new(config(1.0, 2), &mut rng).unwrap();
        let run = run_svt(&mut alg, &[1e12; 5], &Thresholds::Constant(0.0), &mut rng).unwrap();
        assert_eq!(run.positives(), 2);
        assert!(run.halted);
        assert!(matches!(
            alg.respond(0.0, 0.0, &mut rng),
            Err(SvtError::Halted)
        ));
    }

    #[test]
    fn rejected_queries_consume_no_budget_and_no_noise_draws() {
        // The PR 6 lockstep pin, extended to the per-top charging rule:
        // a ⊥ consumes exactly one ν draw and no budget; a bad input
        // consumes nothing at all; only a non-final ⊤ draws a fresh ρ.
        let cfg = config(1.0, 3);
        let mut rng_a = DpRng::seed_from_u64(337);
        let mut alg = SvtRevisited::new(cfg, &mut rng_a).unwrap();

        // Shadow generator replaying the pinned draw protocol by hand.
        let mut rng_b = DpRng::seed_from_u64(337);
        let nu_dist = Laplace::new(cfg.query_noise_scale()).unwrap();
        let rho_dist = Laplace::new(cfg.revisited_threshold_noise_scale()).unwrap();
        let _ = rho_dist.sample(&mut rng_b); // construction draws one ρ

        // Errors consume nothing.
        assert!(alg.respond(f64::NAN, 0.0, &mut rng_a).is_err());
        assert!(alg.respond(0.0, f64::INFINITY, &mut rng_a).is_err());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "errors must be free");
        assert_eq!(alg.spent_epsilon(), 0.0);

        // A ⊥: exactly one ν draw, zero budget, no ρ draw.
        assert!(!alg.respond(-1e12, 0.0, &mut rng_a).unwrap().is_positive());
        let _ = nu_dist.sample(&mut rng_b);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "⊥ = one ν draw");
        assert_eq!(alg.spent_epsilon(), 0.0, "⊥ must not be charged");

        // A non-final ⊤: one ν draw plus one ρ refresh, ε/c charged.
        assert!(alg.respond(1e12, 0.0, &mut rng_a).unwrap().is_positive());
        let _ = nu_dist.sample(&mut rng_b);
        let _ = rho_dist.sample(&mut rng_b);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "⊤ = ν + fresh ρ");
        assert!((alg.spent_epsilon() - 1.0 / 3.0).abs() < 1e-12);

        // After the halt (final ⊤ has no refresh), errors stay free.
        assert!(alg.respond(1e12, 0.0, &mut rng_a).unwrap().is_positive());
        let _ = nu_dist.sample(&mut rng_b);
        let _ = rho_dist.sample(&mut rng_b);
        assert!(alg.respond(1e12, 0.0, &mut rng_a).unwrap().is_positive());
        let _ = nu_dist.sample(&mut rng_b); // final ⊤: ν only, no refresh
        assert!(alg.is_halted());
        assert!(alg.respond(0.0, 0.0, &mut rng_a).is_err());
        assert_eq!(
            rng_a.next_u64(),
            rng_b.next_u64(),
            "final ⊤ draws no ρ; halted respond draws nothing"
        );
        assert!((alg.spent_epsilon() - 1.0).abs() < 1e-12);
    }
}
