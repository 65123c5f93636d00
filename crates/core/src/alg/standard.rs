//! Algorithm 7 — the paper's generalized "standard" SVT. **`(ε₁+ε₂+ε₃)`-DP**
//! (Theorem 4; Theorem 5 for the monotonic refinement).
//!
//! Fig. Alg. 7:
//!
//! ```text
//! Input: D, Q, Δ, T = T₁, T₂, ⋯, c and ε₁, ε₂ and ε₃.
//! 1: ρ = Lap(Δ/ε₁), count = 0
//! 2: for each query qᵢ ∈ Q do
//! 3:   νᵢ = Lap(2cΔ/ε₂)
//! 4:   if qᵢ(D) + νᵢ ≥ Tᵢ + ρ then
//! 5:     if ε₃ > 0 then
//! 6:       Output aᵢ = qᵢ(D) + Lap(cΔ/ε₃)
//! 7:     else
//! 8:       Output aᵢ = ⊤
//! 9:     count = count + 1, Abort if count ≥ c.
//! 10:  else
//! 11:    Output aᵢ = ⊥
//! ```
//!
//! Generalizations over Alg. 1:
//!
//! * the `ε₁ : ε₂` split is free (the §4.2 optimizer picks
//!   `1 : (2c)^{2/3}`, or `1 : c^{2/3}` for monotonic queries);
//! * `ε₃ > 0` releases a **freshly perturbed** numeric answer for
//!   positive queries (contrast Alg. 3, which re-uses the comparison
//!   noise and breaks);
//! * monotonic mode (Theorem 5) halves the query-noise scale to
//!   `Lap(cΔ/ε₂)`.
//!
//! This type powers `SVT-S` in the evaluation and is the recommended
//! production SVT of this workspace.

use crate::alg::SparseVector;
use crate::response::SvtAnswer;
use crate::session::SessionState;
use crate::streaming::SvtNoise;
use crate::{Result, SvtError};
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::{DpRng, SvtBudget};

/// Configuration for [`StandardSvt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardSvtConfig {
    /// The `ε₁/ε₂/ε₃` budget split.
    pub budget: SvtBudget,
    /// Query sensitivity `Δ`.
    pub sensitivity: f64,
    /// Maximum number of positive answers before aborting.
    pub c: usize,
    /// Whether the query family is monotonic (Theorem 5: halves the
    /// query-noise scale).
    pub monotonic: bool,
}

impl StandardSvtConfig {
    /// Convenience constructor: splits `epsilon` as `ε₁ : ε₂ = 1 : ratio`
    /// with no numeric phase.
    ///
    /// # Errors
    /// Propagates budget validation.
    pub fn from_ratio(
        epsilon: f64,
        ratio: f64,
        sensitivity: f64,
        c: usize,
        monotonic: bool,
    ) -> Result<Self> {
        Ok(Self {
            budget: SvtBudget::from_ratio(epsilon, ratio).map_err(SvtError::from)?,
            sensitivity,
            c,
            monotonic,
        })
    }

    /// The query-noise scale this configuration implies:
    /// `2cΔ/ε₂`, or `cΔ/ε₂` in monotonic mode.
    pub fn query_noise_scale(&self) -> f64 {
        let k = if self.monotonic { 1.0 } else { 2.0 };
        k * self.c as f64 * self.sensitivity / self.budget.queries
    }

    /// The threshold-noise scale `Δ/ε₁`.
    pub fn threshold_noise_scale(&self) -> f64 {
        self.sensitivity / self.budget.threshold
    }

    /// The numeric-release scale `cΔ/ε₃` (line 6). Meaningless unless
    /// [`SvtBudget::has_numeric_phase`] holds.
    pub fn numeric_noise_scale(&self) -> f64 {
        self.c as f64 * self.sensitivity / self.budget.numeric
    }

    /// The per-instance threshold-noise scale under SVT-Revisited's
    /// ⊤-only charging (arXiv:2010.00917): the session is `c` chained
    /// cutoff-1 instances of budget `ε/c` each, so each instance's `ρ`
    /// is `Lap(Δ/(ε₁/c)) = Lap(cΔ/ε₁)` — a factor `c` wider than
    /// Algorithm 7's [`threshold_noise_scale`](Self::threshold_noise_scale).
    /// (The per-instance *query* scale `kΔ/(ε₂/c)` coincides with
    /// [`query_noise_scale`](Self::query_noise_scale).)
    pub fn revisited_threshold_noise_scale(&self) -> f64 {
        self.c as f64 * self.sensitivity / self.budget.threshold
    }
}

/// The standard SVT (Alg. 7). Satisfies `(ε₁+ε₂+ε₃)`-DP.
///
/// ```
/// use dp_mechanisms::{DpRng, SvtBudget};
/// use svt_core::alg::{SparseVector, StandardSvt, StandardSvtConfig};
/// use svt_core::SvtAnswer;
///
/// let mut rng = DpRng::seed_from_u64(7);
/// let mut svt = StandardSvt::new(
///     StandardSvtConfig {
///         budget: SvtBudget::halves(1.0)?, // ε₁ = ε₂ = 0.5
///         sensitivity: 1.0,
///         c: 2,
///         monotonic: true,
///     },
///     &mut rng,
/// )?;
///
/// // Stream queries; ⊥ answers are free, ⊤ answers count toward c.
/// assert_eq!(svt.respond(-1e6, 0.0, &mut rng)?, SvtAnswer::Below);
/// assert_eq!(svt.respond(1e6, 0.0, &mut rng)?, SvtAnswer::Above);
/// assert_eq!(svt.positives(), 1);
/// assert!(!svt.is_halted());
/// # Ok::<(), svt_core::SvtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StandardSvt {
    state: SessionState,
    query_noise: Laplace,
    numeric_noise: Option<Laplace>,
}

/// Algorithm 7's noise family: `ρ = Lap(Δ/ε₁)`, `ν = Lap(kcΔ/ε₂)`.
impl SvtNoise for Laplace {
    fn for_config(config: &StandardSvtConfig) -> Result<(Self, Self)> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        Ok((
            Laplace::new(config.threshold_noise_scale()).map_err(SvtError::from)?,
            Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?,
        ))
    }
}

impl StandardSvt {
    /// Line 1: validates the configuration and draws `ρ = Lap(Δ/ε₁)`.
    ///
    /// The protocol state lives in a [`SessionState`]; this type adds
    /// only the noise distributions and the caller-supplied-RNG calling
    /// convention on top of it.
    ///
    /// # Errors
    /// Rejects non-positive sensitivity, `c == 0`, or an invalid budget.
    pub fn new(config: StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        let (threshold_noise, query_noise) = Laplace::for_config(&config)?;
        let rho = threshold_noise.sample(rng);
        let numeric_noise = if config.budget.has_numeric_phase() {
            Some(Laplace::new(config.numeric_noise_scale()).map_err(SvtError::from)?)
        } else {
            None
        };
        Ok(Self {
            state: SessionState::new(config, rho)?,
            query_noise,
            numeric_noise,
        })
    }

    /// Convenience: builds the config from a ratio and constructs.
    ///
    /// # Errors
    /// Propagates validation from [`StandardSvtConfig::from_ratio`] and
    /// [`StandardSvt::new`].
    pub fn with_ratio(
        epsilon: f64,
        ratio: f64,
        sensitivity: f64,
        c: usize,
        monotonic: bool,
        rng: &mut DpRng,
    ) -> Result<Self> {
        Self::new(
            StandardSvtConfig::from_ratio(epsilon, ratio, sensitivity, c, monotonic)?,
            rng,
        )
    }

    /// The configuration in force.
    pub fn config(&self) -> &StandardSvtConfig {
        self.state.config()
    }

    /// Total privacy consumption (Theorem 4): `ε₁ + ε₂ + ε₃`.
    pub fn epsilon(&self) -> f64 {
        self.config().budget.total()
    }

    /// The underlying protocol state machine.
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    #[cfg(test)]
    pub(crate) fn rho(&self) -> f64 {
        self.state.rho()
    }
}

impl SparseVector for StandardSvt {
    fn respond(&mut self, query_answer: f64, threshold: f64, rng: &mut DpRng) -> Result<SvtAnswer> {
        self.state.check(query_answer, threshold)?;
        let nu = self.query_noise.sample(rng); // line 3
        if self.state.observe_unchecked(query_answer, threshold, nu) {
            // lines 5–9
            match &self.numeric_noise {
                // Line 6: fresh Laplace noise — NOT the comparison noise.
                Some(noise) => Ok(SvtAnswer::Numeric(query_answer + noise.sample(rng))),
                None => Ok(SvtAnswer::Above),
            }
        } else {
            Ok(SvtAnswer::Below) // line 11
        }
    }

    fn is_halted(&self) -> bool {
        self.state.is_halted()
    }

    fn positives(&self) -> usize {
        self.state.positives()
    }

    fn name(&self) -> &'static str {
        "Alg. 7 (standard SVT)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::run_svt;
    use crate::threshold::Thresholds;

    fn basic_config(monotonic: bool) -> StandardSvtConfig {
        StandardSvtConfig {
            budget: SvtBudget::halves(1.0).unwrap(),
            sensitivity: 1.0,
            c: 5,
            monotonic,
        }
    }

    #[test]
    fn noise_scales_match_the_pseudocode() {
        let general = basic_config(false);
        // ε₂ = 0.5, c = 5, Δ = 1 ⇒ 2·5·1/0.5 = 20.
        assert!((general.query_noise_scale() - 20.0).abs() < 1e-12);
        let mono = basic_config(true);
        // Theorem 5: cΔ/ε₂ = 10.
        assert!((mono.query_noise_scale() - 10.0).abs() < 1e-12);
        assert!((general.threshold_noise_scale() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn plain_mode_outputs_tops() {
        let mut rng = DpRng::seed_from_u64(419);
        let mut alg = StandardSvt::new(basic_config(true), &mut rng).unwrap();
        assert_eq!(alg.respond(1e9, 0.0, &mut rng).unwrap(), SvtAnswer::Above);
    }

    #[test]
    fn numeric_phase_outputs_fresh_noisy_answers() {
        let mut rng = DpRng::seed_from_u64(421);
        let config = StandardSvtConfig {
            budget: SvtBudget::new(0.25, 0.25, 0.5).unwrap(),
            sensitivity: 1.0,
            c: 3,
            monotonic: true,
        };
        let mut alg = StandardSvt::new(config, &mut rng).unwrap();
        match alg.respond(1e9, 0.0, &mut rng).unwrap() {
            SvtAnswer::Numeric(v) => {
                // Scale cΔ/ε₃ = 6: the release is near the true answer.
                assert!((v - 1e9).abs() < 1e3, "v={v}");
            }
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    #[test]
    fn epsilon_sums_all_three_parts() {
        let mut rng = DpRng::seed_from_u64(431);
        let config = StandardSvtConfig {
            budget: SvtBudget::new(0.1, 0.6, 0.3).unwrap(),
            sensitivity: 1.0,
            c: 2,
            monotonic: false,
        };
        let alg = StandardSvt::new(config, &mut rng).unwrap();
        assert!((alg.epsilon() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_noise_never_refreshes() {
        let mut rng = DpRng::seed_from_u64(433);
        let mut alg = StandardSvt::new(basic_config(true), &mut rng).unwrap();
        let rho = alg.rho();
        for _ in 0..3 {
            let _ = alg.respond(1e9, 0.0, &mut rng).unwrap();
            assert_eq!(alg.rho(), rho);
        }
    }

    #[test]
    fn aborts_at_cutoff_and_then_errors() {
        let mut rng = DpRng::seed_from_u64(439);
        let mut alg = StandardSvt::new(basic_config(true), &mut rng).unwrap();
        let run = run_svt(&mut alg, &[1e9; 9], &Thresholds::Constant(0.0), &mut rng).unwrap();
        assert_eq!(run.positives(), 5);
        assert!(run.halted);
        assert!(matches!(
            alg.respond(0.0, 0.0, &mut rng),
            Err(SvtError::Halted)
        ));
    }

    #[test]
    fn with_ratio_splits_budget() {
        let mut rng = DpRng::seed_from_u64(443);
        let alg = StandardSvt::with_ratio(0.1, 3.0, 1.0, 25, true, &mut rng).unwrap();
        assert!((alg.config().budget.threshold - 0.025).abs() < 1e-12);
        assert!((alg.config().budget.queries - 0.075).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut rng = DpRng::seed_from_u64(449);
        let bad_c = StandardSvtConfig {
            budget: SvtBudget::halves(1.0).unwrap(),
            sensitivity: 1.0,
            c: 0,
            monotonic: false,
        };
        assert!(StandardSvt::new(bad_c, &mut rng).is_err());
        let bad_sens = StandardSvtConfig {
            budget: SvtBudget::halves(1.0).unwrap(),
            sensitivity: -1.0,
            c: 1,
            monotonic: false,
        };
        assert!(StandardSvt::new(bad_sens, &mut rng).is_err());
    }

    #[test]
    fn monotonic_mode_is_strictly_less_noisy() {
        let g = basic_config(false);
        let m = basic_config(true);
        assert!(m.query_noise_scale() < g.query_noise_scale());
    }
}
