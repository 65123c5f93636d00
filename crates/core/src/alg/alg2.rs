//! Algorithm 2 — SVT as in Dwork & Roth's 2014 book. **ε-DP**, but
//! noisier than Algorithm 1.
//!
//! Fig. 1, Algorithm 2:
//!
//! ```text
//! Input: D, Q, Δ, T, c.
//! 1: ε₁ = ε/2, ρ = Lap(cΔ/ε₁)
//! 2: ε₂ = ε − ε₁, count = 0
//! 3: for each query qᵢ ∈ Q do
//! 4:   νᵢ = Lap(2cΔ/ε₁)
//! 5:   if qᵢ(D) + νᵢ ≥ T + ρ then
//! 6:     Output aᵢ = ⊤, ρ = Lap(cΔ/ε₂)
//! 7:     count = count + 1, Abort if count ≥ c.
//! 8:   else
//! 9:     Output aᵢ = ⊥
//! ```
//!
//! The two differences from Alg. 1 (§3.2): the threshold noise scales
//! with `cΔ/ε₁` — a factor of `c` larger — and the noisy threshold is
//! **resampled after every ⊤** (line 6). The paper's point is that the
//! resampling is what forces the `c` into the threshold-noise scale, and
//! that the resampling is unnecessary; dropping both (as Alg. 1 does)
//! gives strictly better utility at the same `ε`. This is the
//! `SVT-DPBook` baseline of Figure 4.

use crate::alg::SparseVector;
use crate::response::SvtAnswer;
use crate::{Result, SvtError};
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::DpRng;

/// The Dwork–Roth textbook SVT (Fig. 1, Alg. 2). Satisfies `ε`-DP.
#[derive(Debug, Clone)]
pub struct Alg2 {
    epsilon: f64,
    rho: f64,
    /// Distribution used to *re*-sample ρ after each ⊤ (`Lap(cΔ/ε₂)`).
    rho_refresh: Laplace,
    query_noise: Laplace,
    c: usize,
    count: usize,
    halted: bool,
}

/// Alg. 2's three noise distributions, with `ε₁ = ε/2` and
/// `ε₂ = ε − ε₁`: the initial `ρ = Lap(cΔ/ε₁)` (line 1), each query's
/// `ν = Lap(2cΔ/ε₁)` (line 4) and the `ρ = Lap(cΔ/ε₂)` drawn after a ⊤
/// (line 6). [`Alg2::new`] and the streaming walk both build them here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Alg2Noise {
    pub(crate) rho: Laplace,
    pub(crate) query: Laplace,
    pub(crate) refresh: Laplace,
}

impl Alg2Noise {
    /// # Errors
    /// Rejects non-positive `ε`/`Δ` and `c == 0`.
    pub(crate) fn new(epsilon: f64, sensitivity: f64, c: usize) -> Result<Self> {
        crate::alg::validate_common(epsilon, sensitivity, c)?;
        let eps1 = epsilon / 2.0;
        let eps2 = epsilon - eps1;
        let c_f = c as f64;
        let laplace = |scale: f64| Laplace::new(scale).map_err(SvtError::from);
        Ok(Self {
            rho: laplace(c_f * sensitivity / eps1)?,
            // Fig. 1 line 4 uses ε₁ here (not ε₂) — faithful to the source.
            query: laplace(2.0 * c_f * sensitivity / eps1)?,
            refresh: laplace(c_f * sensitivity / eps2)?,
        })
    }
}

impl Alg2 {
    /// Lines 1–2: draws `ρ = Lap(cΔ/ε₁)` and prepares `Lap(2cΔ/ε₁)`
    /// query noise and the `Lap(cΔ/ε₂)` refresh distribution.
    ///
    /// # Errors
    /// Rejects non-positive `ε`/`Δ` and `c == 0`.
    pub fn new(epsilon: f64, sensitivity: f64, c: usize, rng: &mut DpRng) -> Result<Self> {
        let noise = Alg2Noise::new(epsilon, sensitivity, c)?;
        Ok(Self {
            epsilon,
            rho: noise.rho.sample(rng),
            rho_refresh: noise.refresh,
            query_noise: noise.query,
            c,
            count: 0,
            halted: false,
        })
    }

    /// The total `ε` this instance satisfies.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    #[cfg(test)]
    pub(crate) fn rho(&self) -> f64 {
        self.rho
    }
}

impl SparseVector for Alg2 {
    fn respond(&mut self, query_answer: f64, threshold: f64, rng: &mut DpRng) -> Result<SvtAnswer> {
        if self.halted {
            return Err(SvtError::Halted);
        }
        crate::error::check_finite(query_answer, "query answer")?;
        crate::error::check_finite(threshold, "threshold")?;
        let nu = self.query_noise.sample(rng); // line 4
        if query_answer + nu >= threshold + self.rho {
            // line 6: output ⊤ and refresh the noisy threshold.
            self.rho = self.rho_refresh.sample(rng);
            self.count += 1;
            if self.count >= self.c {
                self.halted = true;
            }
            Ok(SvtAnswer::Above)
        } else {
            Ok(SvtAnswer::Below)
        }
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn positives(&self) -> usize {
        self.count
    }

    fn name(&self) -> &'static str {
        "Alg. 2 (Dwork-Roth '14)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::run_svt;
    use crate::threshold::Thresholds;

    #[test]
    fn threshold_noise_scales_with_c() {
        // Verify the scale statistically: with c = 100 and ε = 0.1 the
        // initial ρ has scale 100/0.05 = 2000, so |ρ| ≥ 100 almost
        // always... rather, compare dispersion across constructions.
        let mut rng = DpRng::seed_from_u64(277);
        let n = 4000;
        let spread_c100: f64 = (0..n)
            .map(|_| Alg2::new(0.1, 1.0, 100, &mut rng).unwrap().rho().abs())
            .sum::<f64>()
            / n as f64;
        let spread_c1: f64 = (0..n)
            .map(|_| Alg2::new(0.1, 1.0, 1, &mut rng).unwrap().rho().abs())
            .sum::<f64>()
            / n as f64;
        // Mean |Lap(b)| = b: ratio should be ≈ 100.
        let ratio = spread_c100 / spread_c1;
        assert!((70.0..140.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rho_is_resampled_after_each_positive() {
        let mut rng = DpRng::seed_from_u64(281);
        let mut alg = Alg2::new(1.0, 1.0, 10, &mut rng).unwrap();
        let before = alg.rho();
        let _ = alg.respond(1e12, 0.0, &mut rng).unwrap(); // forced ⊤
        assert_ne!(alg.rho(), before, "ρ must be refreshed on ⊤");
        let mid = alg.rho();
        let _ = alg.respond(-1e12, 0.0, &mut rng).unwrap(); // forced ⊥
        assert_eq!(alg.rho(), mid, "ρ must NOT be refreshed on ⊥");
    }

    #[test]
    fn aborts_at_cutoff() {
        let mut rng = DpRng::seed_from_u64(283);
        let mut alg = Alg2::new(1.0, 1.0, 2, &mut rng).unwrap();
        let run = run_svt(&mut alg, &[1e12; 5], &Thresholds::Constant(0.0), &mut rng).unwrap();
        assert_eq!(run.positives(), 2);
        assert!(run.halted);
    }

    #[test]
    fn noisier_than_alg1_in_comparison_variance() {
        // The effective comparison noise of Alg. 2 (ρ scale cΔ/ε₁ plus
        // ν scale 2cΔ/ε₁) strictly dominates Alg. 1's (Δ/ε₁ and
        // 2cΔ/ε₂): check the implied variances for the paper's settings.
        let (eps, c) = (0.1f64, 50f64);
        let (e1, e2) = (eps / 2.0, eps / 2.0);
        let var =
            |rho_scale: f64, nu_scale: f64| 2.0 * rho_scale * rho_scale + 2.0 * nu_scale * nu_scale;
        let alg1 = var(1.0 / e1, 2.0 * c / e2);
        let alg2 = var(c / e1, 2.0 * c / e1);
        assert!(alg2 > alg1);
    }

    #[test]
    fn construction_validates() {
        let mut rng = DpRng::seed_from_u64(293);
        assert!(Alg2::new(-1.0, 1.0, 1, &mut rng).is_err());
        assert!(Alg2::new(1.0, f64::NAN, 1, &mut rng).is_err());
        assert!(Alg2::new(1.0, 1.0, 0, &mut rng).is_err());
    }
}
