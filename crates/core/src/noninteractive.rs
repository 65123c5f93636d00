//! Non-interactive top-`c` selection wrappers.
//!
//! §6's evaluation protocol: all queries (item supports) are known up
//! front; each run shuffles the examination order ("each time
//! randomizing the order of items to be examined"), runs an SVT variant
//! over the shuffled stream against the Table-1 threshold, and records
//! which items came back ⊤. These wrappers package that protocol for
//! [`crate::StandardSvt`] (the `SVT-S` series) and [`crate::Alg2`]
//! (the `SVT-DPBook` series).

use crate::alg::{Alg2, SparseVector, StandardSvt, StandardSvtConfig};
use crate::allocation::BudgetRatio;
use crate::Result;
use dp_mechanisms::DpRng;

/// Configuration for one non-interactive SVT-S selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvtSelectConfig {
    /// Total privacy budget `ε = ε₁ + ε₂`.
    pub epsilon: f64,
    /// Number of items to select (the cutoff `c`).
    pub c: usize,
    /// Query sensitivity `Δ`.
    pub sensitivity: f64,
    /// Monotonic query family (Theorem 5 noise reduction)?
    pub monotonic: bool,
    /// Budget allocation policy (§4.2).
    pub ratio: BudgetRatio,
}

impl SvtSelectConfig {
    /// The paper's evaluation configuration: counting queries
    /// (`Δ = 1`, monotonic) under the given budget, cutoff, and ratio.
    pub fn counting(epsilon: f64, c: usize, ratio: BudgetRatio) -> Self {
        Self {
            epsilon,
            c,
            sensitivity: 1.0,
            monotonic: true,
            ratio,
        }
    }

    /// Builds the [`StandardSvtConfig`] this selection will run with.
    ///
    /// # Errors
    /// Propagates ratio/budget validation.
    pub fn to_standard(&self) -> Result<StandardSvtConfig> {
        Ok(StandardSvtConfig {
            budget: self.ratio.split(self.epsilon, self.c, self.monotonic)?,
            sensitivity: self.sensitivity,
            c: self.c,
            monotonic: self.monotonic,
        })
    }
}

/// Runs a freshly shuffled SVT-S pass over `scores` against a constant
/// `threshold`; returns the indices answered ⊤, in answer order.
///
/// This is one Figure-4 run. The selection may contain fewer than `c`
/// items when the pass ends before `c` queries cross the threshold.
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::allocation::BudgetRatio;
/// use svt_core::noninteractive::{svt_select, SvtSelectConfig};
///
/// let supports = [700.0, 650.0, 30.0, 20.0, 10.0, 5.0];
/// let cfg = SvtSelectConfig::counting(4.0, 2, BudgetRatio::OneToCTwoThirds);
/// let mut rng = DpRng::seed_from_u64(11);
/// let mut picked = svt_select(&supports, 340.0, &cfg, &mut rng)?;
/// picked.sort_unstable();
/// assert_eq!(picked, vec![0, 1]);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
///
/// # Errors
/// Propagates configuration validation.
pub fn svt_select(
    scores: &[f64],
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
) -> Result<Vec<usize>> {
    let mut alg = StandardSvt::new(config.to_standard()?, rng)?;
    select_with(&mut alg, scores, threshold, rng)
}

/// Runs a freshly shuffled SVT-DPBook (Alg. 2) pass — the Figure-4
/// baseline. `epsilon` is split `1:1` internally, as the book specifies.
///
/// # Errors
/// Propagates configuration validation.
pub fn dpbook_select(
    scores: &[f64],
    threshold: f64,
    epsilon: f64,
    c: usize,
    sensitivity: f64,
    rng: &mut DpRng,
) -> Result<Vec<usize>> {
    let mut alg = Alg2::new(epsilon, sensitivity, c, rng)?;
    select_with(&mut alg, scores, threshold, rng)
}

/// Runs a freshly shuffled pass of any [`SparseVector`] over `scores`
/// against a constant `threshold`; returns the indices answered ⊤, in
/// answer order. The shared driver of [`svt_select`] and
/// [`dpbook_select`]; it terminates for the paper's unbounded variants
/// too (Alg. 5/6 traverse the list exactly once in the non-interactive
/// setting).
///
/// # Errors
/// Propagates the first error from [`SparseVector::respond`].
pub fn select_with<A: SparseVector>(
    alg: &mut A,
    scores: &[f64],
    threshold: f64,
    rng: &mut DpRng,
) -> Result<Vec<usize>> {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    rng.shuffle(&mut order);
    let mut selected = Vec::new();
    for &item in &order {
        if alg.is_halted() {
            break;
        }
        let answer = alg.respond(scores[item as usize], threshold, rng)?;
        if answer.is_positive() {
            selected.push(item as usize);
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_config_defaults() {
        let cfg = SvtSelectConfig::counting(0.1, 25, BudgetRatio::OneToCTwoThirds);
        assert!(cfg.monotonic);
        assert_eq!(cfg.sensitivity, 1.0);
        let std = cfg.to_standard().unwrap();
        assert!((std.budget.total() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn svt_select_returns_at_most_c() {
        let scores: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let cfg = SvtSelectConfig::counting(5.0, 10, BudgetRatio::OneToCTwoThirds);
        let mut rng = DpRng::seed_from_u64(479);
        for _ in 0..20 {
            let sel = svt_select(&scores, 150.0, &cfg, &mut rng).unwrap();
            assert!(sel.len() <= 10);
            let mut d = sel.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), sel.len(), "no duplicates");
        }
    }

    #[test]
    fn generous_budget_selects_clear_winners() {
        // 5 items far above threshold, 195 far below, huge ε: the
        // selection must be exactly the 5 winners.
        let mut scores = vec![0.0f64; 200];
        for s in scores.iter_mut().take(5) {
            *s = 1e6;
        }
        let cfg = SvtSelectConfig::counting(100.0, 5, BudgetRatio::OneToOne);
        let mut rng = DpRng::seed_from_u64(487);
        let mut sel = svt_select(&scores, 5e5, &cfg, &mut rng).unwrap();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dpbook_select_respects_cutoff() {
        let scores = vec![1e6; 50];
        let mut rng = DpRng::seed_from_u64(491);
        let sel = dpbook_select(&scores, 0.0, 1.0, 7, 1.0, &mut rng).unwrap();
        assert_eq!(sel.len(), 7);
    }

    #[test]
    fn shuffling_randomizes_which_ties_are_selected() {
        // All scores equal and far above threshold: which items are
        // picked depends only on the shuffle; across runs we should see
        // many distinct selections.
        let scores = vec![1e6; 100];
        let cfg = SvtSelectConfig::counting(10.0, 3, BudgetRatio::OneToOne);
        let mut rng = DpRng::seed_from_u64(499);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..30 {
            let mut sel = svt_select(&scores, 0.0, &cfg, &mut rng).unwrap();
            sel.sort_unstable();
            seen.insert(sel);
        }
        assert!(seen.len() > 20, "distinct selections: {}", seen.len());
    }

    #[test]
    fn select_with_works_on_unbounded_variants() {
        let mut rng = DpRng::seed_from_u64(503);
        let mut alg = crate::Alg6::new(10.0, 1.0, &mut rng).unwrap();
        let scores = vec![1e6; 30];
        let sel = select_with(&mut alg, &scores, 0.0, &mut rng).unwrap();
        // Unbounded: everything above threshold gets selected.
        assert_eq!(sel.len(), 30);
    }
}
