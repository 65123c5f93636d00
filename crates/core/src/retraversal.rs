//! §5 — SVT with retraversal (`SVT-ReTr`).
//!
//! The threshold dilemma: set `T` high and a pass may end with fewer
//! than `c` selections, "wasting" the unreached share of the budget; set
//! it low and the `c` slots fill before good late queries are reached.
//! In the non-interactive setting the paper proposes: raise the
//! threshold, and when a full pass selects fewer than `c` queries,
//! *retraverse* the not-yet-selected queries (fresh query noise, same
//! noisy threshold) until `c` are selected.
//!
//! Privacy is unchanged — the run still produces at most `c` positive
//! answers and every negative answer remains free, with `ρ` drawn once
//! (Theorem 4 applies verbatim; re-examining a query is just another
//! query with the same answer).
//!
//! The experiments raise `T` by `1D…5D` where "1D means adding one
//! standard deviation of the added noises" — `D = √2 · (query-noise
//! scale)`. [`IncrementUnit`] also exposes the raw scale for ablation.

use crate::alg::{SparseVector, StandardSvt};
use crate::noninteractive::SvtSelectConfig;
use crate::streaming::{BatchedSvt, RunScratch};
use crate::{Result, SvtError};
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::DpRng;

/// What "one D" of threshold increment means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementUnit {
    /// One standard deviation of the query noise, `√2 · scale` — the
    /// paper's definition.
    NoiseStdDev,
    /// One Laplace scale parameter (ablation alternative).
    NoiseScale,
}

/// Configuration for SVT-ReTr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetraversalConfig {
    /// The underlying SVT-S configuration (budget, cutoff, ratio…).
    pub select: SvtSelectConfig,
    /// How many units to add to the base threshold (the paper sweeps
    /// 1–5).
    pub increment: f64,
    /// The unit of increment.
    pub unit: IncrementUnit,
    /// Safety cap on full passes over the remaining queries; the paper
    /// loops "until c queries are selected", which terminates with
    /// probability 1 but not in bounded time. 64 passes is far beyond
    /// anything the paper's configurations need.
    pub max_passes: usize,
}

impl RetraversalConfig {
    /// The paper's configuration: counting queries, `1:c^{2/3}`
    /// allocation, increment of `k` noise standard deviations.
    pub fn paper(epsilon: f64, c: usize, k: f64) -> Self {
        Self {
            select: SvtSelectConfig::counting(
                epsilon,
                c,
                crate::allocation::BudgetRatio::OneToCTwoThirds,
            ),
            increment: k,
            unit: IncrementUnit::NoiseStdDev,
            max_passes: 64,
        }
    }

    /// The absolute threshold increase this configuration implies.
    ///
    /// # Errors
    /// Propagates ratio/budget validation.
    pub fn threshold_increase(&self) -> Result<f64> {
        let std = self.select.to_standard()?;
        let scale = std.query_noise_scale();
        let unit = match self.unit {
            IncrementUnit::NoiseStdDev => std::f64::consts::SQRT_2 * scale,
            IncrementUnit::NoiseScale => scale,
        };
        Ok(self.increment * unit)
    }
}

/// Result of one SVT-ReTr invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetraversalOutcome {
    /// Selected indices, in selection order (≤ `c`).
    pub selected: Vec<usize>,
    /// Number of passes performed (1 = no retraversal needed).
    pub passes: usize,
    /// The raised threshold actually used.
    pub threshold_used: f64,
}

/// Runs SVT-ReTr over `scores` with base threshold `base_threshold`.
///
/// # Errors
/// Propagates configuration validation.
pub fn svt_retraversal(
    scores: &[f64],
    base_threshold: f64,
    config: &RetraversalConfig,
    rng: &mut DpRng,
) -> Result<RetraversalOutcome> {
    if config.max_passes == 0 {
        return Err(SvtError::Mechanism(
            dp_mechanisms::MechanismError::InvalidParameter("max_passes must be >= 1"),
        ));
    }
    let threshold = base_threshold + config.threshold_increase()?;
    let mut alg = StandardSvt::new(config.select.to_standard()?, rng)?;
    let c = config.select.c;

    // Pass 1 runs over a fresh shuffle of everything; later passes
    // re-examine the not-yet-selected queries in the same relative
    // order (fresh ν each time, same ρ — the privacy argument needs ρ
    // fixed, and it is: `alg` lives across passes).
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    rng.shuffle(&mut order);

    let mut selected = Vec::with_capacity(c);
    let mut passes = 0;
    while selected.len() < c && passes < config.max_passes && !alg.is_halted() {
        passes += 1;
        let mut survivors = Vec::with_capacity(order.len());
        for &item in &order {
            if alg.is_halted() {
                break;
            }
            let answer = alg.respond(scores[item as usize], threshold, rng)?;
            if answer.is_positive() {
                selected.push(item as usize);
            } else {
                survivors.push(item);
            }
        }
        order = survivors;
        if order.is_empty() {
            break;
        }
    }
    Ok(RetraversalOutcome {
        selected,
        passes,
        threshold_used: threshold,
    })
}

/// Pass/threshold bookkeeping from one [`svt_retraversal_from`] run; the
/// selection itself lands in the caller's [`RunScratch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetraversalRun {
    /// Number of passes performed (1 = no retraversal needed).
    pub passes: usize,
    /// The raised threshold actually used.
    pub threshold_used: f64,
}

/// Streaming SVT-ReTr over any
/// [`ScoreSource`](crate::streaming::ScoreSource): the zero-allocation,
/// batched-noise equivalent of [`svt_retraversal`]. Same output
/// distribution and pass semantics (lazy shuffle on the first pass,
/// survivors re-examined in the same relative order with fresh `ν` and
/// the same `ρ`), run by the streaming layer's one fixed-`ρ` walk
/// (the one SVT-S runs, with more than one pass): the permutation
/// buffer and noise prefetch live in `scratch` and survivors are
/// compacted in place, so a run allocates nothing, and
/// [`RunScratch::examined`] reports the first pass's count. Two sources
/// reporting `==`-equal scores per item (a raw slice and its grouped
/// runs) consume identical draws and emit bit-identical selections and
/// pass counts from the same generator state.
///
/// # Errors
/// Propagates configuration validation; rejects `max_passes == 0`.
pub fn svt_retraversal_from<S: crate::streaming::ScoreSource + ?Sized>(
    scores: &S,
    base_threshold: f64,
    config: &RetraversalConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<RetraversalRun> {
    if config.max_passes == 0 {
        return Err(SvtError::Mechanism(
            dp_mechanisms::MechanismError::InvalidParameter("max_passes must be >= 1"),
        ));
    }
    let threshold = base_threshold + config.threshold_increase()?;
    let passes = BatchedSvt::<Laplace>::new(&config.select.to_standard()?, rng)?.walk(
        scores,
        threshold,
        config.max_passes,
        rng,
        scratch,
    );
    Ok(RetraversalRun {
        passes,
        threshold_used: threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::BudgetRatio;

    #[test]
    fn threshold_increase_matches_units() {
        let cfg = RetraversalConfig::paper(0.1, 25, 2.0);
        let std = cfg.select.to_standard().unwrap();
        let want = 2.0 * std::f64::consts::SQRT_2 * std.query_noise_scale();
        assert!((cfg.threshold_increase().unwrap() - want).abs() < 1e-9);

        let mut raw = cfg;
        raw.unit = IncrementUnit::NoiseScale;
        let want_raw = 2.0 * std.query_noise_scale();
        assert!((raw.threshold_increase().unwrap() - want_raw).abs() < 1e-9);
    }

    #[test]
    fn retraversal_fills_to_c_when_possible() {
        // Threshold raised far above everything: pass 1 selects almost
        // nothing, retraversal keeps going until c fill up (every query
        // has a positive crossing probability).
        let scores = vec![100.0f64; 40];
        let mut cfg = RetraversalConfig::paper(2.0, 10, 1.0);
        cfg.max_passes = 64;
        let mut rng = DpRng::seed_from_u64(509);
        let out = svt_retraversal(&scores, 100.0, &cfg, &mut rng).unwrap();
        assert_eq!(out.selected.len(), 10);
        let mut d = out.selected.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10, "selections must be distinct items");
    }

    #[test]
    fn single_pass_when_plenty_cross_immediately() {
        let scores = vec![1e9f64; 40];
        let cfg = RetraversalConfig {
            select: SvtSelectConfig::counting(10.0, 5, BudgetRatio::OneToOne),
            increment: 1.0,
            unit: IncrementUnit::NoiseStdDev,
            max_passes: 64,
        };
        let mut rng = DpRng::seed_from_u64(521);
        let out = svt_retraversal(&scores, 0.0, &cfg, &mut rng).unwrap();
        assert_eq!(out.passes, 1);
        assert_eq!(out.selected.len(), 5);
    }

    #[test]
    fn max_passes_caps_the_loop() {
        // Scores astronomically below the threshold: crossing is
        // essentially impossible, the loop must stop at max_passes.
        let scores = vec![-1e12f64; 5];
        let mut cfg = RetraversalConfig::paper(0.1, 3, 1.0);
        cfg.max_passes = 4;
        let mut rng = DpRng::seed_from_u64(523);
        let out = svt_retraversal(&scores, 0.0, &cfg, &mut rng).unwrap();
        assert!(out.passes <= 4);
        assert!(out.selected.len() < 3);
    }

    #[test]
    fn zero_max_passes_is_rejected() {
        let mut cfg = RetraversalConfig::paper(0.1, 3, 1.0);
        cfg.max_passes = 0;
        let mut rng = DpRng::seed_from_u64(541);
        assert!(svt_retraversal(&[1.0], 0.0, &cfg, &mut rng).is_err());
    }

    #[test]
    fn streaming_retraversal_fills_to_c_when_possible() {
        let scores = vec![100.0f64; 40];
        let mut cfg = RetraversalConfig::paper(2.0, 10, 1.0);
        cfg.max_passes = 64;
        let mut rng = DpRng::seed_from_u64(509);
        let mut scratch = RunScratch::new();
        let run = svt_retraversal_from(&scores[..], 100.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!(scratch.selected().len(), 10);
        assert!(run.passes >= 1);
        let mut d = scratch.selected().to_vec();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10, "selections must be distinct items");
    }

    #[test]
    fn streaming_retraversal_is_noise_batch_size_invariant() {
        let scores: Vec<f64> = (0..500).map(|i| f64::from(i % 83)).collect();
        let mut cfg = RetraversalConfig::paper(1.0, 12, 2.0);
        cfg.max_passes = 16;
        let reference = {
            let mut rng = DpRng::seed_from_u64(613);
            let mut scratch = RunScratch::with_noise_batch(1);
            let run =
                svt_retraversal_from(&scores[..], 60.0, &cfg, &mut rng, &mut scratch).unwrap();
            (scratch.selected().to_vec(), run)
        };
        for batch in [3usize, 64, 1024] {
            let mut rng = DpRng::seed_from_u64(613);
            let mut scratch = RunScratch::with_noise_batch(batch);
            let run =
                svt_retraversal_from(&scores[..], 60.0, &cfg, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected(), &reference.0[..], "batch {batch}");
            assert_eq!(run, reference.1, "batch {batch}");
        }
    }

    #[test]
    fn streaming_retraversal_matches_scalar_distribution() {
        // Same output distribution as the Vec-allocating reference: the
        // mean number of passes and selections must agree statistically.
        let scores: Vec<f64> = (0..200).map(f64::from).collect();
        let mut cfg = RetraversalConfig::paper(1.5, 8, 2.0);
        cfg.max_passes = 32;
        let runs = 300;
        let mut rng_a = DpRng::seed_from_u64(21001);
        let mut rng_b = DpRng::seed_from_u64(88123);
        let mut scratch = RunScratch::new();
        let (mut sel_new, mut pass_new, mut sel_old, mut pass_old) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..runs {
            let run =
                svt_retraversal_from(&scores[..], 150.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            sel_new += scratch.selected().len() as f64;
            pass_new += run.passes as f64;
            let out = svt_retraversal(&scores, 150.0, &cfg, &mut rng_b).unwrap();
            sel_old += out.selected.len() as f64;
            pass_old += out.passes as f64;
        }
        let n = runs as f64;
        assert!(
            (sel_new / n - sel_old / n).abs() < 0.8,
            "selected {} vs {}",
            sel_new / n,
            sel_old / n
        );
        assert!(
            (pass_new / n - pass_old / n).abs() < 0.8,
            "passes {} vs {}",
            pass_new / n,
            pass_old / n
        );
    }

    #[test]
    fn streaming_retraversal_caps_passes_and_rejects_zero() {
        let scores = [-1e12f64; 5];
        let mut cfg = RetraversalConfig::paper(0.1, 3, 1.0);
        cfg.max_passes = 4;
        let mut rng = DpRng::seed_from_u64(523);
        let mut scratch = RunScratch::new();
        let run = svt_retraversal_from(&scores[..], 0.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert!(run.passes <= 4);
        assert!(scratch.selected().len() < 3);

        cfg.max_passes = 0;
        assert!(svt_retraversal_from(&scores[..], 0.0, &cfg, &mut rng, &mut scratch).is_err());
    }

    #[test]
    fn selected_items_never_repeat_across_passes() {
        let scores: Vec<f64> = (0..30).map(|i| i as f64 * 10.0).collect();
        let mut cfg = RetraversalConfig::paper(1.0, 8, 3.0);
        cfg.max_passes = 64;
        let mut rng = DpRng::seed_from_u64(547);
        for _ in 0..20 {
            let out = svt_retraversal(&scores, 100.0, &cfg, &mut rng).unwrap();
            let mut d = out.selected.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), out.selected.len());
        }
    }
}
