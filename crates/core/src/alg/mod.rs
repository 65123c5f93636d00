//! The SVT variants of Figure 1, behind one streaming trait.
//!
//! Each submodule mirrors its Fig. 1 pseudocode line by line — noise
//! scales, `ε` splits, abort semantics, threshold-noise resets, numeric
//! outputs — *including the bugs*, because the bugs are the paper's
//! subject. The table below is Fig. 2; `crate::catalog` renders it.
//!
//! | | Alg. 1 | Alg. 2 | Alg. 3 | Alg. 4 | Alg. 5 | Alg. 6 |
//! |---|---|---|---|---|---|---|
//! | `ε₁` | ε/2 | ε/2 | ε/2 | ε/4 | ε/2 | ε/2 |
//! | scale of `ρ` | Δ/ε₁ | cΔ/ε₁ | Δ/ε₁ | Δ/ε₁ | Δ/ε₁ | Δ/ε₁ |
//! | resets `ρ` per ⊤ | | yes | | | | |
//! | scale of `ν` | 2cΔ/ε₂ | 2cΔ/ε₁ | cΔ/ε₂ | Δ/ε₂ | 0 | Δ/ε₂ |
//! | outputs `q+ν` for ⊤ | | | yes | | | |
//! | unbounded ⊤s | | | | | yes | yes |
//! | privacy | ε-DP | ε-DP | ∞-DP | (1+6c)ε/4 | ∞-DP | ∞-DP |
//!
//! Beyond Fig. 1, the suite carries the post-2017 generations as
//! first-class variants behind the same trait: [`SvtRevisited`]
//! (arXiv:2010.00917 — budget charged only on ⊤ answers) and
//! [`ExpNoiseSvt`] (arXiv:2407.20068 — one-sided exponential noise).

mod alg1;
mod alg2;
mod alg3;
mod alg4;
mod alg5;
mod alg6;
mod exp_noise;
mod revisited;
mod standard;

pub use alg1::Alg1;
pub use alg2::Alg2;
pub(crate) use alg2::Alg2Noise;
pub use alg3::Alg3;
pub use alg4::Alg4;
pub use alg5::Alg5;
pub use alg6::Alg6;
pub use exp_noise::ExpNoiseSvt;
pub use revisited::SvtRevisited;
pub use standard::{StandardSvt, StandardSvtConfig};

use crate::response::{SvtAnswer, SvtRun};
use crate::threshold::Thresholds;
use crate::{Result, SvtError};
use dp_mechanisms::DpRng;

/// Streaming interface shared by every SVT variant.
///
/// The interactive setting is the primitive: queries arrive one at a
/// time, the algorithm answers each before seeing the next, and a
/// variant with a cutoff stops accepting queries after its `c`-th
/// positive answer. The caller supplies the *true* query answer
/// `q_i(D)` (evaluating queries against a datastore is the caller's
/// job — see `dp-data`) and the threshold `T_i`.
pub trait SparseVector {
    /// Answers the next query. `query_answer` is the exact `q_i(D)`;
    /// `threshold` is `T_i`.
    ///
    /// # Errors
    /// [`SvtError::Halted`] once the variant has aborted;
    /// [`SvtError::NonFiniteInput`] on NaN/infinite inputs.
    fn respond(&mut self, query_answer: f64, threshold: f64, rng: &mut DpRng) -> Result<SvtAnswer>;

    /// Whether the variant has aborted (output its `c`-th ⊤).
    fn is_halted(&self) -> bool;

    /// Positive answers produced so far.
    fn positives(&self) -> usize;

    /// The variant's display name (e.g. `"Alg. 3 (Roth '11)"`).
    fn name(&self) -> &'static str;
}

/// Feeds a whole query stream through an algorithm, stopping early if it
/// halts. This is the non-interactive driver used by the experiments.
///
/// # Errors
/// Propagates the first error from [`SparseVector::respond`] or
/// [`Thresholds::for_query`]; an early halt is *not* an error.
pub fn run_svt<A: SparseVector + ?Sized>(
    alg: &mut A,
    query_answers: &[f64],
    thresholds: &Thresholds,
    rng: &mut DpRng,
) -> Result<SvtRun> {
    let mut answers = Vec::with_capacity(query_answers.len());
    for (i, &q) in query_answers.iter().enumerate() {
        if alg.is_halted() {
            break;
        }
        let t = thresholds.for_query(i)?;
        answers.push(alg.respond(q, t, rng)?);
    }
    Ok(SvtRun {
        answers,
        halted: alg.is_halted(),
    })
}

/// Shared parameter validation for the variant constructors.
pub(crate) fn validate_common(epsilon: f64, sensitivity: f64, c: usize) -> Result<()> {
    dp_mechanisms::error::check_epsilon(epsilon).map_err(SvtError::from)?;
    dp_mechanisms::error::check_sensitivity(sensitivity).map_err(SvtError::from)?;
    crate::error::check_cutoff(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_svt_stops_at_halt() {
        // Alg. 1 with c = 1 and an overwhelming first query must answer
        // exactly one query and halt.
        let mut rng = DpRng::seed_from_u64(211);
        let mut alg = Alg1::new(1.0, 1.0, 1, &mut rng).unwrap();
        let run = run_svt(
            &mut alg,
            &[1e9, 0.0, 0.0],
            &Thresholds::Constant(0.0),
            &mut rng,
        )
        .unwrap();
        assert!(run.halted);
        assert_eq!(run.examined(), 1);
        assert_eq!(run.positives(), 1);
    }

    #[test]
    fn run_svt_answers_everything_when_no_halt() {
        let mut rng = DpRng::seed_from_u64(223);
        let mut alg = Alg1::new(1.0, 1.0, 5, &mut rng).unwrap();
        let run = run_svt(&mut alg, &[-1e9; 20], &Thresholds::Constant(0.0), &mut rng).unwrap();
        assert!(!run.halted);
        assert_eq!(run.examined(), 20);
        assert_eq!(run.positives(), 0);
    }

    #[test]
    fn run_svt_propagates_missing_thresholds() {
        let mut rng = DpRng::seed_from_u64(227);
        let mut alg = Alg1::new(1.0, 1.0, 5, &mut rng).unwrap();
        let err = run_svt(
            &mut alg,
            &[0.0, 0.0],
            &Thresholds::PerQuery(vec![0.0]),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, SvtError::MissingThreshold { query_index: 1 }));
    }

    #[test]
    fn trait_objects_work() {
        // The trait must be object-safe: the experiments iterate over
        // heterogeneous variant collections.
        let mut rng = DpRng::seed_from_u64(229);
        let mut algs: Vec<Box<dyn SparseVector>> = vec![
            Box::new(Alg1::new(1.0, 1.0, 2, &mut rng).unwrap()),
            Box::new(Alg5::new(1.0, 1.0, &mut rng).unwrap()),
        ];
        for alg in &mut algs {
            let run = run_svt(
                alg.as_mut(),
                &[0.0; 4],
                &Thresholds::Constant(100.0),
                &mut rng,
            )
            .unwrap();
            assert_eq!(run.examined(), 4);
        }
    }
}
