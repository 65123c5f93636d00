//! Score vectors: the object every selection algorithm in the paper
//! actually consumes.
//!
//! In the non-interactive setting the whole experiment reduces to a
//! vector of query scores (item supports): SVT compares them against a
//! threshold, EM samples from them, and the metrics compare selections
//! against the exact top-`c`. [`ScoreVector`] owns that vector and fixes
//! the two conventions the paper's evaluation needs:
//!
//! * **threshold**: "each time uses the average score for the c'th query
//!   and the c+1'th query as the threshold" (§6) —
//!   [`ScoreVector::paper_threshold`];
//! * **top-`c`**: deterministic, ties broken by item index —
//!   [`ScoreVector::top_c`].

use std::sync::{Arc, OnceLock};

use crate::error::DataError;
use crate::groups::GroupedSnapshot;
use crate::Result;

/// The check every score owner runs at construction: [`DataError::Empty`]
/// on an empty slice, else [`DataError::NonFiniteScore`] for the first
/// NaN or infinite entry, else [`DataError::ScoreMassOverflow`] when
/// `Σ|score|` overflows. A finite absolute mass bounds every cumulative
/// score sum and threshold midpoint derived from the scores.
pub(crate) fn check_scores(scores: &[f64]) -> Result<()> {
    if scores.is_empty() {
        return Err(DataError::Empty);
    }
    // Σ|score| is finite exactly when every entry is and their mass
    // fits. Four running sums keep the additions from queueing behind
    // one another, so the accepting path costs less than a per-entry scan.
    let mut lanes = [0.0f64; 4];
    let mut chunks = scores.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane += v.abs();
        }
    }
    let tail: f64 = chunks.remainder().iter().map(|v| v.abs()).sum();
    if (lanes.iter().sum::<f64>() + tail).is_finite() {
        return Ok(());
    }
    match scores.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(DataError::NonFiniteScore {
            index,
            value: scores[index],
        }),
        None => Err(DataError::ScoreMassOverflow),
    }
}

/// An immutable vector of query scores indexed by item/query id.
///
/// ```
/// use dp_data::ScoreVector;
///
/// let sv = ScoreVector::from_supports(&[40, 10, 90, 25])?;
/// assert_eq!(sv.top_c(2), vec![2, 0]);            // 90, 40
/// assert_eq!(sv.paper_threshold(2), 32.5);        // (40 + 25) / 2
/// assert_eq!(sv.score_at_rank(1), Some(90.0));
/// # Ok::<(), dp_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScoreVector {
    scores: Vec<f64>,
    /// Lazily built grouped snapshot, shared with every
    /// [`grouped_scores`](Self::grouped_scores) caller. `OnceLock`
    /// (not `OnceCell`) so a `ScoreVector` shared across the runner's
    /// scoped threads stays `Sync`.
    snapshot: OnceLock<Arc<GroupedSnapshot>>,
}

/// Equality is over the raw scores alone; whether the sorted snapshot
/// cache happens to be populated is an evaluation detail.
impl PartialEq for ScoreVector {
    fn eq(&self, other: &Self) -> bool {
        self.scores == other.scores
    }
}

impl ScoreVector {
    /// Wraps a vector of scores.
    ///
    /// # Errors
    /// [`DataError::Empty`] on an empty vector and
    /// [`DataError::NonFiniteScore`] if any entry is NaN or infinite.
    pub fn new(scores: Vec<f64>) -> Result<Self> {
        check_scores(&scores)?;
        Ok(Self {
            scores,
            snapshot: OnceLock::new(),
        })
    }

    /// Builds a score vector from integer supports.
    ///
    /// # Errors
    /// [`DataError::Empty`] on an empty slice.
    pub fn from_supports(supports: &[u64]) -> Result<Self> {
        Self::new(supports.iter().map(|&s| s as f64).collect())
    }

    /// Number of scores.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the vector is empty (never true for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The raw scores.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.scores
    }

    /// The score of item `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        self.scores.get(i).copied()
    }

    /// The maximum score.
    pub fn max(&self) -> f64 {
        self.scores
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The lazily built shared snapshot (built exactly once).
    fn snapshot_ref(&self) -> &Arc<GroupedSnapshot> {
        self.snapshot.get_or_init(|| {
            Arc::new(
                GroupedSnapshot::from_scores(&self.scores)
                    .expect("scores validated at construction"),
            )
        })
    }

    fn sorted_indices(&self) -> &[u32] {
        self.snapshot_ref().top_c(usize::MAX)
    }

    /// The indices of the `c` highest scores, ties broken by smaller
    /// index, in decreasing score order. Returns all indices when
    /// `c ≥ len()`.
    pub fn top_c(&self, c: usize) -> Vec<usize> {
        self.snapshot_ref()
            .top_c(c)
            .iter()
            .map(|&i| i as usize)
            .collect()
    }

    /// The `i`-th highest score (`i` is 1-based rank). `None` when the
    /// rank exceeds the vector length.
    pub fn score_at_rank(&self, rank: usize) -> Option<f64> {
        if rank == 0 || rank > self.len() {
            return None;
        }
        Some(self.scores[self.sorted_indices()[rank - 1] as usize])
    }

    /// Mean score of the exact top-`c` (divides by `c`, clamped to the
    /// vector length).
    pub fn top_c_average(&self, c: usize) -> f64 {
        let c = c.min(self.len()).max(1);
        let total: f64 = self
            .sorted_indices()
            .iter()
            .take(c)
            .map(|&i| self.scores[i as usize])
            .sum();
        total / c as f64
    }

    /// The paper's §6 threshold: the average of the `c`-th and
    /// `(c+1)`-th highest scores. Falls back to the `c`-th score when
    /// there is no `(c+1)`-th.
    pub fn paper_threshold(&self, c: usize) -> f64 {
        let c = c.max(1);
        let at_c = self
            .score_at_rank(c.min(self.len()))
            .expect("nonempty score vector");
        match self.score_at_rank(c + 1) {
            Some(next) => 0.5 * (at_c + next),
            None => at_c,
        }
    }

    /// The index-preserving grouped form: runs of tied scores in
    /// decreasing score order, each run knowing its member item indices
    /// ([`GroupedSnapshot`]). The snapshot is built once and shared:
    /// every call returns a clone of the same cached [`Arc`], so
    /// callers stop paying for per-call table clones.
    pub fn grouped_scores(&self) -> Arc<GroupedSnapshot> {
        Arc::clone(self.snapshot_ref())
    }

    /// Sum of all scores.
    pub fn total(&self) -> f64 {
        self.scores.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[f64]) -> ScoreVector {
        ScoreVector::new(v.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(ScoreVector::new(vec![]).unwrap_err(), DataError::Empty);
        let err = ScoreVector::new(vec![1.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, DataError::NonFiniteScore { index: 1, .. }));
        assert!(ScoreVector::new(vec![0.0]).is_ok());
        // Finite entries whose absolute mass overflows are rejected too.
        assert!(ScoreVector::new(vec![f64::MAX, -1.0]).is_ok());
        for v in [vec![f64::MAX, f64::MAX], vec![f64::MAX, -f64::MAX, 1.0]] {
            assert_eq!(
                ScoreVector::new(v).unwrap_err(),
                DataError::ScoreMassOverflow
            );
        }
    }

    #[test]
    fn from_supports_converts() {
        let s = ScoreVector::from_supports(&[3, 1, 4]).unwrap();
        assert_eq!(s.as_slice(), &[3.0, 1.0, 4.0]);
    }

    #[test]
    fn top_c_orders_by_score_then_index() {
        let s = sv(&[5.0, 9.0, 5.0, 1.0, 9.0]);
        assert_eq!(s.top_c(3), vec![1, 4, 0]);
        assert_eq!(s.top_c(0), Vec::<usize>::new());
        assert_eq!(s.top_c(99), vec![1, 4, 0, 2, 3]);
    }

    #[test]
    fn score_at_rank_walks_sorted_order() {
        let s = sv(&[10.0, 30.0, 20.0]);
        assert_eq!(s.score_at_rank(1), Some(30.0));
        assert_eq!(s.score_at_rank(2), Some(20.0));
        assert_eq!(s.score_at_rank(3), Some(10.0));
        assert_eq!(s.score_at_rank(0), None);
        assert_eq!(s.score_at_rank(4), None);
    }

    #[test]
    fn paper_threshold_averages_boundary_scores() {
        let s = sv(&[10.0, 30.0, 20.0, 5.0]);
        // c = 2: avg of 2nd (20) and 3rd (10) highest = 15.
        assert!((s.paper_threshold(2) - 15.0).abs() < 1e-12);
        // c = len: only the c-th exists.
        assert!((s.paper_threshold(4) - 5.0).abs() < 1e-12);
        // c beyond len behaves like c = len.
        assert!((s.paper_threshold(10) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn top_c_average_divides_by_c() {
        let s = sv(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.top_c_average(2) - 3.5).abs() < 1e-12);
        assert!((s.top_c_average(4) - 2.5).abs() < 1e-12);
        // Clamped beyond length.
        assert!((s.top_c_average(10) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn grouped_collapses_ties_in_descending_order() {
        let s = sv(&[2.0, 7.0, 2.0, 2.0, 7.0, 1.0]);
        assert_eq!(
            s.grouped_scores().pairs(),
            vec![(7.0, 2), (2.0, 3), (1.0, 1)]
        );
    }

    #[test]
    fn grouped_counts_sum_to_len() {
        let s = sv(&[1.0, 1.0, 2.0, 3.0, 3.0, 3.0]);
        let total: u64 = s.grouped_scores().pairs().iter().map(|&(_, n)| n).sum();
        assert_eq!(total as usize, s.len());
    }

    #[test]
    fn grouped_scores_returns_the_shared_cached_snapshot() {
        let s = sv(&[2.0, 7.0, 2.0, 1.0]);
        let a = s.grouped_scores();
        let b = s.grouped_scores();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        // Equality ignores the cache: a fresh vector with the same
        // scores compares equal whether or not it has grouped yet.
        let t = sv(&[2.0, 7.0, 2.0, 1.0]);
        assert_eq!(s, t);
    }

    #[test]
    fn max_and_total() {
        let s = sv(&[1.5, -2.0, 4.0]);
        assert_eq!(s.max(), 4.0);
        assert!((s.total() - 3.5).abs() < 1e-12);
    }
}
