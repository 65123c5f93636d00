//! The per-dataset sweep context: one grouping, shared by every cell.
//!
//! A sweep evaluates many `(algorithm, c)` cells over one dataset.
//! Everything those cells need from the dataset is a function of a
//! single sorted view of its scores — the grouped runs, the exact
//! top-`c` (a prefix of the sorted order), the §6 threshold and top
//! score sum for any `c` — so [`SweepContext`] holds that view (an
//! `Arc`-shared [`GroupedSnapshot`], built exactly once) and every
//! context borrows it:
//!
//! ```text
//! PreparedDataset (name, ScoreVector)
//!   └── SweepContext             ← one shared grouping per dataset
//!        ├── Arc<GroupedSnapshot> (order, positions, offsets, prefix sums)
//!        ├── rank table          rank_cut(c): O(1) → RankCut
//!        ├── ExactContext::new(c₁)     ─┐ borrow; no private sorts,
//!        ├── ExactContext::new(c₂)      │ no per-context OnceLock cells
//!        ├── ExactContext::grouped(c₁) ─┘
//!        └── outcome(cut, selected) — the one metric computation
//! ```
//!
//! Because both score sources resolve their cutoffs through the same
//! rank table and score their selections through the same
//! [`outcome`](SweepContext::outcome), a cell's [`RunOutcome`] is a
//! pure function of its selected index stream — which the two sources
//! make bit-identical (see [`super::exact`]).
//!
//! The snapshot is pinned for the context's lifetime: cells cloned from
//! one `SweepContext` share the same `Arc` (a clone is a refcount
//! bump), so every cell of a sweep reads the same sorted view.

use std::sync::Arc;

use crate::simulate::RunOutcome;
use dp_data::{GroupedSnapshot, RankCut, ScoreVector};

/// Per-dataset state shared by every `(algorithm, c)` cell of a
/// sweep: the index-preserving grouped score runs and their `O(1)` rank
/// table, behind an `Arc` so clones share one allocation. Construction
/// performs the dataset's one and only grouping (reusing
/// [`ScoreVector`]'s cached snapshot when present).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepContext {
    groups: Arc<GroupedSnapshot>,
}

impl SweepContext {
    /// Builds the context from a score vector — the single grouping of
    /// the sweep (shared with the vector's snapshot cache).
    pub fn new(scores: &ScoreVector) -> Self {
        Self {
            groups: scores.grouped_scores(),
        }
    }

    /// The shared grouped score runs.
    pub fn groups(&self) -> &GroupedSnapshot {
        &self.groups
    }

    /// The shared snapshot handle (cheap to clone).
    pub fn snapshot(&self) -> &Arc<GroupedSnapshot> {
        &self.groups
    }

    /// Number of items in the dataset.
    pub fn len_items(&self) -> usize {
        self.groups.len_items()
    }

    /// Resolves cutoff `c` against the shared rank table in `O(1)`:
    /// effective size, §6 threshold, and top-`c` score sum — no
    /// re-sort, no `O(n)` pass.
    pub fn cut(&self, c: usize) -> RankCut {
        self.groups.rank_cut(c)
    }

    /// The exact top-`c` indices as a zero-copy prefix of the shared
    /// sorted order (decreasing score, ties by smaller index). Growing
    /// `c` extends the slice without reshuffling it — the
    /// prefix-stability contract contexts at different `c` rely on.
    pub fn true_top(&self, c: usize) -> &[u32] {
        self.groups.top_c(c)
    }

    /// Scores one run's selection into the §6 metrics, identically for
    /// every engine: FNR from rank membership against the shared order,
    /// SER from group-resolved scores over the rank table's top sum.
    /// Engines that emit the same index stream therefore report
    /// bit-identical outcomes.
    pub fn outcome(&self, cut: &RankCut, selected: &[usize]) -> RunOutcome {
        let fnr = if cut.c_eff == 0 {
            0.0
        } else {
            let hits = selected
                .iter()
                .filter(|&&i| self.groups.is_top(i, cut.c_eff))
                .count();
            (cut.c_eff - hits) as f64 / cut.c_eff as f64
        };
        let ser = if cut.top_sum <= 0.0 {
            0.0
        } else {
            let sel_sum: f64 = selected.iter().map(|&i| self.groups.score_of_item(i)).sum();
            (1.0 - sel_sum / cut.top_sum).clamp(0.0, 1.0)
        };
        RunOutcome { fnr, ser }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{false_negative_rate, score_error_rate};

    fn sv(v: &[f64]) -> ScoreVector {
        ScoreVector::new(v.to_vec()).unwrap()
    }

    #[test]
    fn outcome_matches_reference_metrics() {
        // The shared outcome computation must agree with the crate's
        // reference metric functions (HashSet membership, raw-slice
        // sums) on arbitrary selections — same sets, same ratios.
        let v: Vec<f64> = (0..60).map(|i| f64::from((i * 17) % 23)).collect();
        let scores = sv(&v);
        let ctx = SweepContext::new(&scores);
        for c in [1usize, 5, 23, 60, 100] {
            let cut = ctx.cut(c);
            let true_top = scores.top_c(c);
            for sel in [
                vec![],
                vec![0, 1, 2],
                (0..30).collect::<Vec<_>>(),
                true_top.clone(),
                vec![59, 58, 3],
            ] {
                let got = ctx.outcome(&cut, &sel);
                let want_fnr = false_negative_rate(&sel, &true_top);
                let want_ser = score_error_rate(&sel, &true_top, scores.as_slice());
                assert!(
                    (got.fnr - want_fnr).abs() < 1e-12,
                    "c={c} sel={sel:?}: fnr {} vs {}",
                    got.fnr,
                    want_fnr
                );
                assert!(
                    (got.ser - want_ser).abs() < 1e-9,
                    "c={c} sel={sel:?}: ser {} vs {}",
                    got.ser,
                    want_ser
                );
            }
        }
    }

    #[test]
    fn true_top_is_prefix_stable_as_c_grows_within_one_context() {
        // The satellite contract: a shared SweepContext hands every c
        // the same underlying order, so growing c extends the exact
        // top-c — it never reshuffles it. (Per-context top-c sorts gave
        // no such guarantee across c.)
        let v: Vec<f64> = (0..120).map(|i| f64::from((i * 7) % 31)).collect();
        let ctx = SweepContext::new(&sv(&v));
        let full = ctx.true_top(v.len()).to_vec();
        for c in 0..=v.len() {
            assert_eq!(ctx.true_top(c), &full[..c], "c={c}");
        }
        // And the rank cuts are consistent with the prefix they gate.
        for c in 1..=v.len() {
            let cut = ctx.cut(c);
            assert_eq!(cut.c_eff, c);
            let sum: f64 = ctx.true_top(c).iter().map(|&i| v[i as usize]).sum();
            assert!((cut.top_sum - sum).abs() < 1e-9, "c={c}");
        }
    }

    #[test]
    fn outcome_of_the_true_top_is_zero_error() {
        let v = vec![9.0, 9.0, 5.0, 5.0, 1.0];
        let ctx = SweepContext::new(&sv(&v));
        for c in 1..=5 {
            let cut = ctx.cut(c);
            let sel: Vec<usize> = ctx.true_top(c).iter().map(|&i| i as usize).collect();
            let out = ctx.outcome(&cut, &sel);
            assert_eq!(out.fnr, 0.0, "c={c}");
            assert_eq!(out.ser, 0.0, "c={c}");
        }
    }

    #[test]
    fn clones_share_one_pinned_snapshot() {
        let ctx = SweepContext::new(&sv(&[4.0, 1.0, 4.0, 2.0]));
        let cell = ctx.clone();
        assert!(Arc::ptr_eq(ctx.snapshot(), cell.snapshot()));
    }
}
