//! The mutable owner of a served score vector: raw scores behind a
//! copy-on-write overlay, publishing cheap epoch-stamped snapshots.
//!
//! In the paper's interactive setting (§3) an analyst names one query
//! at a time and SVT compares its true answer `q(D)` with the noisy
//! threshold, so a served session needs exactly one score per query
//! from the dataset it pinned. [`LiveScores`] therefore keeps only the
//! raw scores: an immutable base shared by every snapshot published
//! since the last fold, plus an ordered overlay of the items changed
//! since that base.
//!
//! * [`set_score`](LiveScores::set_score) /
//!   [`increment`](LiveScores::increment) write one overlay entry.
//! * [`snapshot`](LiveScores::snapshot) publishes an immutable
//!   [`ScoreSnapshot`]: the shared base, a sorted copy of the overlay
//!   and the epoch. Clean calls return the cached [`Arc`]; the first
//!   mutation after a publish reserves the next epoch.
//! * Once the overlay holds ⌈√n⌉ items, the next publish folds it into
//!   a fresh base. A publish thus copies at most ⌈√n⌉ overlay entries,
//!   a fold copies the `n` scores once per ⌈√n⌉ changed items, and a
//!   read is a binary search in the overlay, then a load from the base.
//!
//! Nothing here sorts. An engine that needs the sorted, grouped view
//! builds a [`GroupedSnapshot`](crate::GroupedSnapshot) from the scores
//! once, as a cold `SweepContext` does.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::DataError;
use crate::scores::check_scores;
use crate::Result;

/// An immutable, epoch-stamped view of a [`LiveScores`] owner's scores
/// at one publish — what a served session pins.
#[derive(Debug)]
pub struct ScoreSnapshot {
    /// The owner's scores as of its last fold, shared with every
    /// snapshot published since.
    base: Arc<[f64]>,
    /// `(item, score)` for the items changed since `base`, by item.
    overlay: Box<[(usize, f64)]>,
    /// The publisher's counter at this publish.
    epoch: u64,
}

impl ScoreSnapshot {
    /// The publisher's monotonically increasing version stamp.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total number of items.
    #[inline]
    pub fn len_items(&self) -> usize {
        self.base.len()
    }

    /// The score of `item` at this publish.
    ///
    /// # Panics
    /// When `item >= len_items()`.
    #[inline]
    pub fn score_of_item(&self, item: usize) -> f64 {
        match self.overlay.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(k) => self.overlay[k].1,
            Err(_) => self.base[item],
        }
    }
}

/// A mutable score vector publishing immutable epoch-stamped
/// [`ScoreSnapshot`]s.
///
/// ```
/// use dp_data::LiveScores;
///
/// let mut live = LiveScores::from_scores(&[2.0, 7.0, 2.0, 1.0])?;
/// let before = live.snapshot();
/// assert_eq!(before.epoch(), 0);
/// assert_eq!(before.score_of_item(3), 1.0);
///
/// live.increment(3, 10.0)?; // item 3: 1.0 → 11.0
/// let after = live.snapshot();
/// assert_eq!(after.epoch(), 1);
/// assert_eq!(after.score_of_item(3), 11.0);
/// // The earlier snapshot is immutable: still the old view.
/// assert_eq!(before.score_of_item(3), 1.0);
/// # Ok::<(), dp_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LiveScores {
    /// Scores as of the last fold, always finite.
    base: Arc<[f64]>,
    /// Current score of every item changed since `base`.
    overlay: BTreeMap<usize, f64>,
    /// Epoch the next published snapshot will carry.
    next_epoch: u64,
    /// The last published snapshot, until a mutation invalidates it.
    cached: Option<Arc<ScoreSnapshot>>,
}

impl LiveScores {
    /// Validates and copies a raw score slice (no sort); the first
    /// [`snapshot`](Self::snapshot) carries epoch 0.
    ///
    /// # Errors
    /// [`DataError::Empty`] / [`DataError::NonFiniteScore`] exactly as
    /// [`GroupedSnapshot::from_scores`](crate::GroupedSnapshot::from_scores).
    pub fn from_scores(scores: &[f64]) -> Result<Self> {
        check_scores(scores)?;
        let mut live = Self {
            base: scores.into(),
            overlay: BTreeMap::new(),
            next_epoch: 0,
            cached: None,
        };
        live.snapshot();
        Ok(live)
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// A live owner is never empty (construction rejects empty slices).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current raw score of `item`.
    ///
    /// # Errors
    /// [`DataError::ItemOutOfRange`] when `item >= len()`.
    pub fn score(&self, item: usize) -> Result<f64> {
        match self.base.get(item) {
            Some(&base) => Ok(self.overlay.get(&item).copied().unwrap_or(base)),
            None => Err(DataError::ItemOutOfRange {
                item,
                n_items: self.len(),
            }),
        }
    }

    /// The epoch [`snapshot`](Self::snapshot) will report: the cached
    /// snapshot's epoch while clean, the reserved next epoch once a
    /// mutation has landed.
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Sets `item`'s score to `new`.
    ///
    /// # Errors
    /// [`DataError::ItemOutOfRange`] for an unknown item,
    /// [`DataError::NonFiniteScore`] for a NaN/infinite score; nothing
    /// changes on error.
    pub fn set_score(&mut self, item: usize, new: f64) -> Result<()> {
        let old = self.score(item)?;
        if !new.is_finite() {
            return Err(DataError::NonFiniteScore {
                index: item,
                value: new,
            });
        }
        if new == old {
            // Nothing a reader can observe changes (this also absorbs
            // `+0.0` ↔ `-0.0` flips), so the published view is still
            // exact: no write, no epoch bump.
            return Ok(());
        }
        self.invalidate();
        self.overlay.insert(item, new);
        Ok(())
    }

    /// Adds `delta` to `item`'s score and returns the new value.
    ///
    /// # Errors
    /// As [`set_score`](Self::set_score); the resulting score must be
    /// finite.
    pub fn increment(&mut self, item: usize, delta: f64) -> Result<f64> {
        let new = self.score(item)? + delta;
        self.set_score(item, new)?;
        Ok(new)
    }

    /// Publishes the current scores as an immutable epoch-stamped
    /// snapshot. Clean calls return the cached [`Arc`]; after a
    /// mutation the overlay is copied once (or, at ⌈√n⌉ entries,
    /// folded into a fresh base first) and the epoch advances.
    pub fn snapshot(&mut self) -> Arc<ScoreSnapshot> {
        if let Some(cached) = &self.cached {
            return Arc::clone(cached);
        }
        if self.overlay.len() >= fold_threshold(self.len()) {
            // Copy-on-write: snapshots still pinning the old base keep it.
            let base = Arc::make_mut(&mut self.base);
            for (item, score) in std::mem::take(&mut self.overlay) {
                base[item] = score;
            }
        }
        let snap = Arc::new(ScoreSnapshot {
            base: Arc::clone(&self.base),
            overlay: self.overlay.iter().map(|(&i, &s)| (i, s)).collect(),
            epoch: self.next_epoch,
        });
        self.cached = Some(Arc::clone(&snap));
        snap
    }

    /// Drops the cached snapshot and reserves the next epoch (once per
    /// dirty period, not per mutation).
    fn invalidate(&mut self) {
        if self.cached.take().is_some() {
            self.next_epoch += 1;
        }
    }
}

/// Overlay size at which a publish folds the overlay into the base:
/// ⌈√n⌉, balancing the per-publish overlay copy against the `O(n)` fold.
fn fold_threshold(n: usize) -> usize {
    let root = n.isqrt();
    if root * root == n {
        root
    } else {
        root + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupedSnapshot;

    fn values(snap: &ScoreSnapshot) -> Vec<f64> {
        (0..snap.len_items())
            .map(|i| snap.score_of_item(i))
            .collect()
    }

    #[test]
    fn construction_matches_direct_snapshot() {
        let v = vec![2.0, 7.0, 2.0, 2.0, 7.0, 1.0];
        let mut live = LiveScores::from_scores(&v).unwrap();
        let snap = live.snapshot();
        assert_eq!(values(&snap), v);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(live.len(), 6);
        assert!(!live.is_empty());
    }

    #[test]
    fn construction_validates_like_snapshot() {
        assert_eq!(LiveScores::from_scores(&[]).unwrap_err(), DataError::Empty);
        assert!(matches!(
            LiveScores::from_scores(&[1.0, f64::INFINITY]).unwrap_err(),
            DataError::NonFiniteScore { index: 1, .. }
        ));
    }

    #[test]
    fn set_score_rejects_bad_inputs_without_mutating() {
        let mut live = LiveScores::from_scores(&[3.0, 1.0]).unwrap();
        let before = live.snapshot();
        assert!(matches!(
            live.set_score(2, 1.0).unwrap_err(),
            DataError::ItemOutOfRange {
                item: 2,
                n_items: 2
            }
        ));
        assert!(matches!(
            live.set_score(0, f64::NAN).unwrap_err(),
            DataError::NonFiniteScore { index: 0, .. }
        ));
        assert!(matches!(
            live.increment(0, f64::INFINITY).unwrap_err(),
            DataError::NonFiniteScore { index: 0, .. }
        ));
        let after = live.snapshot();
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(values(&after), [3.0, 1.0]);
        assert_eq!(after.epoch(), 0);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn out_of_range_errors_report_the_full_item_index() {
        let mut live = LiveScores::from_scores(&[1.0]).unwrap();
        let item = (1usize << 32) + 3;
        let want = DataError::ItemOutOfRange { item, n_items: 1 };
        assert_eq!(live.set_score(item, 1.0).unwrap_err(), want);
        assert_eq!(live.increment(item, 1.0).unwrap_err(), want);
        assert_eq!(live.score(item).unwrap_err(), want);
    }

    #[test]
    fn epoch_advances_once_per_dirty_period() {
        let mut live = LiveScores::from_scores(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(live.snapshot().epoch(), 0);
        live.set_score(1, 9.0).unwrap();
        live.increment(2, 4.0).unwrap();
        assert_eq!(live.current_epoch(), 1);
        let snap = live.snapshot();
        assert_eq!(snap.epoch(), 1);
        // Clean republish: same Arc, same epoch.
        assert!(Arc::ptr_eq(&snap, &live.snapshot()));
        live.set_score(0, 0.5).unwrap();
        assert_eq!(live.snapshot().epoch(), 2);
    }

    #[test]
    fn published_snapshots_are_immutable_under_later_updates() {
        let mut live = LiveScores::from_scores(&[4.0, 2.0, 6.0]).unwrap();
        let pinned = live.snapshot();
        live.set_score(1, 100.0).unwrap();
        live.increment(0, -3.0).unwrap();
        assert_eq!(values(&pinned), [4.0, 2.0, 6.0]);
        assert_eq!(values(&live.snapshot()), [1.0, 100.0, 6.0]);
    }

    #[test]
    fn equal_value_rewrite_is_a_no_op() {
        let mut live = LiveScores::from_scores(&[4.0, 2.0, 4.0, 0.0]).unwrap();
        let before = live.snapshot();
        live.set_score(2, 4.0).unwrap();
        live.increment(1, 0.0).unwrap();
        // A signed-zero flip compares `==` too.
        live.set_score(3, -0.0).unwrap();
        let after = live.snapshot();
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(after.epoch(), 0);
    }

    #[test]
    fn overlay_folds_into_a_fresh_base_at_ceil_sqrt_n() {
        // n = 10: ⌈√10⌉ = 4 changed items trigger the fold.
        let n = 10;
        assert_eq!(fold_threshold(n), 4);
        let mut live = LiveScores::from_scores(&vec![0.0; n]).unwrap();
        let first = live.snapshot();
        let mut published = vec![Arc::clone(&first)];
        for item in 0..3 {
            live.set_score(item, 1.0 + item as f64).unwrap();
            let snap = live.snapshot();
            assert!(Arc::ptr_eq(&snap.base, &first.base), "item {item}");
            assert_eq!(snap.overlay.len(), item + 1);
            published.push(snap);
        }
        // The fourth changed item reaches ⌈√n⌉: exactly one fold.
        live.set_score(3, 4.0).unwrap();
        let folded = live.snapshot();
        assert!(!Arc::ptr_eq(&folded.base, &first.base));
        assert!(folded.overlay.is_empty());
        assert_eq!(values(&folded)[..5], [1.0, 2.0, 3.0, 4.0, 0.0]);
        // The next publishes share the fresh base again.
        live.set_score(9, 5.0).unwrap();
        let next = live.snapshot();
        assert!(Arc::ptr_eq(&next.base, &folded.base));
        assert_eq!(next.overlay.len(), 1);
        // Snapshots pinned before the fold still read their own values.
        for (k, snap) in published.iter().enumerate() {
            let want: Vec<f64> = (0..n)
                .map(|i| if i < k { 1.0 + i as f64 } else { 0.0 })
                .collect();
            assert_eq!(values(snap), want, "publish {k}");
            assert!(Arc::ptr_eq(&snap.base, &first.base));
        }
    }

    #[test]
    fn long_random_walk_matches_rebuild_at_every_step() {
        // Deterministic LCG walk over a small universe with heavy tie
        // pressure (scores quantized to few distinct values), crossing
        // many folds (⌈√24⌉ = 5).
        let initial: Vec<f64> = (0..24).map(|i| f64::from(i % 5)).collect();
        let mut live = LiveScores::from_scores(&initial).unwrap();
        let mut mirror = initial;
        let mut state = 0x243f_6a88_85a3_08d3_u64;
        for step in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let item = (state >> 33) as usize % live.len();
            let value = f64::from(((state >> 17) % 7) as u32) - 3.0;
            if step % 3 == 0 {
                live.increment(item, value).unwrap();
                mirror[item] += value;
            } else {
                live.set_score(item, value).unwrap();
                mirror[item] = value;
            }
            let published = values(&live.snapshot());
            assert_eq!(published, mirror, "step {step}");
            assert_eq!(
                GroupedSnapshot::from_scores(&published).unwrap(),
                GroupedSnapshot::from_scores(&mirror).unwrap(),
                "step {step}"
            );
        }
    }
}
