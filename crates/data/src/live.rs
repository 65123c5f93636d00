//! The mutable owner of a served score vector: raw scores behind a
//! copy-on-write overlay, publishing cheap epoch-stamped snapshots.
//!
//! In the paper's interactive setting (§3) an analyst names one query
//! at a time and SVT compares its true answer `q(D)` with the noisy
//! threshold, so a served session needs exactly one score per query
//! from the dataset it pinned. [`LiveScores`] therefore keeps only the
//! raw scores: an immutable base shared by every snapshot published
//! since the last fold, plus an overlay of the items changed since
//! that base, kept as a `Vec` sorted by item.
//!
//! * [`set_score`](LiveScores::set_score) /
//!   [`increment`](LiveScores::increment) write one overlay entry: a
//!   binary search, then an insert that shifts fewer than ⌈√n⌉
//!   entries. The insert that brings the overlay to ⌈√n⌉ entries folds
//!   it into the base at once, so even one large batch never grows it
//!   past that.
//! * [`snapshot`](LiveScores::snapshot) publishes an immutable
//!   [`ScoreSnapshot`]: the shared base, a copy of the overlay (one
//!   memcpy of fewer than ⌈√n⌉ entries) and the epoch. Clean calls
//!   return the cached [`Arc`]; the first mutation after a publish
//!   reserves the next epoch.
//! * A read is a binary search in the overlay, then a load from the
//!   base.
//!
//! # Folds
//!
//! A fold never writes into a base that a published snapshot still
//! holds. The owner keeps the base that the last replacing fold
//! retired as a *spare*, together with its *lag*: the items written
//! into the base since. A fold takes the first of three paths that
//! applies:
//!
//! 1. **Reuse the spare** when no snapshot holds it any more
//!    ([`Arc::get_mut`]): rewrite the lagging items from the base, then
//!    apply the overlay (in that order, so an item in both ends with
//!    its overlay score), and swap. The old base becomes the spare,
//!    lagging by the overlay's items.
//! 2. **Fold in place** when no snapshot holds the base: write the
//!    overlay into it. The spare, if any, now lags by those items too.
//! 3. **Copy** when a snapshot holds the base and the spare is held
//!    too (a snapshot kept open across two folds) or not kept yet:
//!    write the `n` scores and the overlay into a fresh base. The old
//!    base becomes the spare (from the second replacement on, see
//!    below), and a held spare is let go.
//!
//! The first fold that replaces the base keeps no spare: it lets the
//! copy made at registration go, so the second one copies too and keeps
//! the first one's base. Keeping the registration copy instead kept
//! registrations from reusing its memory: `perfbench`'s
//! `serve_sessions` registers 32 datasets on one thread between its
//! serving windows, and those later registrations then faulted in
//! fresh pages, doubling its `setup_s`.
//!
//! Paths 1 and 2 cost `O(lag + √n)`, path 3 `O(n)`. The server's
//! registry holds its last publish, so there the first two folds copy,
//! a later one takes path 1 unless a session still pins the spare, and
//! the folds after the first within one large batch take path 2.
//!
//! The spare is a second copy of the scores: 8n bytes (18 MB for AOL's
//! 2,290,685 items) from the second fold that replaces the base on. An
//! owner whose snapshots are all dropped by its next fold folds in
//! place and never allocates one. A lag that reaches `n` items drops
//! the spare, since replaying it would write as many items as a copy.
//!
//! Nothing here sorts. An engine that needs the sorted, grouped view
//! builds a [`GroupedSnapshot`](crate::GroupedSnapshot) from the scores
//! once, as a cold `SweepContext` does.

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
        read(&self.base, &self.overlay, item)
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
    /// `(item, score)` for every item changed since `base`, sorted by
    /// item; always fewer than ⌈√n⌉ entries.
    overlay: Vec<(usize, f64)>,
    /// The base the last replacing fold retired, if still kept.
    spare: Option<Arc<[f64]>>,
    /// The items written into `base` since `spare` was retired from it
    /// (empty without a spare; may repeat an item).
    lag: Vec<usize>,
    /// Whether a fold has replaced the base yet: the first replacement
    /// lets the registration copy go instead of keeping it as the spare.
    replaced: bool,
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
            overlay: Vec::new(),
            spare: None,
            lag: Vec::new(),
            replaced: false,
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
        if item < self.len() {
            Ok(read(&self.base, &self.overlay, item))
        } else {
            Err(DataError::ItemOutOfRange {
                item,
                n_items: self.len(),
            })
        }
    }

    /// The epoch [`snapshot`](Self::snapshot) will report: the cached
    /// snapshot's epoch while clean, the reserved next epoch once a
    /// mutation has landed.
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Sets `item`'s score to `new`, folding the overlay into the base
    /// when this brings it to ⌈√n⌉ entries.
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
        match self.overlay.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(k) => self.overlay[k].1 = new,
            Err(k) => {
                self.overlay.insert(k, (item, new));
                if self.overlay.len() >= fold_threshold(self.len()) {
                    self.fold();
                }
            }
        }
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
    /// mutation the overlay is copied once and the epoch advances.
    pub fn snapshot(&mut self) -> Arc<ScoreSnapshot> {
        if let Some(cached) = &self.cached {
            return Arc::clone(cached);
        }
        let snap = Arc::new(ScoreSnapshot {
            base: Arc::clone(&self.base),
            overlay: self.overlay.as_slice().into(),
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

    /// Folds the overlay into a base no snapshot holds, by the first
    /// of the three paths in the module docs that applies.
    fn fold(&mut self) {
        if let Some(spare) = self.spare.as_mut().and_then(Arc::get_mut) {
            // 1. Reuse: bring the spare up to the base, then apply the
            //    overlay over it.
            for &item in &self.lag {
                spare[item] = self.base[item];
            }
            write_overlay(spare, &self.overlay);
            let next = self.spare.take().expect("the spare was just written");
            self.replace_base(next);
        } else if let Some(base) = Arc::get_mut(&mut self.base) {
            // 2. In place: the spare, if any, now lags by these items too.
            write_overlay(base, &self.overlay);
            if self.spare.is_some() {
                self.lag.extend(self.overlay.iter().map(|&(item, _)| item));
                if self.lag.len() >= self.len() {
                    self.spare = None;
                    self.lag.clear();
                }
            }
        } else {
            // 3. Copy: a snapshot holds the base, and the spare is held
            //    too or not kept yet.
            let mut next: Arc<[f64]> = Arc::from(&*self.base);
            write_overlay(
                Arc::get_mut(&mut next).expect("a fresh copy is unshared"),
                &self.overlay,
            );
            self.replace_base(next);
        }
        self.overlay.clear();
    }

    /// Makes `next` (the base with the overlay applied) the base. From
    /// the second replacement on, the old base becomes the spare,
    /// lagging by the overlay's items; the first lets it go.
    fn replace_base(&mut self, next: Arc<[f64]>) {
        let old = std::mem::replace(&mut self.base, next);
        if std::mem::replace(&mut self.replaced, true) {
            self.spare = Some(old);
            self.lag.clear();
            self.lag.extend(self.overlay.iter().map(|&(item, _)| item));
        }
    }
}

/// `item`'s score: its overlay entry if it has one (the overlay is
/// sorted by item), else its base score.
#[inline]
fn read(base: &[f64], overlay: &[(usize, f64)], item: usize) -> f64 {
    match overlay.binary_search_by_key(&item, |&(i, _)| i) {
        Ok(k) => overlay[k].1,
        Err(_) => base[item],
    }
}

/// Writes every overlay entry's score into `scores`.
fn write_overlay(scores: &mut [f64], overlay: &[(usize, f64)]) {
    for &(item, score) in overlay {
        scores[item] = score;
    }
}

/// Overlay size at which an insert folds the overlay into the base:
/// ⌈√n⌉, balancing the per-publish overlay copy against the `O(n)` copy
/// a fold pays when snapshots hold both the base and the spare.
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

    /// Writes `value` to four items outside the overlay, which folds
    /// exactly once at n = 10 (⌈√10⌉ = 4), and mirrors each write.
    fn fold_once(live: &mut LiveScores, mirror: &mut [f64], items: [usize; 4], value: f64) {
        assert_eq!(fold_threshold(live.len()), 4);
        assert!(live.overlay.is_empty());
        for item in items {
            live.set_score(item, value).unwrap();
            mirror[item] = value;
        }
        assert!(live.overlay.is_empty());
        assert_eq!(values(&live.snapshot()), mirror);
    }

    #[test]
    fn spare_is_reused_only_when_no_snapshot_holds_it() {
        // `held` plays the server's registry, which holds its last
        // publish; `session` keeps an older one open.
        let n = 10;
        let mut live = LiveScores::from_scores(&vec![0.0; n]).unwrap();
        let mut mirror = vec![0.0; n];
        let mut held = live.snapshot();
        // The base is held: the first fold copies and lets the
        // registration copy go.
        fold_once(&mut live, &mut mirror, [0, 1, 2, 3], 1.0);
        assert!(!Arc::ptr_eq(&live.base, &held.base));
        assert!(live.spare.is_none() && live.lag.is_empty());
        // The second copies too, and keeps the first one's base.
        held = live.snapshot();
        fold_once(&mut live, &mut mirror, [4, 5, 6, 0], 2.0);
        assert!(!Arc::ptr_eq(&live.base, &held.base));
        assert!(Arc::ptr_eq(live.spare.as_ref().unwrap(), &held.base));
        assert_eq!(live.lag, [0, 4, 5, 6]);
        // Nothing holds the spare once `held` moves on: the fold brings
        // it up to date and swaps it in. Item 4 is in both its lag and
        // the overlay.
        held = live.snapshot();
        let spare = Arc::as_ptr(live.spare.as_ref().unwrap());
        fold_once(&mut live, &mut mirror, [7, 8, 9, 4], 3.0);
        assert!(std::ptr::eq(Arc::as_ptr(&live.base), spare));
        assert!(Arc::ptr_eq(live.spare.as_ref().unwrap(), &held.base));
        assert_eq!(live.lag, [4, 7, 8, 9]);
        // A session keeps that snapshot open across the next fold, so
        // both bases are held: the fold copies and lets the spare go.
        let session = std::mem::replace(&mut held, live.snapshot());
        let session_scores = values(&session);
        fold_once(&mut live, &mut mirror, [1, 2, 3, 5], 4.0);
        assert!(!Arc::ptr_eq(&live.base, &held.base));
        assert!(!Arc::ptr_eq(&live.base, &session.base));
        assert!(Arc::ptr_eq(live.spare.as_ref().unwrap(), &held.base));
        assert_eq!(live.lag, [1, 2, 3, 5]);
        // Only the spare is held (that fold's publish was dropped): the
        // next fold writes the base in place, and the spare lags by
        // both folds' items.
        let held_scores = values(&held);
        let base = Arc::as_ptr(&live.base);
        fold_once(&mut live, &mut mirror, [0, 6, 7, 8], 5.0);
        assert!(std::ptr::eq(Arc::as_ptr(&live.base), base));
        assert!(Arc::ptr_eq(live.spare.as_ref().unwrap(), &held.base));
        assert_eq!(live.lag, [1, 2, 3, 5, 0, 6, 7, 8]);
        // The pinned snapshots never moved.
        assert_eq!(values(&session), session_scores);
        assert_eq!(values(&held), held_scores);
        // Released, the spare catches up over both folds' items.
        drop((session, held));
        let spare = Arc::as_ptr(live.spare.as_ref().unwrap());
        fold_once(&mut live, &mut mirror, [9, 1, 4, 2], 6.0);
        assert!(std::ptr::eq(Arc::as_ptr(&live.base), spare));
        assert_eq!(live.lag, [1, 2, 4, 9]);
    }

    #[test]
    fn a_large_batch_folds_as_it_grows_and_matches_a_rebuild() {
        // n = 50 (⌈√50⌉ = 8): one batch of 80 increments before a
        // publish, with the last publish held as the registry does.
        let n = 50;
        let initial: Vec<f64> = (0..n).map(|i| (i % 6) as f64).collect();
        let mut live = LiveScores::from_scores(&initial).unwrap();
        let published = live.snapshot();
        let mut mirror = initial.clone();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for step in 0..10 * fold_threshold(n) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let item = (state >> 33) as usize % n;
            let delta = f64::from(((state >> 17) % 5) as u32) - 2.0;
            live.increment(item, delta).unwrap();
            mirror[item] += delta;
            assert!(live.overlay.len() < fold_threshold(n), "step {step}");
        }
        let snap = live.snapshot();
        assert_eq!(values(&snap), mirror);
        assert_eq!(
            GroupedSnapshot::from_scores(&values(&snap)).unwrap(),
            GroupedSnapshot::from_scores(&mirror).unwrap()
        );
        assert_eq!(values(&published), initial);
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
