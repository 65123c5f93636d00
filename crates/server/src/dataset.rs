//! Per-tenant live datasets behind epoch-swapped snapshots.
//!
//! The serving layer's dataset story mirrors `dp-data`'s split between
//! [`LiveScores`] (the single mutable owner) and [`ScoreSnapshot`]
//! (immutable, epoch-stamped views). A session only ever reads the
//! score of the item it names, so neither side sorts:
//!
//! - Each tenant owns one [`LiveScores`] guarded by a mutex that only
//!   the registry's `update` takes, so score churn never contends
//!   with the query path.
//! - The *published* snapshot lives behind an `RwLock<Arc<_>>` that is
//!   swapped — never mutated — when an update batch commits. Readers
//!   clone the `Arc` and are done with the lock in nanoseconds, and the
//!   replaced snapshot is dropped only after the write lock is
//!   released, so freeing a folded-away base never stalls them.
//! - `open_session` pins the snapshot current at open time into the
//!   session entry. A session therefore answers every query against
//!   one immutable epoch, bit-identical to a sequential run against
//!   those scores, no matter how many updates land concurrently.
//!
//! Update batches are validated in full before anything is applied:
//! a batch with an out-of-range item or a non-finite resulting score
//! changes nothing and publishes nothing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use dp_data::{DataError, LiveScores, ScoreSnapshot};

use crate::error::ServerError;
use crate::store::{Result, TenantId};

/// One mutation of a tenant's live dataset, applied in batch order by
/// [`SessionStore::update_scores`](crate::store::SessionStore::update_scores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreUpdate {
    /// Overwrite `item`'s score with an absolute value.
    Set {
        /// The item to rewrite.
        item: usize,
        /// Its new score (must be finite).
        score: f64,
    },
    /// Add `delta` to `item`'s current score.
    Increment {
        /// The item to adjust.
        item: usize,
        /// The adjustment (the resulting score must be finite).
        delta: f64,
    },
}

/// One tenant's dataset: the mutable owner plus the published snapshot.
#[derive(Debug)]
struct TenantDataset {
    /// The single mutable owner; only `update` locks it, and never
    /// while holding `published`'s write lock.
    live: Mutex<LiveScores>,
    /// What `open_session` pins. Swapped whole; existing clones keep
    /// their epoch.
    published: RwLock<Arc<ScoreSnapshot>>,
}

/// tenant → dataset. The outer map is read-mostly (registrations are
/// rare); per-tenant state is behind its own locks so two tenants'
/// updates never contend.
#[derive(Debug, Default)]
pub(crate) struct DatasetRegistry {
    tenants: RwLock<HashMap<TenantId, Arc<TenantDataset>>>,
}

impl DatasetRegistry {
    /// Validates and copies `tenant`'s initial scores (no sort) and
    /// publishes them as epoch 0.
    pub(crate) fn register(&self, tenant: TenantId, scores: &[f64]) -> Result<u64> {
        let mut live = LiveScores::from_scores(scores)?;
        let snapshot = live.snapshot();
        let epoch = snapshot.epoch();
        let dataset = Arc::new(TenantDataset {
            live: Mutex::new(live),
            published: RwLock::new(snapshot),
        });
        let mut tenants = self.tenants.write().expect("dataset registry poisoned");
        if tenants.contains_key(&tenant) {
            return Err(ServerError::DatasetAlreadyRegistered(tenant));
        }
        tenants.insert(tenant, dataset);
        Ok(epoch)
    }

    /// The tenant's dataset handle, if one is registered.
    fn get(&self, tenant: TenantId) -> Result<Arc<TenantDataset>> {
        self.tenants
            .read()
            .expect("dataset registry poisoned")
            .get(&tenant)
            .cloned()
            .ok_or(ServerError::NoDataset(tenant))
    }

    /// The currently published snapshot — what a session opened right
    /// now would pin. `None` when the tenant has no dataset.
    pub(crate) fn snapshot(&self, tenant: TenantId) -> Option<Arc<ScoreSnapshot>> {
        let dataset = self.get(tenant).ok()?;
        let published = dataset.published.read().expect("published lock poisoned");
        Some(Arc::clone(&published))
    }

    /// Applies `updates` as one atomic batch and publishes the
    /// resulting snapshot, returning its epoch. The whole batch is
    /// validated against a staged simulation first, so a rejected batch
    /// applies nothing and the published snapshot does not move.
    pub(crate) fn update(&self, tenant: TenantId, updates: &[ScoreUpdate]) -> Result<u64> {
        let dataset = self.get(tenant)?;
        let mut live = dataset.live.lock().expect("live scores lock poisoned");
        // Stage: fold the batch over the affected items only, checking
        // every intermediate state, before touching `live`.
        let mut staged: HashMap<usize, f64> = HashMap::new();
        for update in updates {
            let (item, next) = match *update {
                ScoreUpdate::Set { item, score } => (item, score),
                ScoreUpdate::Increment { item, delta } => {
                    if item >= live.len() {
                        return Err(ServerError::ItemOutOfRange {
                            item,
                            len: live.len(),
                        });
                    }
                    let current = match staged.get(&item) {
                        Some(&v) => v,
                        None => live.score(item).expect("range checked above"),
                    };
                    (item, current + delta)
                }
            };
            if item >= live.len() {
                return Err(ServerError::ItemOutOfRange {
                    item,
                    len: live.len(),
                });
            }
            if !next.is_finite() {
                return Err(ServerError::Dataset(DataError::NonFiniteScore {
                    index: item,
                    value: next,
                }));
            }
            staged.insert(item, next);
        }
        // Commit: only the batch's *final* score per item matters for
        // the published structure, so apply the staged values directly.
        for (&item, &score) in &staged {
            live.set_score(item, score).expect("validated above");
        }
        let snapshot = live.snapshot();
        let epoch = snapshot.epoch();
        let replaced = std::mem::replace(
            &mut *dataset.published.write().expect("published lock poisoned"),
            snapshot,
        );
        // The write lock is already released: if `replaced` held the
        // last pin on a folded-away base, freeing it stalls no reader.
        drop(replaced);
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_snapshot_pins_epoch_zero() {
        let registry = DatasetRegistry::default();
        let tenant = TenantId(1);
        assert_eq!(registry.register(tenant, &[3.0, 1.0, 2.0]).unwrap(), 0);
        let snap = registry.snapshot(tenant).unwrap();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.len_items(), 3);
        assert_eq!(snap.score_of_item(0), 3.0);
        assert!(registry.snapshot(TenantId(2)).is_none());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let registry = DatasetRegistry::default();
        let tenant = TenantId(3);
        registry.register(tenant, &[1.0]).unwrap();
        assert_eq!(
            registry.register(tenant, &[2.0]).unwrap_err(),
            ServerError::DatasetAlreadyRegistered(tenant)
        );
    }

    #[test]
    fn update_swaps_the_published_snapshot_but_not_pinned_clones() {
        let registry = DatasetRegistry::default();
        let tenant = TenantId(4);
        registry.register(tenant, &[3.0, 1.0, 2.0]).unwrap();
        let pinned = registry.snapshot(tenant).unwrap();
        let epoch = registry
            .update(
                tenant,
                &[ScoreUpdate::Set {
                    item: 1,
                    score: 9.0,
                }],
            )
            .unwrap();
        assert_eq!(epoch, 1);
        // The old pin is untouched; the new publish sees the update.
        assert_eq!(pinned.score_of_item(1), 1.0);
        let fresh = registry.snapshot(tenant).unwrap();
        assert_eq!(fresh.epoch(), 1);
        assert_eq!(fresh.score_of_item(1), 9.0);
    }

    #[test]
    fn a_rejected_batch_applies_nothing() {
        let registry = DatasetRegistry::default();
        let tenant = TenantId(5);
        registry.register(tenant, &[3.0, 1.0]).unwrap();
        // The first update is fine; the second is out of range. The
        // whole batch must be discarded.
        let err = registry
            .update(
                tenant,
                &[
                    ScoreUpdate::Set {
                        item: 0,
                        score: 99.0,
                    },
                    ScoreUpdate::Increment {
                        item: 7,
                        delta: 1.0,
                    },
                ],
            )
            .unwrap_err();
        assert_eq!(err, ServerError::ItemOutOfRange { item: 7, len: 2 });
        let snap = registry.snapshot(tenant).unwrap();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.score_of_item(0).to_bits(), 3.0f64.to_bits());

        // A batch whose *intermediate* state is fine but whose result
        // overflows is rejected too.
        let err = registry
            .update(
                tenant,
                &[ScoreUpdate::Increment {
                    item: 0,
                    delta: f64::INFINITY,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::Dataset(_)), "{err}");
        assert_eq!(registry.snapshot(tenant).unwrap().epoch(), 0);
        assert_eq!(registry.update(tenant, &[]).unwrap(), 0);
    }

    #[test]
    fn batch_order_matters_for_increments() {
        let registry = DatasetRegistry::default();
        let tenant = TenantId(6);
        registry.register(tenant, &[1.0, 0.0]).unwrap();
        registry
            .update(
                tenant,
                &[
                    ScoreUpdate::Set {
                        item: 0,
                        score: 10.0,
                    },
                    ScoreUpdate::Increment {
                        item: 0,
                        delta: 2.0,
                    },
                ],
            )
            .unwrap();
        let snap = registry.snapshot(tenant).unwrap();
        assert_eq!(snap.score_of_item(0).to_bits(), 12.0f64.to_bits());
    }
}
