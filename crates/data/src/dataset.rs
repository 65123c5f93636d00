//! Transaction (market-basket) datasets.
//!
//! The paper's workloads are item frequencies in transaction data: each
//! record is a set of items, the score of item `i` is its *support*
//! (the number of records containing it), and two datasets are neighbors
//! when one results from adding or deleting a record (the add/remove
//! convention under which counting queries are monotonic — §4.3).
//!
//! [`TransactionDataset`] is the concrete substrate that [`crate::io`]
//! reads and writes and the examples build their score vectors from.
//! The figure sweeps and the engines bypass it and work on
//! [`crate::ScoreVector`]s directly, exactly as the algorithms only ever
//! observe scores.

use crate::error::DataError;
use crate::scores::ScoreVector;
use crate::Result;
use dp_mechanisms::DpRng;

/// Identifier of an item; the universe is `0..n_items`.
pub type ItemId = u32;

/// A dataset of transactions over a fixed item universe.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionDataset {
    transactions: Vec<Vec<ItemId>>,
    n_items: usize,
}

impl TransactionDataset {
    /// Creates a dataset, validating every item against the universe and
    /// deduplicating items within each transaction (a record either
    /// contains an item or it does not).
    ///
    /// # Errors
    /// [`DataError::ItemOutOfRange`] if any transaction mentions an item
    /// `≥ n_items`.
    pub fn new(mut transactions: Vec<Vec<ItemId>>, n_items: usize) -> Result<Self> {
        for t in &mut transactions {
            for &item in t.iter() {
                if item as usize >= n_items {
                    return Err(DataError::ItemOutOfRange {
                        item: item as usize,
                        n_items,
                    });
                }
            }
            t.sort_unstable();
            t.dedup();
        }
        Ok(Self {
            transactions,
            n_items,
        })
    }

    /// An empty dataset over the given universe.
    pub fn empty(n_items: usize) -> Self {
        Self {
            transactions: Vec::new(),
            n_items,
        }
    }

    /// Number of records.
    #[inline]
    pub fn n_records(&self) -> usize {
        self.transactions.len()
    }

    /// Size of the item universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The records themselves (each sorted and deduplicated).
    pub fn transactions(&self) -> &[Vec<ItemId>] {
        &self.transactions
    }

    /// Support (number of containing records) of every item.
    pub fn item_supports(&self) -> Vec<u64> {
        let mut supports = vec![0u64; self.n_items];
        for t in &self.transactions {
            for &item in t {
                supports[item as usize] += 1;
            }
        }
        supports
    }

    /// Support of a single item.
    ///
    /// # Errors
    /// [`DataError::ItemOutOfRange`] for unknown items.
    pub fn support_of(&self, item: ItemId) -> Result<u64> {
        if item as usize >= self.n_items {
            return Err(DataError::ItemOutOfRange {
                item: item as usize,
                n_items: self.n_items,
            });
        }
        Ok(self
            .transactions
            .iter()
            .filter(|t| t.binary_search(&item).is_ok())
            .count() as u64)
    }

    /// The supports as a [`ScoreVector`] (the object the selection
    /// algorithms consume).
    ///
    /// # Errors
    /// [`DataError::Empty`] when the item universe is empty.
    pub fn score_vector(&self) -> Result<ScoreVector> {
        ScoreVector::from_supports(&self.item_supports())
    }

    /// A neighbor with one record appended (the `D → D ∪ {t}`
    /// direction). Item validation as in [`TransactionDataset::new`].
    ///
    /// # Errors
    /// [`DataError::ItemOutOfRange`] if the record mentions unknown items.
    pub fn with_record_added(&self, mut record: Vec<ItemId>) -> Result<Self> {
        for &item in &record {
            if item as usize >= self.n_items {
                return Err(DataError::ItemOutOfRange {
                    item: item as usize,
                    n_items: self.n_items,
                });
            }
        }
        record.sort_unstable();
        record.dedup();
        let mut clone = self.clone();
        clone.transactions.push(record);
        Ok(clone)
    }

    /// A neighbor with record `index` removed.
    ///
    /// # Errors
    /// [`DataError::RecordOutOfRange`] on a bad index.
    pub fn with_record_removed(&self, index: usize) -> Result<Self> {
        if index >= self.transactions.len() {
            return Err(DataError::RecordOutOfRange {
                index,
                n_records: self.transactions.len(),
            });
        }
        let mut clone = self.clone();
        clone.transactions.remove(index);
        Ok(clone)
    }

    /// Synthesizes a dataset whose item supports match `supports` as
    /// closely as possible with `n_records` records: item `i` is placed
    /// into `min(supports[i], n_records)` distinct records chosen
    /// uniformly at random. Used by the examples to turn a generated
    /// score distribution back into concrete transactions.
    pub fn from_target_supports(supports: &[u64], n_records: usize, rng: &mut DpRng) -> Self {
        let mut transactions: Vec<Vec<ItemId>> = vec![Vec::new(); n_records];
        let mut record_ids: Vec<usize> = (0..n_records).collect();
        for (item, &support) in supports.iter().enumerate() {
            let k = (support as usize).min(n_records);
            if k == 0 {
                continue;
            }
            // Partial Fisher–Yates: the first k entries of record_ids
            // become a uniform k-subset.
            for j in 0..k {
                let swap_with = j + rng.index(n_records - j);
                record_ids.swap(j, swap_with);
                transactions[record_ids[j]].push(item as ItemId);
            }
        }
        for t in &mut transactions {
            t.sort_unstable();
        }
        Self {
            transactions,
            n_items: supports.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TransactionDataset {
        TransactionDataset::new(vec![vec![0, 1], vec![1, 2], vec![1], vec![0, 2, 2]], 3).unwrap()
    }

    #[test]
    fn construction_validates_items() {
        let err = TransactionDataset::new(vec![vec![0, 5]], 3).unwrap_err();
        assert!(matches!(err, DataError::ItemOutOfRange { item: 5, .. }));
    }

    #[test]
    fn duplicate_items_in_a_record_count_once() {
        let d = small();
        // Record 3 was [0, 2, 2]; support of 2 must count it once.
        assert_eq!(d.support_of(2).unwrap(), 2);
    }

    #[test]
    fn supports_match_per_item_queries() {
        let d = small();
        let supports = d.item_supports();
        assert_eq!(supports, vec![2, 3, 2]);
        for item in 0..3 {
            assert_eq!(supports[item as usize], d.support_of(item).unwrap());
        }
        assert!(d.support_of(7).is_err());
    }

    #[test]
    fn score_vector_mirrors_supports() {
        let d = small();
        let sv = d.score_vector().unwrap();
        assert_eq!(sv.as_slice(), &[2.0, 3.0, 2.0]);
    }

    #[test]
    fn add_remove_neighbors() {
        let d = small();
        let bigger = d.with_record_added(vec![2, 2, 0]).unwrap();
        assert_eq!(bigger.n_records(), 5);
        assert_eq!(bigger.support_of(2).unwrap(), 3);
        // Adding a record changes each support by at most 1 (Δ = 1).
        let (a, b) = (d.item_supports(), bigger.item_supports());
        for i in 0..3 {
            assert!(b[i] - a[i] <= 1);
        }
        let smaller = d.with_record_removed(1).unwrap();
        assert_eq!(smaller.n_records(), 3);
        assert_eq!(smaller.support_of(2).unwrap(), 1);
        assert!(d.with_record_removed(10).is_err());
        assert!(d.with_record_added(vec![9]).is_err());
    }

    #[test]
    fn monotonicity_of_counting_queries_under_add() {
        // §4.3: adding one record moves every support in the same
        // (non-decreasing) direction.
        let d = small();
        let bigger = d.with_record_added(vec![0, 1, 2]).unwrap();
        for (a, b) in d.item_supports().iter().zip(bigger.item_supports()) {
            assert!(b >= *a);
        }
    }

    #[test]
    fn from_target_supports_hits_targets() {
        let mut rng = DpRng::seed_from_u64(163);
        let targets = [50u64, 10, 0, 100];
        let d = TransactionDataset::from_target_supports(&targets, 100, &mut rng);
        assert_eq!(d.n_records(), 100);
        assert_eq!(d.item_supports(), vec![50, 10, 0, 100]);
    }

    #[test]
    fn from_target_supports_clamps_to_record_count() {
        let mut rng = DpRng::seed_from_u64(167);
        let d = TransactionDataset::from_target_supports(&[500], 20, &mut rng);
        assert_eq!(d.item_supports(), vec![20]);
    }

    #[test]
    fn empty_dataset_has_zero_supports() {
        let d = TransactionDataset::empty(4);
        assert_eq!(d.n_records(), 0);
        assert_eq!(d.item_supports(), vec![0, 0, 0, 0]);
    }
}
