//! Index-preserving score runs: the immutable grouped *snapshot* of a
//! score vector that still knows *which items* share each score — the
//! per-dataset source of truth every simulation engine reads from.
//!
//! [`GroupedSnapshot::pairs`] collapses the runs to `(score, count)`
//! pairs — enough for consumers that only measure aggregates, but not
//! for samplers that must return actual item indices. The snapshot
//! keeps the full mapping, in both directions:
//!
//! * the item indices sorted by decreasing score, partitioned into runs
//!   of tied scores (`order` / `offsets`), which grouped selection
//!   samplers (the Exponential-Mechanism top-`c` in `svt-core`) consume
//!   to draw *per group* instead of per item;
//! * the inverse tables ([`position_of`](GroupedSnapshot::position_of)
//!   and the flat item → group table behind
//!   [`group_of_item`](GroupedSnapshot::group_of_item)), which resolve
//!   any item to its global rank, its group, and its score
//!   ([`score_of_item`](GroupedSnapshot::score_of_item)) in `O(1)` —
//!   which is what lets the grouped SVT mirror examine concrete items
//!   without ever touching the raw score slice, at slice-read cost.
//!
//! On top of the runs sit cumulative member counts (the `offsets`
//! prefix) and cumulative score mass (`prefix_sums`), so any cutoff `c`
//! resolves its §6 threshold, effective size, and top-`c` score sum in
//! `O(1)` via [`rank_cut`](GroupedSnapshot::rank_cut) — no per-`c`
//! re-sort anywhere.
//!
//! [`from_scores`](GroupedSnapshot::from_scores) builds the runs by
//! counting, not by comparison-sorting the items: item supports are
//! heavily tied (the AOL stand-in has 2.29M items over 448 distinct
//! values), so only the `G` distinct values are sorted. A snapshot is
//! **immutable**: engines that hold one read that one sorted view for
//! their whole lifetime. (Live, served datasets publish the lighter
//! [`ScoreSnapshot`](crate::ScoreSnapshot) instead.)

use crate::scores::check_scores;
use crate::Result;

/// Everything about one cutoff rank `c` that a per-`(engine, c)`
/// context needs, resolved against a [`GroupedSnapshot`] in `O(1)`
/// by [`GroupedSnapshot::rank_cut`] — no re-sort, no `O(n)` pass.
///
/// `threshold` reproduces
/// [`ScoreVector::paper_threshold`](crate::ScoreVector::paper_threshold)
/// bit for bit (same ranks, same arithmetic); `top_sum` is the §6 SER
/// denominator `ΣTopc`, accumulated group-wise (count × score per full
/// group plus the boundary group's partial run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankCut {
    /// Effective cutoff: `min(c, number of items)`.
    pub c_eff: usize,
    /// The paper's §6 threshold: the average of the `c`-th and
    /// `(c+1)`-th highest scores (falling back to the `c`-th when there
    /// is no `(c+1)`-th).
    pub threshold: f64,
    /// Sum of the `c_eff` highest scores.
    pub top_sum: f64,
}

/// An immutable view of scores grouped by exact value, in decreasing
/// score order, with the member item indices of every group and the
/// inverse item → rank table.
///
/// Invariants (upheld by construction):
/// * groups are ordered by strictly decreasing score;
/// * within a group, member indices are in increasing item order;
/// * every item index in `0..len_items()` appears in exactly one group;
/// * [`position_of`](Self::position_of) is the inverse permutation of
///   [`item`](Self::item).
///
/// ```
/// use dp_data::GroupedSnapshot;
///
/// let g = GroupedSnapshot::from_scores(&[2.0, 7.0, 2.0, 2.0, 7.0, 1.0])?;
/// assert_eq!(g.num_groups(), 3);
/// assert_eq!(g.score(0), 7.0);
/// assert_eq!(g.members(0), &[1, 4]);
/// assert_eq!(g.members(1), &[0, 2, 3]);
/// assert_eq!(g.len(2), 1);
/// assert_eq!(g.score_of_item(3), 2.0);
/// assert_eq!(g.top_c(2), &[1, 4]);
/// # Ok::<(), dp_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedSnapshot {
    /// Item indices sorted by (score desc, index asc).
    order: Vec<u32>,
    /// Inverse of `order`: `positions[item]` is the item's global
    /// sorted position (its 0-based rank).
    positions: Vec<u32>,
    /// Group `g` spans `order[offsets[g] .. offsets[g + 1]]`; length is
    /// `num_groups() + 1` with `offsets[0] == 0` and
    /// `offsets[num_groups()] == order.len()`. Doubles as the
    /// cumulative member count: `offsets[g]` items precede group `g`.
    offsets: Vec<u32>,
    /// The shared score of each group, strictly decreasing.
    scores: Vec<f64>,
    /// Cumulative score mass: `prefix_sums[g]` is
    /// `Σ_{h ≤ g} len(h) · score(h)`.
    prefix_sums: Vec<f64>,
    /// Flat item → group table: `group_of[item]` is the group whose run
    /// contains `item`. One u32 per item buys `O(1)` group and score
    /// resolution on the grouped score source's hot path,
    /// where the binary search over `offsets` was the remaining
    /// per-examined-item log factor.
    group_of: Vec<u32>,
}

impl GroupedSnapshot {
    /// Groups a raw score slice into its runs, in `O(n + G log G)` for
    /// `n` items over `G` distinct values.
    ///
    /// The order is the one a full sort by (score desc, index asc)
    /// gives, built without one: a pass in index order numbers each
    /// distinct value on first sight and counts its members, the `G`
    /// values are sorted once, and a second pass in index order puts
    /// each item into the next free slot of its group's run. `-0.0` and
    /// `+0.0` share a group, whose score is its smallest-index member's.
    ///
    /// # Errors
    /// [`DataError::Empty`](crate::DataError::Empty) on an empty slice and
    /// [`DataError::NonFiniteScore`](crate::DataError::NonFiniteScore)
    /// if any entry is NaN or infinite
    /// (matching [`ScoreVector::new`](crate::ScoreVector::new)).
    pub fn from_scores(scores: &[f64]) -> Result<Self> {
        check_scores(scores)?;
        // Pass 1: a provisional id per distinct value, in order of first
        // sight, paired with its smallest-index member's score.
        let mut ids = ScoreIds::new();
        let mut group_of = Vec::with_capacity(scores.len());
        let mut distinct: Vec<(f64, u32)> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for &s in scores {
            let id = ids.id_of(s, counts.len() as u32);
            if id as usize == counts.len() {
                distinct.push((s, id));
                counts.push(0);
            }
            counts[id as usize] += 1;
            group_of.push(id);
        }
        // The G distinct values, sorted once: `rank[id]` is the group.
        // They are finite and pairwise unequal (one zero group at most),
        // so `total_cmp` orders them as `<` does.
        distinct.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let mut rank = vec![0u32; counts.len()];
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut group_scores = Vec::with_capacity(counts.len());
        let mut prefix_sums = Vec::with_capacity(counts.len());
        let (mut start, mut running) = (0u32, 0.0);
        for (g, &(s, id)) in distinct.iter().enumerate() {
            rank[id as usize] = g as u32;
            let len = counts[id as usize];
            offsets.push(start);
            group_scores.push(s);
            running += f64::from(len) * s;
            prefix_sums.push(running);
            start += len;
        }
        offsets.push(start);
        // Pass 2, in index order so each run's members ascend: turn each
        // provisional id into its group and place the item in the
        // group's next free slot.
        let mut next = offsets[..counts.len()].to_vec();
        let mut order = vec![0u32; scores.len()];
        let mut positions = vec![0u32; scores.len()];
        for (item, g) in group_of.iter_mut().enumerate() {
            *g = rank[*g as usize];
            let slot = &mut next[*g as usize];
            order[*slot as usize] = item as u32;
            positions[item] = *slot;
            *slot += 1;
        }
        Ok(Self {
            order,
            positions,
            offsets,
            scores: group_scores,
            prefix_sums,
            group_of,
        })
    }

    /// Total number of items.
    #[inline]
    pub fn len_items(&self) -> usize {
        self.order.len()
    }

    /// Number of score groups (distinct score values).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.scores.len()
    }

    /// The shared score of group `g`.
    #[inline]
    pub fn score(&self, g: usize) -> f64 {
        self.scores[g]
    }

    /// Number of items in group `g`.
    #[inline]
    pub fn len(&self, g: usize) -> u64 {
        u64::from(self.offsets[g + 1] - self.offsets[g])
    }

    /// Start of group `g`'s run in the global sorted order (the
    /// position-space handle samplers use with [`item`](Self::item)).
    /// Equivalently: how many items outscore group `g` (the cumulative
    /// member count of groups `0..g`).
    #[inline]
    pub fn offset(&self, g: usize) -> u32 {
        self.offsets[g]
    }

    /// The item indices of group `g`, in increasing item order.
    #[inline]
    pub fn members(&self, g: usize) -> &[u32] {
        let lo = self.offsets[g] as usize;
        let hi = self.offsets[g + 1] as usize;
        &self.order[lo..hi]
    }

    /// The item index stored at global sorted position `pos`
    /// (`0..len_items()`).
    #[inline]
    pub fn item(&self, pos: u32) -> u32 {
        self.order[pos as usize]
    }

    /// The global sorted position (0-based rank, score desc / index
    /// asc) of `item` — the inverse of [`item`](Self::item).
    #[inline]
    pub fn position_of(&self, item: usize) -> u32 {
        self.positions[item]
    }

    /// The group containing global sorted position `pos`, resolved in
    /// `O(1)` through the flat item → group table.
    #[inline]
    pub fn group_of_pos(&self, pos: u32) -> usize {
        debug_assert!((pos as usize) < self.len_items());
        self.group_of[self.order[pos as usize] as usize] as usize
    }

    /// The group containing `item`, in `O(1)`.
    #[inline]
    pub fn group_of_item(&self, item: usize) -> usize {
        self.group_of[item] as usize
    }

    /// The score of `item`, resolved through its group in `O(1)`.
    ///
    /// Numerically equal to the raw score the group was built from
    /// (`==`-equal; a group mixing `+0.0` and `-0.0` reports its
    /// smallest-index member's sign).
    #[inline]
    pub fn score_of_item(&self, item: usize) -> f64 {
        self.scores[self.group_of[item] as usize]
    }

    /// Whether `item` is in the exact top-`c` under the deterministic
    /// tie-break (score desc, then smaller index) — equivalent to
    /// membership in [`top_c`](Self::top_c) without materializing it.
    #[inline]
    pub fn is_top(&self, item: usize, c: usize) -> bool {
        (self.positions[item] as usize) < c.min(self.len_items())
    }

    /// The exact top-`c` item indices as a zero-copy prefix of the
    /// shared sorted order: decreasing score, ties broken by smaller
    /// index — identical contents and order to
    /// [`ScoreVector::top_c`](crate::ScoreVector::top_c). Growing `c`
    /// extends the slice; it never reshuffles it (prefix stability).
    #[inline]
    pub fn top_c(&self, c: usize) -> &[u32] {
        &self.order[..c.min(self.order.len())]
    }

    /// Resolves cutoff `c` to its [`RankCut`] — effective size, §6
    /// threshold, and top-`c` score sum — in `O(1)` from the
    /// cumulative tables. See [`RankCut`] for the conventions.
    pub fn rank_cut(&self, c: usize) -> RankCut {
        let n = self.len_items();
        let c_eff = c.min(n);
        // Threshold ranks mirror `ScoreVector::paper_threshold`:
        // rank c.max(1) clamped to n, and rank c.max(1) + 1 when it
        // exists.
        let rank = c.max(1);
        let at_c = self.score(self.group_of_pos(rank.min(n) as u32 - 1));
        let threshold = if rank < n {
            let next = self.score(self.group_of_pos(rank as u32));
            0.5 * (at_c + next)
        } else {
            at_c
        };
        let top_sum = if c_eff == 0 {
            0.0
        } else {
            let g = self.group_of_pos(c_eff as u32 - 1);
            let before = if g == 0 { 0.0 } else { self.prefix_sums[g - 1] };
            before + f64::from(c_eff as u32 - self.offsets[g]) * self.score(g)
        };
        RankCut {
            c_eff,
            threshold,
            top_sum,
        }
    }

    /// The compact `(score, count)` pairs, decreasing score order — the
    /// form aggregate consumers use.
    pub fn pairs(&self) -> Vec<(f64, u64)> {
        (0..self.num_groups())
            .map(|g| (self.score(g), self.len(g)))
            .collect()
    }
}

/// Score → provisional group id, by open addressing with linear
/// probing over the score's bits.
struct ScoreIds {
    /// `(key, id)` slots; a power-of-two count, at most 3/4 full.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl ScoreIds {
    /// Marks a free slot: a NaN's bits, which no finite score has.
    const FREE: u64 = u64::MAX;

    fn new() -> Self {
        Self {
            slots: vec![(Self::FREE, 0); 64],
            len: 0,
        }
    }

    /// The id of `score`'s value, or `fresh` if the value is new.
    /// Adding `+0.0` folds `-0.0` into `+0.0` and leaves every other
    /// finite value as it is.
    fn id_of(&mut self, score: f64, fresh: u32) -> u32 {
        let key = (score + 0.0).to_bits();
        let mut i = self.home(key);
        loop {
            let (k, id) = self.slots[i];
            if k == key {
                return id;
            }
            if k == Self::FREE {
                self.slots[i] = (key, fresh);
                self.len += 1;
                if 4 * self.len > 3 * self.slots.len() {
                    self.grow();
                }
                return fresh;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// The key's first slot: the top bits of a Fibonacci hash. An
    /// integer-valued score keeps its low bits zero, so the high half
    /// is folded down before the multiply.
    fn home(&self, key: u64) -> usize {
        let spread = (key ^ (key >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (spread >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        let doubled = vec![(Self::FREE, 0); 2 * self.slots.len()];
        for (key, id) in std::mem::replace(&mut self.slots, doubled) {
            if key != Self::FREE {
                let mut i = self.home(key);
                while self.slots[i].0 != Self::FREE {
                    i = (i + 1) & (self.slots.len() - 1);
                }
                self.slots[i] = (key, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataError, ScoreVector};
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert_eq!(
            GroupedSnapshot::from_scores(&[]).unwrap_err(),
            DataError::Empty
        );
        let err = GroupedSnapshot::from_scores(&[1.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, DataError::NonFiniteScore { index: 1, .. }));
    }

    #[test]
    fn groups_preserve_member_indices() {
        let g = GroupedSnapshot::from_scores(&[2.0, 7.0, 2.0, 2.0, 7.0, 1.0]).unwrap();
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.len_items(), 6);
        assert_eq!(g.members(0), &[1, 4]);
        assert_eq!(g.members(1), &[0, 2, 3]);
        assert_eq!(g.members(2), &[5]);
        assert_eq!(g.score(0), 7.0);
        assert_eq!(g.score(2), 1.0);
        assert_eq!(g.len(1), 3);
        assert_eq!(g.item(g.offset(1)), 0);
    }

    #[test]
    fn all_distinct_scores_give_singleton_groups() {
        let g = GroupedSnapshot::from_scores(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(g.num_groups(), 3);
        for i in 0..3 {
            assert_eq!(g.len(i), 1);
        }
        assert_eq!(g.members(0), &[0]);
        assert_eq!(g.members(1), &[2]);
        assert_eq!(g.members(2), &[1]);
    }

    #[test]
    fn pairs_match_score_vector_grouped() {
        let v = vec![2.0, 7.0, 2.0, 2.0, 7.0, 1.0, 7.0];
        let sv = ScoreVector::new(v.clone()).unwrap();
        let g = GroupedSnapshot::from_scores(&v).unwrap();
        assert_eq!(g.pairs(), vec![(7.0, 3), (2.0, 3), (1.0, 1)]);
        assert_eq!(*sv.grouped_scores(), g);
    }

    #[test]
    fn every_item_appears_exactly_once() {
        let v: Vec<f64> = (0..500).map(|i| f64::from(i % 13)).collect();
        let g = GroupedSnapshot::from_scores(&v).unwrap();
        let mut seen: Vec<u32> = (0..g.num_groups())
            .flat_map(|i| g.members(i).iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<u32>>());
        // Scores strictly decrease across groups.
        for i in 1..g.num_groups() {
            assert!(g.score(i) < g.score(i - 1));
        }
    }

    #[test]
    fn positions_invert_the_sorted_order() {
        let v: Vec<f64> = (0..300).map(|i| f64::from((i * 31) % 17)).collect();
        let g = GroupedSnapshot::from_scores(&v).unwrap();
        for pos in 0..g.len_items() as u32 {
            assert_eq!(g.position_of(g.item(pos) as usize), pos);
        }
        for item in 0..g.len_items() {
            assert_eq!(g.item(g.position_of(item)) as usize, item);
        }
    }

    #[test]
    fn group_of_pos_and_score_of_item_agree_with_raw_scores() {
        let v: Vec<f64> = (0..400).map(|i| f64::from((i * 7) % 23)).collect();
        let g = GroupedSnapshot::from_scores(&v).unwrap();
        for (item, &raw) in v.iter().enumerate() {
            assert_eq!(g.score_of_item(item), raw, "item {item}");
        }
        for pos in 0..g.len_items() as u32 {
            let grp = g.group_of_pos(pos);
            assert!(g.offset(grp) <= pos);
            assert!(pos < g.offset(grp) + g.len(grp) as u32);
        }
    }

    #[test]
    fn flat_group_table_matches_offset_binary_search() {
        // The O(1) table must agree with the reference resolution it
        // replaced (binary search over cumulative member counts), for
        // every item and every sorted position.
        for v in [
            vec![2.0, 7.0, 2.0, 2.0, 7.0, 1.0, 7.0],
            vec![4.0; 9],
            vec![0.5],
            (0..600).map(|i| f64::from((i * 31) % 13)).collect(),
        ] {
            let g = GroupedSnapshot::from_scores(&v).unwrap();
            for item in 0..g.len_items() {
                let pos = g.position_of(item);
                let by_search = g
                    .offsets
                    .partition_point(|&o| o <= pos)
                    .checked_sub(1)
                    .unwrap();
                assert_eq!(g.group_of_item(item), by_search, "item {item}");
                assert_eq!(g.group_of_pos(pos), by_search, "pos {pos}");
            }
        }
    }

    #[test]
    fn top_c_matches_score_vector_top_c_including_ties() {
        for v in [
            vec![3.0, 5.0, 5.0, 1.0, 4.0, 5.0, 4.0],
            (0..500).map(|i| f64::from((i * 37) % 83)).collect(),
        ] {
            let sv = ScoreVector::new(v.clone()).unwrap();
            let g = GroupedSnapshot::from_scores(&v).unwrap();
            // Reference: a full sort by score desc, then index asc.
            let mut sorted: Vec<u32> = (0..v.len() as u32).collect();
            sorted.sort_by(|&a, &b| v[b as usize].total_cmp(&v[a as usize]).then(a.cmp(&b)));
            for c in 0..=v.len() + 2 {
                let want = &sorted[..c.min(v.len())];
                assert_eq!(g.top_c(c), want, "c={c}");
                let from_vector: Vec<u32> = sv.top_c(c).into_iter().map(|i| i as u32).collect();
                assert_eq!(from_vector, want, "c={c}");
                let mut in_top = vec![false; v.len()];
                for &item in want {
                    in_top[item as usize] = true;
                }
                for (item, &top) in in_top.iter().enumerate() {
                    assert_eq!(g.is_top(item, c), top, "c={c} item={item}");
                }
            }
        }
    }

    #[test]
    fn top_c_is_prefix_stable_as_c_grows() {
        let v: Vec<f64> = (0..200).map(|i| f64::from((i * 13) % 37)).collect();
        let g = GroupedSnapshot::from_scores(&v).unwrap();
        let full = g.top_c(usize::MAX).to_vec();
        for c in 0..=v.len() {
            assert_eq!(g.top_c(c), &full[..c], "c={c}");
        }
    }

    #[test]
    fn rank_cut_matches_score_vector_reference_bit_for_bit() {
        // The load-bearing query of the shared sweep context: the
        // threshold must equal `ScoreVector::paper_threshold` bitwise
        // and c_eff/top membership must match `top_c` for every c,
        // including the tie-straddling and beyond-length edges.
        for v in [
            vec![10.0, 30.0, 20.0, 5.0],
            vec![2.0, 7.0, 2.0, 2.0, 7.0, 1.0, 7.0],
            (0..250).map(|i| f64::from((i * 31) % 13)).collect(),
            vec![4.0; 9],
            vec![0.5],
        ] {
            let sv = ScoreVector::new(v.clone()).unwrap();
            let g = GroupedSnapshot::from_scores(&v).unwrap();
            for c in 1..=v.len() + 3 {
                let cut = g.rank_cut(c);
                assert_eq!(cut.c_eff, c.min(v.len()), "c={c}");
                assert_eq!(
                    cut.threshold.to_bits(),
                    sv.paper_threshold(c).to_bits(),
                    "c={c} threshold {} vs {}",
                    cut.threshold,
                    sv.paper_threshold(c)
                );
                let want_sum: f64 = sv.top_c(c).iter().map(|&i| v[i]).sum();
                assert!(
                    (cut.top_sum - want_sum).abs() < 1e-9 * want_sum.abs().max(1.0),
                    "c={c}: top_sum {} vs {}",
                    cut.top_sum,
                    want_sum
                );
            }
        }
    }

    #[test]
    fn rank_cut_handles_c_zero() {
        let g = GroupedSnapshot::from_scores(&[5.0, 3.0, 1.0]).unwrap();
        let cut = g.rank_cut(0);
        assert_eq!(cut.c_eff, 0);
        assert_eq!(cut.top_sum, 0.0);
        // Threshold clamps c to 1, like `paper_threshold`.
        let sv = ScoreVector::new(vec![5.0, 3.0, 1.0]).unwrap();
        assert_eq!(cut.threshold.to_bits(), sv.paper_threshold(0).to_bits());
    }

    /// The next double above `1.0`: one ulp away, so its own group.
    const ABOVE_ONE: f64 = f64::from_bits(0x3ff0_0000_0000_0001);

    /// The build `from_scores` replaced, kept as the reference its
    /// tables are pinned to: an indirect sort by score (descending, by
    /// `partial_cmp`) then index, and one walk over the sorted order that
    /// opens a group wherever the score changes.
    fn sorted_reference(scores: &[f64]) -> GroupedSnapshot {
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .expect("scores are finite")
                .then(a.cmp(&b))
        });
        let mut positions = vec![0u32; order.len()];
        let mut group_of = vec![0u32; order.len()];
        let mut offsets = Vec::new();
        let mut group_scores = Vec::new();
        let mut prev = f64::INFINITY;
        for (pos, &i) in order.iter().enumerate() {
            positions[i as usize] = pos as u32;
            let s = scores[i as usize];
            if group_scores.is_empty() || s != prev {
                offsets.push(pos as u32);
                group_scores.push(s);
                prev = s;
            }
            group_of[i as usize] = (group_scores.len() - 1) as u32;
        }
        offsets.push(order.len() as u32);
        let mut prefix_sums = Vec::new();
        let mut running = 0.0;
        for (g, &s) in group_scores.iter().enumerate() {
            running += f64::from(offsets[g + 1] - offsets[g]) * s;
            prefix_sums.push(running);
        }
        GroupedSnapshot {
            order,
            positions,
            offsets,
            scores: group_scores,
            prefix_sums,
            group_of,
        }
    }

    /// Every table of the counting build equals the reference's, the
    /// float tables bit for bit.
    fn assert_matches_the_sort(v: &[f64]) {
        let got = GroupedSnapshot::from_scores(v).unwrap();
        let want = sorted_reference(v);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.order, want.order, "order of {v:?}");
        assert_eq!(got.positions, want.positions, "positions of {v:?}");
        assert_eq!(got.offsets, want.offsets, "offsets of {v:?}");
        assert_eq!(got.group_of, want.group_of, "group_of of {v:?}");
        assert_eq!(bits(&got.scores), bits(&want.scores), "scores of {v:?}");
        assert_eq!(
            bits(&got.prefix_sums),
            bits(&want.prefix_sums),
            "prefix_sums of {v:?}"
        );
    }

    #[test]
    fn counting_build_matches_the_sort_it_replaced() {
        let signed_zeros = vec![-0.0, 1.0, 0.0, -0.0, -2.0, 0.0];
        let ulp_neighbours = vec![1.0, ABOVE_ONE, 1.0, ABOVE_ONE];
        for v in [
            // Tie-heavy: five values over thousands of items.
            (0..5000).map(|i| f64::from((i * 7919) % 5)).collect(),
            // All distinct, enough values to grow the id table.
            (0..5000).map(|i| f64::from((i * 7919) % 5003)).collect(),
            vec![4.0; 300],
            vec![0.5],
            (0..400).map(|i| f64::from((i * 31) % 17) - 8.5).collect(),
            signed_zeros.clone(),
            vec![5e-324, f64::MIN_POSITIVE, 0.0, 5e-324, f64::MIN_POSITIVE],
            ulp_neighbours.clone(),
        ] {
            assert_matches_the_sort(&v);
        }
        // The ±0.0 group keeps its first member's -0.0 ...
        let zeros = GroupedSnapshot::from_scores(&signed_zeros).unwrap();
        assert_eq!(zeros.num_groups(), 3);
        assert_eq!(zeros.score(1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(zeros.members(1), &[0, 2, 3, 5]);
        // ... and ulp neighbours stay two groups.
        let ulps = GroupedSnapshot::from_scores(&ulp_neighbours).unwrap();
        assert_eq!(ulps.pairs(), vec![(ABOVE_ONE, 2), (1.0, 2)]);
    }

    proptest! {
        #[test]
        fn counting_build_matches_the_sort_on_any_mix_of_edge_values(
            picks in proptest::collection::vec(0usize..10, 1..300),
        ) {
            const ALPHABET: [f64; 10] = [
                -0.0, 0.0, 5e-324, f64::MIN_POSITIVE, 1.0, ABOVE_ONE, -1.0, -3.5, 2.0, 1e300,
            ];
            let v: Vec<f64> = picks.iter().map(|&i| ALPHABET[i]).collect();
            assert_matches_the_sort(&v);
        }
    }
}
