//! §5 — top-`c` selection with the Exponential Mechanism.
//!
//! "One runs EM `c` times, each round with privacy budget `ε/c`. The
//! quality for each query is its answer; thus each query is selected
//! with probability proportional to `exp(εq/2cΔ)` in the general case
//! and to `exp(εq/cΔ)` in the monotonic case. After one query is
//! selected, it is removed from the pool of candidate queries for the
//! remaining rounds."
//!
//! By sequential composition the whole procedure is `ε`-DP. This is the
//! `EM` series of Figure 5 — the method the paper recommends over SVT in
//! the non-interactive setting.
//!
//! Two samplers of the same output distribution are provided:
//! [`EmTopC::select`] peels literally (`c` rounds of
//! [`ExponentialMechanism`], kept as the allocating reference), and
//! [`EmTopC::select_grouped_into`] exploits the Gumbel-max equivalence
//! and Gumbel *max-stability* over runs of tied scores
//! ([`GroupedSnapshot`]) to draw one lazy order-statistics sampler per
//! score *group* instead of one key per item — `O(G + c)` draws for `G`
//! distinct scores — which is what the experiment harness's exact
//! engine runs. Neither reads a [`NoiseKernel`](dp_mechanisms::NoiseKernel):
//! both transform their uniforms through libm.
//!
//! ## Tie contract
//!
//! Perturbed *keys* are continuous, so exact key ties only arise from
//! `f64` rounding; when they do, the grouped sampler's cross-group heap
//! breaks them by group index, so its output stays a pure function of
//! the generator. The contract both samplers actually promise — and
//! that the tie tests pin — is distributional: items with equal
//! *scores* are selected with equal probability, in every selection
//! round. `select` inherits this from exact softmax weights and
//! `select_grouped_into` holds it by construction (a winning tied-score
//! group expands uniformly among its not-yet-selected members).

use crate::streaming::RunScratch;
use crate::{Result, SvtError};
use dp_data::GroupedSnapshot;
use dp_mechanisms::{DpRng, ExponentialMechanism, Gumbel, GumbelMax, MechanismError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One score group's sampler state, kept in [`RunScratch`].
#[derive(Debug, Clone)]
pub(crate) struct GroupCursor {
    /// Lazy descending order statistics of the group's i.i.d.
    /// `Gumbel(φ_g, 1)` keys.
    keys: GumbelMax,
    /// Members not yet selected.
    remaining: u32,
}

/// A group's current best unconsumed key, ordered for the cross-group
/// max-heap (ties — probability zero — break by group index so the heap
/// order is deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GroupKey {
    key: f64,
    group: u32,
}
impl Eq for GroupKey {}
impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then(self.group.cmp(&other.group))
    }
}

/// Top-`c` selection via `c` rounds of peeled EM. Satisfies `ε`-DP.
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::em_select::EmTopC;
///
/// let supports = [900.0, 850.0, 20.0, 15.0, 10.0, 5.0];
/// let em = EmTopC::new(2.0, 2, 1.0, /*monotonic=*/true)?;
/// let mut rng = DpRng::seed_from_u64(7);
/// let mut picked = em.select(&supports, &mut rng)?;
/// picked.sort_unstable();
/// // With this budget the two clear winners are selected.
/// assert_eq!(picked, vec![0, 1]);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmTopC {
    /// Total privacy budget for the whole selection.
    pub epsilon: f64,
    /// Number of queries to select.
    pub c: usize,
    /// Query sensitivity `Δ`.
    pub sensitivity: f64,
    /// Whether monotonic scoring (`exp(εq/cΔ)`) may be used.
    pub monotonic: bool,
}

impl EmTopC {
    /// Creates the selector.
    ///
    /// # Errors
    /// Rejects non-positive `ε`/`Δ` and `c == 0`.
    pub fn new(epsilon: f64, c: usize, sensitivity: f64, monotonic: bool) -> Result<Self> {
        crate::alg::validate_common(epsilon, sensitivity, c)?;
        Ok(Self {
            epsilon,
            c,
            sensitivity,
            monotonic,
        })
    }

    /// The per-round budget `ε/c`.
    pub fn epsilon_per_round(&self) -> f64 {
        self.epsilon / self.c as f64
    }

    /// Selects up to `c` distinct indices (fewer only if the candidate
    /// pool is smaller), in selection order.
    ///
    /// # Errors
    /// [`SvtError::Mechanism`] on empty/non-finite scores.
    pub fn select(&self, scores: &[f64], rng: &mut DpRng) -> Result<Vec<usize>> {
        self.round_mechanism()?
            .select_without_replacement(scores, self.c, rng)
            .map_err(SvtError::from)
    }

    /// One peeling round's mechanism: budget `ε/c`, with monotonic or
    /// general scoring. Its exponent factor `ε_round/(kΔ)` (`k = 1`
    /// monotonic, `k = 2` general) is the grouped sampler's key scale.
    fn round_mechanism(&self) -> Result<ExponentialMechanism> {
        let per_round = self.epsilon_per_round();
        if self.monotonic {
            ExponentialMechanism::new_monotonic(per_round, self.sensitivity)
        } else {
            ExponentialMechanism::new(per_round, self.sensitivity)
        }
        .map_err(SvtError::from)
    }

    /// Grouped top-`c` selection: the `O(G + c)`-draws equivalent of
    /// [`select`](Self::select) over the index-preserving grouped score
    /// runs (`G` = number of distinct scores). The selection lands in
    /// [`RunScratch::selected`], in selection order.
    ///
    /// Samples the same output distribution as `select` through two
    /// identities layered on the Gumbel-max equivalence (perturbing
    /// every score once with `Gumbel(0, 1/f)` noise, `f` the exponent
    /// factor, and keeping the `c` largest perturbed scores in
    /// decreasing order is distributionally identical to `c` rounds of
    /// peeling):
    ///
    /// * **across groups** — within a run of `m` tied scores the `m`
    ///   perturbed keys are i.i.d. `Gumbel(φ_g, 1)`, so the group's key
    ///   order statistics can be peeled lazily in descending order by
    ///   [`GumbelMax`] (the maximum in one draw via the `ln m` location
    ///   shift, successors via the exponential-spacings recurrence); a
    ///   max-heap across groups then replays the global descending
    ///   order of one key per item without drawing those keys;
    /// * **within a group** — i.i.d. keys are exchangeable, so the
    ///   member holding the group's `k`-th largest key is uniform among
    ///   the not-yet-selected members; the expansion draws it by sparse
    ///   back-to-front Fisher–Yates over the group's run (swap-with-last
    ///   in a generation-stamped displacement map), `O(1)` per pick.
    ///
    /// Per run this draws one uniform per group (the `G` initial
    /// maxima), then at most two uniforms per selection (successor key +
    /// member pick) — independent of the item count, which is what keeps
    /// the exact engine's EM cell fast at AOL scale. Steady state
    /// allocates nothing: cursors, heap, and pick map live in `scratch`.
    ///
    /// ```
    /// use dp_data::ScoreVector;
    /// use dp_mechanisms::DpRng;
    /// use svt_core::em_select::EmTopC;
    /// use svt_core::streaming::RunScratch;
    ///
    /// let supports = ScoreVector::new(vec![900.0, 850.0, 20.0, 15.0, 10.0, 5.0])?;
    /// let em = EmTopC::new(2.0, 2, 1.0, /*monotonic=*/true)?;
    /// let mut rng = DpRng::seed_from_u64(7);
    /// let mut scratch = RunScratch::new();
    /// em.select_grouped_into(&supports.grouped_scores(), &mut rng, &mut scratch)?;
    /// let mut picked = scratch.selected().to_vec();
    /// picked.sort_unstable();
    /// assert_eq!(picked, vec![0, 1]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// [`SvtError::Mechanism`] on invalid configuration or if a key
    /// location `ε/(kcΔ)·score` overflows to a non-finite value
    /// (scores themselves are already validated finite by
    /// [`GroupedSnapshot`]'s constructors; the snapshot is immutable
    /// and epoch-stamped, so the run is pinned to one version of the
    /// dataset).
    pub fn select_grouped_into(
        &self,
        groups: &GroupedSnapshot,
        rng: &mut DpRng,
        scratch: &mut RunScratch,
    ) -> Result<()> {
        let factor = self.round_mechanism()?.log_weight_factor();
        let (cursors, heap_storage, picks, selected) = scratch.begin_em_run();
        if groups.len_items() == 0 {
            return Err(SvtError::Mechanism(MechanismError::EmptyCandidates));
        }
        let take = self.c.min(groups.len_items());
        cursors.clear();
        cursors.reserve(groups.num_groups());
        heap_storage.clear();
        heap_storage.reserve(groups.num_groups());
        // Draw protocol (fixed, documented): one uniform per group for
        // the initial maxima, in group (descending score) order …
        for g in 0..groups.num_groups() {
            let dist = Gumbel::new(factor * groups.score(g), 1.0).map_err(SvtError::from)?;
            let mut keys = GumbelMax::new(dist, groups.len(g)).map_err(SvtError::from)?;
            let key = keys.next_key(rng).expect("score groups are nonempty");
            cursors.push(GroupCursor {
                keys,
                remaining: groups.len(g) as u32,
            });
            heap_storage.push(GroupKey {
                key,
                group: g as u32,
            });
        }
        let mut heap = BinaryHeap::from(std::mem::take(heap_storage));
        // … then per selection round: the member pick for the winning
        // group, then (if the group is not exhausted) its next key.
        for _ in 0..take {
            let GroupKey { group, .. } = heap.pop().expect(
                "every non-exhausted group keeps one key in the heap, \
                 and take is at most the total item count",
            );
            let cursor = &mut cursors[group as usize];
            let picked_pos =
                picks.pick_uniform(groups.offset(group as usize), cursor.remaining, rng);
            cursor.remaining -= 1;
            selected.push(groups.item(picked_pos) as usize);
            if cursor.remaining > 0 {
                let key = cursor
                    .keys
                    .next_key(rng)
                    .expect("remaining members imply remaining order statistics");
                heap.push(GroupKey { key, group });
            }
        }
        *heap_storage = heap.into_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(EmTopC::new(0.1, 25, 1.0, true).is_ok());
        assert!(EmTopC::new(0.0, 25, 1.0, true).is_err());
        assert!(EmTopC::new(0.1, 0, 1.0, true).is_err());
        assert!(EmTopC::new(0.1, 25, 0.0, true).is_err());
    }

    #[test]
    fn per_round_budget_is_epsilon_over_c() {
        let em = EmTopC::new(0.1, 25, 1.0, true).unwrap();
        assert!((em.epsilon_per_round() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn selects_c_distinct_indices() {
        let em = EmTopC::new(1.0, 10, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut rng = DpRng::seed_from_u64(457);
        let picked = em.select(&scores, &mut rng).unwrap();
        assert_eq!(picked.len(), 10);
        let mut s = picked.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn generous_budget_recovers_exact_top_c() {
        let em = EmTopC::new(1000.0, 5, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..50).map(|i| (i * i) as f64).collect();
        let mut rng = DpRng::seed_from_u64(461);
        let mut picked = em.select(&scores, &mut rng).unwrap();
        picked.sort_unstable();
        assert_eq!(picked, vec![45, 46, 47, 48, 49]);
    }

    #[test]
    fn small_pool_is_exhausted_without_error() {
        let em = EmTopC::new(1.0, 10, 1.0, false).unwrap();
        let mut rng = DpRng::seed_from_u64(463);
        let picked = em.select(&[1.0, 2.0, 3.0], &mut rng).unwrap();
        assert_eq!(picked.len(), 3);
    }

    fn grouped(scores: &[f64]) -> GroupedSnapshot {
        GroupedSnapshot::from_scores(scores).unwrap()
    }

    #[test]
    fn select_grouped_into_selects_c_distinct_indices_with_ties() {
        let em = EmTopC::new(1.0, 10, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..3000).map(|i| (i % 7) as f64).collect();
        let g = grouped(&scores);
        let mut rng = DpRng::seed_from_u64(601);
        let mut scratch = RunScratch::new();
        for _ in 0..20 {
            em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected().len(), 10);
            let mut s = scratch.selected().to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 10, "duplicate index selected");
            assert!(s.iter().all(|&i| i < 3000));
        }
    }

    #[test]
    fn select_grouped_into_generous_budget_recovers_exact_top_c() {
        let em = EmTopC::new(1000.0, 5, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..50).map(|i| (i * i) as f64).collect();
        let g = grouped(&scores);
        let mut rng = DpRng::seed_from_u64(607);
        let mut scratch = RunScratch::new();
        em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
        let mut picked = scratch.selected().to_vec();
        picked.sort_unstable();
        assert_eq!(picked, vec![45, 46, 47, 48, 49]);
        assert_eq!(scratch.selected()[0], 49, "selection order is best-first");
    }

    #[test]
    fn select_grouped_into_exhausts_small_pools() {
        let em = EmTopC::new(1.0, 10, 1.0, false).unwrap();
        let mut rng = DpRng::seed_from_u64(613);
        let mut scratch = RunScratch::new();
        em.select_grouped_into(&grouped(&[1.0, 1.0, 1.0]), &mut rng, &mut scratch)
            .unwrap();
        let mut s = scratch.selected().to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn select_grouped_into_is_seed_deterministic_across_scratch_reuse() {
        let em = EmTopC::new(0.4, 12, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..2000).map(|i| (i % 97) as f64 * 2.0).collect();
        let g = grouped(&scores);
        let run = |scratch: &mut RunScratch, seed: u64| {
            let mut rng = DpRng::seed_from_u64(seed);
            em.select_grouped_into(&g, &mut rng, scratch).unwrap();
            scratch.selected().to_vec()
        };
        let mut fresh = RunScratch::new();
        let a = run(&mut fresh, 11);
        let mut reused = RunScratch::new();
        run(&mut reused, 99); // dirty the scratch with a different seed
        let b = run(&mut reused, 11);
        assert_eq!(a, b, "dirty scratch must not leak into the next run");
    }

    #[test]
    fn select_grouped_into_matches_peeling_distribution_on_ties() {
        // First-pick frequencies against the exact softmax probabilities
        // on an instance where two candidates tie.
        let em = EmTopC::new(3.0, 1, 1.0, true).unwrap();
        let scores = [0.0, 1.0, 1.0];
        let probs = dp_mechanisms::ExponentialMechanism::new_monotonic(3.0, 1.0)
            .unwrap()
            .selection_probabilities(&scores)
            .unwrap();
        let g = grouped(&scores);
        let mut rng = DpRng::seed_from_u64(617);
        let mut scratch = RunScratch::new();
        let trials = 60_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
            counts[scratch.selected()[0]] += 1;
        }
        for i in 0..3 {
            let f = counts[i] as f64 / trials as f64;
            assert!((f - probs[i]).abs() < 0.012, "i={i}: {f} vs {}", probs[i]);
        }
    }

    #[test]
    fn select_grouped_into_matches_select_and_select_into_on_full_set_distribution() {
        // Full ordered-outcome comparison of the two samplers on an
        // instance with a tied pair (4 candidates, c = 2 → 12 ordered
        // outcomes).
        let em = EmTopC::new(2.0, 2, 1.0, true).unwrap();
        let scores = [0.0, 1.0, 1.0, 1.5];
        let g = grouped(&scores);
        let mut rng = DpRng::seed_from_u64(619);
        let mut scratch = RunScratch::new();
        let trials = 40_000;
        let key = |v: &[usize]| v[0] * 4 + v[1];
        let mut peel_counts = [0usize; 16];
        let mut grouped_counts = [0usize; 16];
        for _ in 0..trials {
            let a = em.select(&scores, &mut rng).unwrap();
            peel_counts[key(&a)] += 1;
            em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
            grouped_counts[key(scratch.selected())] += 1;
        }
        for i in 0..16 {
            let p = peel_counts[i] as f64 / trials as f64;
            let q = grouped_counts[i] as f64 / trials as f64;
            assert!(
                (p - q).abs() < 0.015,
                "outcome {i}: peel {p} vs grouped {q}"
            );
        }
    }

    #[test]
    fn tied_scores_are_selected_uniformly_at_tiny_epsilon() {
        // The tie contract (see the module docs): duplicate scores at
        // tiny ε (keys driven almost purely by noise) must be selected
        // with equal probability by both samplers.
        let em = EmTopC::new(1e-9, 2, 1.0, true).unwrap();
        let scores = [5.0, 5.0, 5.0, 5.0, 5.0, 5.0];
        let g = grouped(&scores);
        let mut rng = DpRng::seed_from_u64(631);
        let mut scratch = RunScratch::new();
        let trials = 30_000;
        let mut peel = [0usize; 6];
        let mut runs_grouped = [0usize; 6];
        for _ in 0..trials {
            for &i in &em.select(&scores, &mut rng).unwrap() {
                peel[i] += 1;
            }
            em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
            for &i in scratch.selected() {
                runs_grouped[i] += 1;
            }
        }
        // Each of the 6 tied items should appear in c/n = 1/3 of runs.
        for i in 0..6 {
            for (name, counts) in [("peel", &peel), ("grouped", &runs_grouped)] {
                let f = counts[i] as f64 / trials as f64;
                assert!(
                    (f - 1.0 / 3.0).abs() < 0.012,
                    "{name} i={i}: rate {f} not uniform"
                );
            }
        }
    }

    #[test]
    fn select_grouped_into_is_bit_identical_to_per_item_keys_on_distinct_sorted_scores() {
        // The degenerate case: all scores distinct and already in
        // decreasing order means every group is a singleton *and* the
        // grouped sampler draws its initial maxima in index order.
        // GumbelMax with m = 1 is bit-identical to a plain Gumbel draw,
        // so the grouped sampler's keys are exactly those of one
        // `Gumbel(f·q, 1)` draw per item in index order, and its
        // selection must be the top `c` of those keys, best first.
        let em = EmTopC::new(0.7, 25, 1.0, true).unwrap();
        let factor = em.round_mechanism().unwrap().log_weight_factor();
        let scores: Vec<f64> = (0..4000).map(|i| (8000 - i) as f64).collect();
        let g = grouped(&scores);
        let mut scratch = RunScratch::new();
        for seed in [3u64, 641, 0xfeed_f00d] {
            let mut rng = DpRng::seed_from_u64(seed);
            let mut keyed: Vec<(f64, usize)> = scores
                .iter()
                .enumerate()
                .map(|(i, &q)| (Gumbel::new(factor * q, 1.0).unwrap().sample(&mut rng), i))
                .collect();
            keyed.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            let per_item: Vec<usize> = keyed[..em.c].iter().map(|&(_, i)| i).collect();
            let mut rng = DpRng::seed_from_u64(seed);
            em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected(), &per_item[..], "seed {seed}");
        }
    }

    #[test]
    fn tiny_budget_is_near_uniform() {
        // With ε → 0 every candidate is near-equally likely; check the
        // top item is NOT systematically selected first.
        let em = EmTopC::new(1e-9, 1, 1.0, true).unwrap();
        let scores = [10.0, 0.0, 0.0, 0.0];
        let mut rng = DpRng::seed_from_u64(467);
        let hits = (0..8000)
            .filter(|_| em.select(&scores, &mut rng).unwrap()[0] == 0)
            .count() as f64
            / 8000.0;
        assert!((hits - 0.25).abs() < 0.02, "rate {hits}");
    }
}
