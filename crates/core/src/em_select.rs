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
//! Three samplers of the same output distribution are provided:
//! [`EmTopC::select`] peels literally (`c` rounds of
//! [`ExponentialMechanism`], kept as the allocating reference);
//! [`EmTopC::select_into`] exploits the Gumbel-max equivalence — one
//! scratch-buffered `O(n log c)` pass with block-batched keys;
//! [`EmTopC::select_grouped_into`] additionally exploits Gumbel
//! *max-stability* over runs of tied scores ([`GroupedSnapshot`]) to
//! draw one lazy order-statistics sampler per score *group* instead of
//! one key per item — `O(G + c)` draws for `G` distinct scores — which
//! is what the experiment harness's exact engine runs by default.

use crate::streaming::RunScratch;
use crate::{Result, SvtError};
use dp_data::GroupedSnapshot;
use dp_mechanisms::{BatchSample, DpRng, ExponentialMechanism, Gumbel, GumbelMax, MechanismError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How many standard-Gumbel keys [`EmTopC::select_into`] draws per
/// block-wise refill. Purely an amortization knob: the key stream is
/// bit-identical for every chunking (the [`dp_mechanisms::BatchSample`]
/// contract), so this cannot affect any selection.
const GUMBEL_CHUNK: usize = 512;

/// Reusable buffers for [`EmTopC::select_into`] and
/// [`EmTopC::select_grouped_into`]: a noise chunk, the running top-`c`
/// min-heap, and the grouped sampler's per-group cursors and
/// cross-group heap (its within-group pick map is the one
/// [`RunScratch`] shares with the SVT-Revisited skip-ahead). Lives
/// inside [`RunScratch`] so one worker-thread scratch serves the SVT
/// and EM engines alike; after warm-up a selection allocates nothing.
///
/// ## Tie contract
///
/// Perturbed *keys* are continuous, so exact key ties only arise from
/// `f64` rounding; when they do, [`EmTopC::select_into`]'s heap keeps
/// the **earliest-seen** index (the sift comparisons are strict, so an
/// incoming equal key never evicts an incumbent) and the final
/// selection order among bit-equal keys is unspecified
/// (`sort_unstable`). The contract all three samplers actually promise
/// — and that the tie tests pin — is distributional: items with equal
/// *scores* are selected with equal probability, in every selection
/// round. `select` inherits this from exact softmax weights,
/// `select_into` from i.i.d. per-item keys, and `select_grouped_into`
/// by construction (a winning tied-score group expands uniformly among
/// its not-yet-selected members).
#[derive(Debug, Clone, Default)]
pub struct EmScratch {
    /// Block of standard Gumbel draws (refilled per `GUMBEL_CHUNK`
    /// scores).
    noise: Vec<f64>,
    /// Min-heap of the `c` best `(key, index)` pairs seen so far.
    top: Vec<(f64, u32)>,
    /// Per-group lazy order-statistics cursors (grouped sampler).
    groups: Vec<GroupCursor>,
    /// Backing storage for the grouped sampler's cross-group max-heap,
    /// kept between runs so the heap never reallocates in steady state.
    heap: Vec<GroupKey>,
}

impl EmScratch {
    /// Creates empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One score-group's sampler state inside [`EmScratch`].
#[derive(Debug, Clone)]
struct GroupCursor {
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
struct GroupKey {
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

/// Restores the min-heap property upward from `heap[i]` (keyed on the
/// `f64`; all keys are finite by construction).
fn sift_up(heap: &mut [(f64, u32)], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[i].0 < heap[parent].0 {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Restores the min-heap property downward from `heap[0]`.
fn sift_down(heap: &mut [(f64, u32)]) {
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        let right = left + 1;
        let mut smallest = i;
        if left < heap.len() && heap[left].0 < heap[smallest].0 {
            smallest = left;
        }
        if right < heap.len() && heap[right].0 < heap[smallest].0 {
            smallest = right;
        }
        if smallest == i {
            break;
        }
        heap.swap(i, smallest);
        i = smallest;
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
        let per_round = self.epsilon_per_round();
        let em = if self.monotonic {
            ExponentialMechanism::new_monotonic(per_round, self.sensitivity)
        } else {
            ExponentialMechanism::new(per_round, self.sensitivity)
        }
        .map_err(SvtError::from)?;
        em.select_without_replacement(scores, self.c, rng)
            .map_err(SvtError::from)
    }

    /// The exponent factor `ε_round/(kΔ)` this selector applies to
    /// scores (`k = 1` monotonic, `k = 2` general) — validated exactly
    /// like [`select`](Self::select).
    fn key_factor(&self) -> Result<f64> {
        let per_round = self.epsilon_per_round();
        let em = if self.monotonic {
            ExponentialMechanism::new_monotonic(per_round, self.sensitivity)
        } else {
            ExponentialMechanism::new(per_round, self.sensitivity)
        }
        .map_err(SvtError::from)?;
        Ok(em.log_weight_factor())
    }

    /// Scratch-buffered top-`c` selection: the zero-allocation,
    /// batched-noise equivalent of [`select`](Self::select). The
    /// selection lands in [`RunScratch::selected`], in selection order.
    ///
    /// Samples the same output distribution as `select` via the
    /// Gumbel-max equivalence: perturbing every score once with
    /// `Gumbel(0, 1/f)` noise (`f` the exponent factor) and keeping the
    /// `c` largest perturbed scores is distributionally identical to
    /// `c` rounds of Exponential Mechanism peeling — but costs one
    /// `O(n log c)` pass instead of `c` full passes, and draws its keys
    /// block-wise through [`Gumbel::sample_into`] (bit-identical for
    /// every chunk size). Steady state allocates nothing: the noise
    /// chunk, the top-`c` heap, and the selection buffer all live in
    /// `scratch`.
    ///
    /// ```
    /// use dp_mechanisms::DpRng;
    /// use svt_core::em_select::EmTopC;
    /// use svt_core::streaming::RunScratch;
    ///
    /// let supports = [900.0, 850.0, 20.0, 15.0, 10.0, 5.0];
    /// let em = EmTopC::new(2.0, 2, 1.0, /*monotonic=*/true)?;
    /// let mut rng = DpRng::seed_from_u64(7);
    /// let mut scratch = RunScratch::new();
    /// em.select_into(&supports, &mut rng, &mut scratch)?;
    /// let mut picked = scratch.selected().to_vec();
    /// picked.sort_unstable();
    /// assert_eq!(picked, vec![0, 1]);
    /// # Ok::<(), svt_core::SvtError>(())
    /// ```
    ///
    /// # Errors
    /// [`SvtError::Mechanism`] on empty or non-finite scores. Scores
    /// are validated as they stream past, so on a non-finite score the
    /// generator has already consumed some noise (the selection buffer
    /// is left empty either way).
    pub fn select_into(
        &self,
        scores: &[f64],
        rng: &mut DpRng,
        scratch: &mut RunScratch,
    ) -> Result<()> {
        let factor = self.key_factor()?;
        let kernel = scratch.kernel();
        scratch.begin_em_run();
        let (em, _, selected) = scratch.em_parts();
        if scores.is_empty() {
            return Err(SvtError::Mechanism(MechanismError::EmptyCandidates));
        }
        let take = self.c.min(scores.len());
        em.top.clear();
        em.top.reserve(take);
        if em.noise.len() != GUMBEL_CHUNK {
            em.noise.resize(GUMBEL_CHUNK, 0.0);
        }
        let gumbel = Gumbel::standard();
        let mut index = 0u32;
        for chunk in scores.chunks(GUMBEL_CHUNK) {
            let keys = &mut em.noise[..chunk.len()];
            gumbel.sample_into_kernel(rng, keys, kernel);
            for (&score, key) in chunk.iter().zip(keys.iter_mut()) {
                if !score.is_finite() {
                    return Err(SvtError::Mechanism(MechanismError::NonFiniteScore {
                        index: index as usize,
                        score,
                    }));
                }
                *key += factor * score;
                if em.top.len() < take {
                    em.top.push((*key, index));
                    let last = em.top.len() - 1;
                    sift_up(&mut em.top, last);
                } else if *key > em.top[0].0 {
                    em.top[0] = (*key, index);
                    sift_down(&mut em.top);
                }
                index += 1;
            }
        }
        // Selection order = decreasing perturbed key (round order under
        // the peeling equivalence).
        em.top.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        selected.extend(em.top.iter().map(|&(_, i)| i as usize));
        Ok(())
    }

    /// Grouped top-`c` selection: the `O(G + c)`-draws equivalent of
    /// [`select_into`](Self::select_into) over the index-preserving
    /// grouped score runs (`G` = number of distinct scores). The
    /// selection lands in [`RunScratch::selected`], in selection order,
    /// exactly like the other samplers.
    ///
    /// Samples the same output distribution as [`select`](Self::select)
    /// and `select_into` through two identities layered on the
    /// Gumbel-max equivalence:
    ///
    /// * **across groups** — within a run of `m` tied scores the `m`
    ///   perturbed keys are i.i.d. `Gumbel(φ_g, 1)`, so the group's key
    ///   order statistics can be peeled lazily in descending order by
    ///   [`GumbelMax`] (the maximum in one draw via the `ln m` location
    ///   shift, successors via the exponential-spacings recurrence); a
    ///   max-heap across groups then replays the global descending key
    ///   order that `select_into` materializes item by item;
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
        let factor = self.key_factor()?;
        scratch.begin_em_run();
        let (em, picks, selected) = scratch.em_parts();
        if groups.len_items() == 0 {
            return Err(SvtError::Mechanism(MechanismError::EmptyCandidates));
        }
        let take = self.c.min(groups.len_items());
        em.groups.clear();
        em.groups.reserve(groups.num_groups());
        em.heap.clear();
        em.heap.reserve(groups.num_groups());
        // Draw protocol (fixed, documented): one uniform per group for
        // the initial maxima, in group (descending score) order …
        for g in 0..groups.num_groups() {
            let dist = Gumbel::new(factor * groups.score(g), 1.0).map_err(SvtError::from)?;
            let mut keys = GumbelMax::new(dist, groups.len(g)).map_err(SvtError::from)?;
            let key = keys.next_key(rng).expect("score groups are nonempty");
            em.groups.push(GroupCursor {
                keys,
                remaining: groups.len(g) as u32,
            });
            em.heap.push(GroupKey {
                key,
                group: g as u32,
            });
        }
        let mut heap = BinaryHeap::from(std::mem::take(&mut em.heap));
        // … then per selection round: the member pick for the winning
        // group, then (if the group is not exhausted) its next key.
        for _ in 0..take {
            let GroupKey { group, .. } = heap.pop().expect(
                "every non-exhausted group keeps one key in the heap, \
                 and take is at most the total item count",
            );
            let cursor = &mut em.groups[group as usize];
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
        em.heap = heap.into_vec();
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

    #[test]
    fn select_into_selects_c_distinct_indices_in_key_order() {
        let em = EmTopC::new(1.0, 10, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..3000).map(|i| (i % 211) as f64).collect();
        let mut rng = DpRng::seed_from_u64(571);
        let mut scratch = RunScratch::new();
        for _ in 0..20 {
            em.select_into(&scores, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected().len(), 10);
            let mut s = scratch.selected().to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 10);
        }
    }

    #[test]
    fn select_into_generous_budget_recovers_exact_top_c() {
        let em = EmTopC::new(1000.0, 5, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..50).map(|i| (i * i) as f64).collect();
        let mut rng = DpRng::seed_from_u64(577);
        let mut scratch = RunScratch::new();
        em.select_into(&scores, &mut rng, &mut scratch).unwrap();
        let mut picked = scratch.selected().to_vec();
        picked.sort_unstable();
        assert_eq!(picked, vec![45, 46, 47, 48, 49]);
        // And the selection order is best-first under that budget.
        assert_eq!(scratch.selected()[0], 49);
    }

    #[test]
    fn select_into_exhausts_small_pools_and_validates() {
        let em = EmTopC::new(1.0, 10, 1.0, false).unwrap();
        let mut rng = DpRng::seed_from_u64(587);
        let mut scratch = RunScratch::new();
        em.select_into(&[1.0, 2.0, 3.0], &mut rng, &mut scratch)
            .unwrap();
        assert_eq!(scratch.selected().len(), 3);
        assert!(em.select_into(&[], &mut rng, &mut scratch).is_err());
        assert!(em
            .select_into(&[1.0, f64::NAN], &mut rng, &mut scratch)
            .is_err());
        assert!(scratch.selected().is_empty(), "error leaves no selection");
    }

    #[test]
    fn select_into_is_seed_deterministic_across_scratch_reuse() {
        let em = EmTopC::new(0.4, 12, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..2000).map(|i| (i % 97) as f64 * 2.0).collect();
        let run = |scratch: &mut RunScratch, seed: u64| {
            let mut rng = DpRng::seed_from_u64(seed);
            em.select_into(&scores, &mut rng, scratch).unwrap();
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
    fn select_into_matches_peeling_distribution() {
        // The Gumbel-max one-shot and literal peeling sample the same
        // distribution; compare first-pick frequencies on a small
        // instance where the exact probabilities are known.
        let em = EmTopC::new(3.0, 1, 1.0, true).unwrap();
        let scores = [0.0, 1.0, 2.0];
        let probs = dp_mechanisms::ExponentialMechanism::new_monotonic(3.0, 1.0)
            .unwrap()
            .selection_probabilities(&scores)
            .unwrap();
        let mut rng = DpRng::seed_from_u64(593);
        let mut scratch = RunScratch::new();
        let trials = 60_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            em.select_into(&scores, &mut rng, &mut scratch).unwrap();
            counts[scratch.selected()[0]] += 1;
        }
        for i in 0..3 {
            let f = counts[i] as f64 / trials as f64;
            assert!((f - probs[i]).abs() < 0.012, "i={i}: {f} vs {}", probs[i]);
        }
    }

    #[test]
    fn select_into_matches_peeling_on_full_set_distribution() {
        // Full ordered-outcome comparison against the peeling reference
        // (4 candidates, c = 2 → 12 ordered outcomes).
        let em = EmTopC::new(2.0, 2, 1.0, true).unwrap();
        let scores = [0.0, 0.5, 1.0, 1.5];
        let mut rng = DpRng::seed_from_u64(599);
        let mut scratch = RunScratch::new();
        let trials = 40_000;
        let key = |v: &[usize]| v[0] * 4 + v[1];
        let mut peel_counts = [0usize; 16];
        let mut shot_counts = [0usize; 16];
        for _ in 0..trials {
            let a = em.select(&scores, &mut rng).unwrap();
            peel_counts[key(&a)] += 1;
            em.select_into(&scores, &mut rng, &mut scratch).unwrap();
            shot_counts[key(scratch.selected())] += 1;
        }
        for i in 0..16 {
            let p = peel_counts[i] as f64 / trials as f64;
            let s = shot_counts[i] as f64 / trials as f64;
            assert!((p - s).abs() < 0.015, "outcome {i}: peel {p} vs shot {s}");
        }
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
        // Full ordered-outcome comparison of all three samplers on an
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
        let mut shot_counts = [0usize; 16];
        let mut grouped_counts = [0usize; 16];
        for _ in 0..trials {
            let a = em.select(&scores, &mut rng).unwrap();
            peel_counts[key(&a)] += 1;
            em.select_into(&scores, &mut rng, &mut scratch).unwrap();
            shot_counts[key(scratch.selected())] += 1;
            em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
            grouped_counts[key(scratch.selected())] += 1;
        }
        for i in 0..16 {
            let p = peel_counts[i] as f64 / trials as f64;
            let s = shot_counts[i] as f64 / trials as f64;
            let q = grouped_counts[i] as f64 / trials as f64;
            assert!(
                (p - q).abs() < 0.015,
                "outcome {i}: peel {p} vs grouped {q}"
            );
            assert!(
                (s - q).abs() < 0.015,
                "outcome {i}: shot {s} vs grouped {q}"
            );
        }
    }

    #[test]
    fn tied_scores_are_selected_uniformly_at_tiny_epsilon() {
        // The tie contract (see `EmScratch`): duplicate scores at tiny ε
        // (keys driven almost purely by noise, maximal heap-collision
        // pressure) must be selected with equal probability by all three
        // samplers — `select` is the reference, the other two must agree.
        let em = EmTopC::new(1e-9, 2, 1.0, true).unwrap();
        let scores = [5.0, 5.0, 5.0, 5.0, 5.0, 5.0];
        let g = grouped(&scores);
        let mut rng = DpRng::seed_from_u64(631);
        let mut scratch = RunScratch::new();
        let trials = 30_000;
        let mut peel = [0usize; 6];
        let mut shot = [0usize; 6];
        let mut runs_grouped = [0usize; 6];
        for _ in 0..trials {
            for &i in &em.select(&scores, &mut rng).unwrap() {
                peel[i] += 1;
            }
            em.select_into(&scores, &mut rng, &mut scratch).unwrap();
            for &i in scratch.selected() {
                shot[i] += 1;
            }
            em.select_grouped_into(&g, &mut rng, &mut scratch).unwrap();
            for &i in scratch.selected() {
                runs_grouped[i] += 1;
            }
        }
        // Each of the 6 tied items should appear in c/n = 1/3 of runs.
        for i in 0..6 {
            for (name, counts) in [("peel", &peel), ("shot", &shot), ("grouped", &runs_grouped)] {
                let f = counts[i] as f64 / trials as f64;
                assert!(
                    (f - 1.0 / 3.0).abs() < 0.012,
                    "{name} i={i}: rate {f} not uniform"
                );
            }
        }
    }

    #[test]
    fn heap_sift_keeps_earliest_index_on_equal_keys() {
        // The documented key-tie behaviour of select_into's min-heap:
        // strict comparisons mean an incoming bit-equal key neither
        // displaces an incumbent on insert nor survives replacement at
        // the boundary.
        let mut heap: Vec<(f64, u32)> = vec![];
        for i in 0..4u32 {
            heap.push((1.0, i));
            let last = heap.len() - 1;
            sift_up(&mut heap, last);
        }
        // All keys equal: sift_up must never have reordered anything.
        assert_eq!(heap, vec![(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3)]);
        // Root replacement with an equal key: sift_down leaves it put.
        heap[0] = (1.0, 9);
        sift_down(&mut heap);
        assert_eq!(heap[0], (1.0, 9));
    }

    #[test]
    fn select_grouped_into_is_bit_identical_to_select_into_on_distinct_sorted_scores() {
        // The degenerate case: all scores distinct and already in
        // decreasing order means every group is a singleton *and* the
        // grouped traversal visits items in index order. GumbelMax with
        // m = 1 is bit-identical to a plain Gumbel draw and the batched
        // fill is stream-equivalent to scalar draws, so both samplers
        // consume the same uniforms, compute bit-identical keys, and
        // must emit the identical selection.
        // The per-item fill runs the scratch's kernel and GumbelMax
        // always runs libm, so the scratch takes the Reference kernel.
        let em = EmTopC::new(0.7, 25, 1.0, true).unwrap();
        let scores: Vec<f64> = (0..4000).map(|i| (8000 - i) as f64).collect();
        let g = grouped(&scores);
        let mut scratch = RunScratch::with_noise_batch(dp_mechanisms::NoiseBuffer::DEFAULT_BATCH);
        for seed in [3u64, 641, 0xfeed_f00d] {
            let mut rng = DpRng::seed_from_u64(seed);
            em.select_into(&scores, &mut rng, &mut scratch).unwrap();
            let per_item = scratch.selected().to_vec();
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
