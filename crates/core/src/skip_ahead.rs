//! Grouped skip-ahead SVT-Revisited: one uniform per score group per ⊤
//! instead of one order step, one `ν` and one score read per item.
//!
//! SVT-Revisited ([`SvtRevisited`],
//! arXiv:2010.00917) charges budget only for ⊤ answers, so a run at the
//! paper's `ε = 0.1` examines nearly the whole list. Two facts make an
//! exact shortcut possible: a ⊥ costs nothing and changes no state, and
//! the members of a score group are exchangeable. So
//! [`revisited_select_grouped`] draws the *next ⊤* per group of a
//! [`GroupedSnapshot`] instead of walking items, and samples exactly
//! the output distribution of the item-level walk: the selection in
//! answer order and the number of items examined.
//!
//! ## Model
//!
//! Items are examined in the order of i.i.d. `U(0,1)` arrival times,
//! which is a uniformly random permutation. Write `t` for the time of
//! the last ⊤ (0 at the start), `M_g` for the number of unselected
//! members of group `g`, and, under the current threshold noise `ρ`,
//!
//! ```text
//! p_g = P(ν ≥ T + ρ − q_g) = Lap(ν scale).survival(T + ρ − q_g)
//! ```
//!
//! for the chance that one examined member of `g` answers ⊤.
//!
//! * Given the history, group `g`'s unselected members are independent
//!   and exchangeable, and each is still unexamined with probability
//!   `(1 − t)/(A_g + 1 − t)`, where `A_g` sums, over past epochs (the
//!   stretches between ⊤s), the epoch length times `1 − p_g` of that
//!   epoch: an examined member is one that drew ⊥ there.
//! * So group `g`'s first ⊤ after `t` comes at `t + Δ_g` with
//!   `P(Δ_g > s) = (1 − a_g·s)^{M_g}` and `a_g = p_g/(A_g + 1 − t)`,
//!   drawn by inversion from one open uniform `V`:
//!   `Δ_g = −expm1(ln V / M_g)/a_g`. The group has no ⊤ in this epoch
//!   if `Δ_g ≥ 1 − t`.
//! * The ⊤ comes from the group with the smallest `Δ_g`, and its item
//!   is a uniformly chosen unselected member (the swap-with-last pick
//!   the grouped EM sampler uses).
//! * After the ⊤ every `A_g` grows by `Δ·(1 − p_g)`, `M_{g*}` drops by
//!   one, `t` grows by `Δ`, and `ρ` is redrawn unless this was the
//!   `c`-th ⊤. If no group has a ⊤ before `t = 1`, the list is
//!   exhausted.
//!
//! **Items examined.** An exhausted run examined all `n` items. A run
//! that halts at its `c`-th ⊤ examined the `c` selected items plus, per
//! group, `Bin(M_g, A_g/(A_g + 1 − t))` of the unselected members
//! ([`Binomial`]); [`RunScratch::examined`] reports that count.
//!
//! **Cost.** Each ⊤ costs one pass over the `G` groups (a survival, an
//! `ln`, an `expm1` and a uniform per live group), and a halting run
//! `G` binomial draws once — `O(c·G)` against the item-level walk's
//! `O(n)`. The pass loses when `G` approaches `n`; ARCHITECTURE.md
//! records the measured trade-off.
//!
//! ## Draw protocol
//!
//! Every draw comes from the run generator, in this order:
//!
//! 1. `ρ`;
//! 2. per epoch, one open uniform for each group with `M_g > 0` and
//!    `p_g > 0`, in group (descending score) order;
//! 3. the ⊤'s member pick;
//! 4. the next `ρ`, then back to 2;
//! 5. when the run halts, the examined-count binomials in group order.
//!
//! A run is thus a pure function of its generator: no forks, no
//! buffered noise, and the same output for every thread count.

use crate::alg::SvtRevisited;
use crate::noninteractive::SvtSelectConfig;
use crate::streaming::RunScratch;
use crate::{Result, SvtError};
use dp_data::GroupedSnapshot;
use dp_mechanisms::{Binomial, DpRng};

/// One score group's skip-ahead state, kept in [`RunScratch`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SkipGroup {
    /// `M_g`: members not yet selected.
    remaining: u32,
    /// `A_g`: Σ over past epochs of length × (1 − that epoch's `p_g`).
    seen: f64,
    /// `p_g` under the current `ρ`.
    p: f64,
}

/// SVT-Revisited selection over the grouped score runs by skip-ahead
/// (see the module docs): the selection lands in
/// [`RunScratch::selected`] in answer order, the sampled examined count
/// in [`RunScratch::examined`].
///
/// Samples the same output distribution as running
/// [`SvtRevisited`] item by item over a
/// uniformly random order — `c` chained cutoff-1 instances, `ρ` redrawn
/// after every non-final ⊤ — in `O(c·G)` instead of `O(n)`.
///
/// ```
/// use dp_data::GroupedSnapshot;
/// use dp_mechanisms::DpRng;
/// use svt_core::allocation::BudgetRatio;
/// use svt_core::noninteractive::SvtSelectConfig;
/// use svt_core::skip_ahead::revisited_select_grouped;
/// use svt_core::streaming::RunScratch;
///
/// let groups = GroupedSnapshot::from_scores(&[700.0, 650.0, 30.0, 20.0, 10.0, 5.0])?;
/// let cfg = SvtSelectConfig::counting(40.0, 2, BudgetRatio::OneToCTwoThirds);
/// let mut rng = DpRng::seed_from_u64(11);
/// let mut scratch = RunScratch::new();
/// revisited_select_grouped(&groups, 340.0, &cfg, &mut rng, &mut scratch)?;
/// let mut picked = scratch.selected().to_vec();
/// picked.sort_unstable();
/// assert_eq!(picked, vec![0, 1]);
/// assert!(scratch.examined() >= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
/// Rejects the configurations [`SvtRevisited::new`] rejects (including
/// any budget with a numeric phase) and, like its first
/// [`respond`](crate::alg::SparseVector::respond), a non-finite
/// `threshold` with [`SvtError::NonFiniteInput`].
pub fn revisited_select_grouped(
    groups: &GroupedSnapshot,
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    // Opening the item-level sampler validates exactly as the scalar
    // reference does and draws the first ρ (step 1 of the protocol).
    let first = SvtRevisited::new(config.to_standard()?, rng)?;
    crate::error::check_finite(threshold, "threshold")?;
    let (query_noise, threshold_noise) = first.noises();
    let mut rho = first.rho();
    let c = first.config().c;
    let n = groups.len_items();
    let (state, picks, selected) = scratch.begin_skip_run();
    state.clear();
    state.extend((0..groups.num_groups()).map(|g| SkipGroup {
        remaining: groups.len(g) as u32,
        ..SkipGroup::default()
    }));
    let mut t = 0.0f64;
    loop {
        // One pass: every live group's first-⊤ time in this epoch.
        let horizon = 1.0 - t;
        let cut = threshold + rho;
        let (mut delta, mut top) = (f64::INFINITY, usize::MAX);
        for (g, st) in state.iter_mut().enumerate() {
            st.p = if st.remaining == 0 {
                0.0
            } else {
                query_noise.survival(cut - groups.score(g))
            };
            if st.p > 0.0 {
                let v = rng.open_uniform();
                let a = st.p / (st.seen + horizon);
                let d = -(v.ln() / f64::from(st.remaining)).exp_m1() / a;
                if d < delta {
                    (delta, top) = (d, g);
                }
            }
        }
        if delta >= horizon {
            scratch.set_examined(n);
            return Ok(());
        }
        let st = &mut state[top];
        let pos = picks.pick_uniform(groups.offset(top), st.remaining, rng);
        st.remaining -= 1;
        selected.push(groups.item(pos) as usize);
        for st in state.iter_mut() {
            st.seen += delta * (1.0 - st.p);
        }
        t += delta;
        if selected.len() == c {
            break;
        }
        rho = threshold_noise.sample(rng);
        crate::error::check_finite(rho, "threshold noise")?;
    }
    // Halted at the c-th ⊤: count the unselected members examined by t.
    let horizon = 1.0 - t;
    let mut examined = selected.len();
    for st in state.iter() {
        let prob = if horizon > 0.0 {
            st.seen / (st.seen + horizon)
        } else {
            1.0
        };
        examined += Binomial::new(u64::from(st.remaining), prob)
            .map_err(SvtError::from)?
            .sample(rng) as usize;
    }
    scratch.set_examined(examined);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::SparseVector;
    use crate::allocation::BudgetRatio;
    use crate::noninteractive::select_with;
    use crate::response::SvtAnswer;
    use proptest::prelude::*;

    /// [`SvtRevisited`] counting the queries it answers: the scalar
    /// reference's examined count.
    struct Counted {
        alg: SvtRevisited,
        asked: usize,
    }

    impl SparseVector for Counted {
        fn respond(&mut self, q: f64, threshold: f64, rng: &mut DpRng) -> Result<SvtAnswer> {
            self.asked += 1;
            self.alg.respond(q, threshold, rng)
        }
        fn is_halted(&self) -> bool {
            self.alg.is_halted()
        }
        fn positives(&self) -> usize {
            self.alg.positives()
        }
        fn name(&self) -> &'static str {
            "counted SVT-Revisited"
        }
    }

    /// What the gate compares per engine: selections per score group
    /// over all runs, and ⊤ and examined counts per run.
    struct Sample {
        per_group: Vec<u64>,
        tops: Vec<f64>,
        examined: Vec<f64>,
    }

    impl Sample {
        fn new(groups: &GroupedSnapshot) -> Self {
            Self {
                per_group: vec![0; groups.num_groups()],
                tops: Vec::new(),
                examined: Vec::new(),
            }
        }

        fn record(&mut self, groups: &GroupedSnapshot, selected: &[usize], examined: usize) {
            for &item in selected {
                self.per_group[groups.group_of_item(item)] += 1;
            }
            self.tops.push(selected.len() as f64);
            self.examined.push(examined as f64);
        }
    }

    /// One cell of the gate.
    struct Cell {
        c: usize,
        epsilon: f64,
        threshold: f64,
        /// Whether most reference runs halt at the `c`-th ⊤ (otherwise
        /// most exhaust the list).
        halts: bool,
        runs: usize,
    }

    fn skip_sample(groups: &GroupedSnapshot, cell: &Cell, runs: usize, seed: u64) -> Sample {
        let cfg = SvtSelectConfig::counting(cell.epsilon, cell.c, BudgetRatio::OneToCTwoThirds);
        let mut rng = DpRng::seed_from_u64(seed);
        let mut scratch = RunScratch::new();
        let mut sample = Sample::new(groups);
        for _ in 0..runs {
            revisited_select_grouped(groups, cell.threshold, &cfg, &mut rng, &mut scratch).unwrap();
            sample.record(groups, scratch.selected(), scratch.examined());
        }
        sample
    }

    /// The scalar reference `ExactContext::run_once` runs for
    /// SVT-Revisited: [`SvtRevisited`] through [`select_with`].
    fn reference_sample(
        scores: &[f64],
        groups: &GroupedSnapshot,
        cell: &Cell,
        runs: usize,
        seed: u64,
    ) -> Sample {
        let cfg = SvtSelectConfig::counting(cell.epsilon, cell.c, BudgetRatio::OneToCTwoThirds)
            .to_standard()
            .unwrap();
        let mut rng = DpRng::seed_from_u64(seed);
        let mut sample = Sample::new(groups);
        for _ in 0..runs {
            let mut alg = Counted {
                alg: SvtRevisited::new(cfg, &mut rng).unwrap(),
                asked: 0,
            };
            let selected = select_with(&mut alg, scores, cell.threshold, &mut rng).unwrap();
            sample.record(groups, &selected, alg.asked);
        }
        sample
    }

    /// Two-sample Kolmogorov–Smirnov statistic `sup |F_a − F_b|`.
    fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
        let (mut a, mut b) = (a.to_vec(), b.to_vec());
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    /// Chi-square homogeneity statistic of two count vectors over the
    /// same categories, pooling consecutive categories until each
    /// pooled cell holds at least 20 observations in total; returns
    /// `(statistic, degrees of freedom)`.
    fn chi_square_homogeneity(a: &[u64], b: &[u64]) -> (f64, usize) {
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let (mut pa, mut pb) = (0u64, 0u64);
        for (&x, &y) in a.iter().zip(b) {
            pa += x;
            pb += y;
            if pa + pb >= 20 {
                cells.push((pa as f64, pb as f64));
                (pa, pb) = (0, 0);
            }
        }
        if let Some(last) = cells.last_mut() {
            last.0 += pa as f64;
            last.1 += pb as f64;
        }
        let (ta, tb) = cells
            .iter()
            .fold((0.0, 0.0), |(sa, sb), &(x, y)| (sa + x, sb + y));
        let stat = cells
            .iter()
            .map(|&(x, y)| {
                let ea = (x + y) * ta / (ta + tb);
                let eb = (x + y) * tb / (ta + tb);
                (x - ea).powi(2) / ea + (y - eb).powi(2) / eb
            })
            .sum();
        (stat, cells.len().saturating_sub(1))
    }

    /// Wilson–Hilferty: the standard-normal score of a chi-square
    /// statistic with `df` degrees of freedom.
    fn chi_square_z(stat: f64, df: usize) -> f64 {
        let k = df as f64;
        let v = 2.0 / (9.0 * k);
        ((stat / k).cbrt() - (1.0 - v)) / v.sqrt()
    }

    /// Bonferroni over the gate's 12 tests (2 inputs × 2 cells × 3
    /// tests) at a family-wise false-alarm rate of 1e-3: each test runs
    /// at α = 1e-3/12, i.e. one-sided `z_{1−α}` = 3.7648 for the
    /// chi-squares and the KS coefficient `√(−ln(α/2)/2)` = 2.2456.
    const CHI_SQUARE_Z: f64 = 3.7648;
    const KS_COEFFICIENT: f64 = 2.2456;

    /// Compares one cell's two samples; returns the failed tests.
    fn compare(name: &str, skip: &Sample, reference: &Sample) -> Vec<String> {
        let mut failures = Vec::new();
        let (stat, df) = chi_square_homogeneity(&skip.per_group, &reference.per_group);
        let z = chi_square_z(stat, df);
        if z >= CHI_SQUARE_Z {
            failures.push(format!(
                "{name}: per-group selections chi-square {stat:.1} on {df} df (z {z:.2})"
            ));
        }
        let (na, nb) = (skip.tops.len() as f64, reference.tops.len() as f64);
        let critical = KS_COEFFICIENT * ((na + nb) / (na * nb)).sqrt();
        for (what, a, b) in [
            ("⊤ count", &skip.tops, &reference.tops),
            ("examined count", &skip.examined, &reference.examined),
        ] {
            let d = ks_statistic(a, b);
            if d >= critical {
                failures.push(format!("{name}: {what} KS D = {d:.4} ≥ {critical:.4}"));
            }
        }
        failures
    }

    #[test]
    fn skip_ahead_matches_the_item_level_reference_distribution() {
        // The distribution gate: the skip-ahead against the scalar
        // reference on a tie-heavy input (n = 2,000, G = 46) and a
        // near-distinct one (n = 600, G = 300), each at one cell where
        // runs halt and one where they exhaust the list.
        let tie_heavy: Vec<f64> = (0..2000)
            .map(|i| (400.0 / f64::from(i + 1).powf(0.9)).floor())
            .collect();
        let near_distinct: Vec<f64> = (0..600).map(|i| f64::from(i / 2)).collect();
        // The tie-heavy halting cell gets more runs: its mix of sure-⊤
        // singletons and large low-`p` groups is where choosing the ⊤'s
        // group by anything but the smallest Δ_g shows.
        let inputs = [
            (
                "tie-heavy",
                &tie_heavy,
                [
                    Cell {
                        c: 5,
                        epsilon: 1.0,
                        threshold: 86.0,
                        halts: true,
                        runs: 3000,
                    },
                    Cell {
                        c: 10,
                        epsilon: 1.0,
                        threshold: 120.0,
                        halts: false,
                        runs: 1000,
                    },
                ],
            ),
            (
                "near-distinct",
                &near_distinct,
                [
                    Cell {
                        c: 5,
                        epsilon: 1.0,
                        threshold: 270.0,
                        halts: true,
                        runs: 1000,
                    },
                    Cell {
                        c: 10,
                        epsilon: 1.0,
                        threshold: 300.0,
                        halts: false,
                        runs: 1000,
                    },
                ],
            ),
        ];
        let mut failures = Vec::new();
        for (input, scores, cells) in inputs {
            let groups = GroupedSnapshot::from_scores(scores).unwrap();
            for (k, cell) in cells.iter().enumerate() {
                let seed = 0x005e_1ec7 + 2 * k as u64;
                let skip = skip_sample(&groups, cell, cell.runs, seed);
                let reference = reference_sample(scores, &groups, cell, cell.runs, seed + 1);
                let halted = reference
                    .tops
                    .iter()
                    .filter(|&&t| t == cell.c as f64)
                    .count();
                assert_eq!(
                    2 * halted > cell.runs,
                    cell.halts,
                    "{input} c={}: {halted}/{} reference runs halted",
                    cell.c,
                    cell.runs
                );
                let name = format!("{input} c={} T={}", cell.c, cell.threshold);
                failures.extend(compare(&name, &skip, &reference));
            }
        }
        assert!(
            failures.is_empty(),
            "distribution gate failed:\n{}",
            failures.join("\n")
        );
    }

    proptest! {
        #[test]
        fn hostile_inputs_never_panic_and_err_like_the_reference(
            seed in any::<u64>(),
            raw in proptest::collection::vec(-60.0f64..60.0, 1..40),
            eps_pick in 0usize..8,
            c_pick in 0usize..4,
            t_pick in 0usize..6,
            finite_t in -80.0f64..80.0,
        ) {
            // ROADMAP 5(c) on the skip-ahead entry point: extreme ε, c
            // at and past the list length and non-finite or extreme
            // thresholds must never panic. The call errs exactly when the
            // scalar reference errs, a non-finite threshold with
            // `NonFiniteInput`, and an `Ok` run selects at most c
            // distinct in-range items with selected ≤ examined ≤ n.
            let scores: Vec<f64> = raw.iter().map(|x| x.round()).collect();
            let n = scores.len();
            let epsilon = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-300, 1e300, 0.1][eps_pick];
            let c = [0, 1, n, n + 7][c_pick];
            let threshold = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, -f64::MAX, finite_t][t_pick];
            let groups = GroupedSnapshot::from_scores(&scores).unwrap();
            let cfg = SvtSelectConfig::counting(epsilon, c, BudgetRatio::OneToCTwoThirds);
            let mut scratch = RunScratch::new();
            let got = revisited_select_grouped(
                &groups,
                threshold,
                &cfg,
                &mut DpRng::seed_from_u64(seed),
                &mut scratch,
            );
            let mut rng = DpRng::seed_from_u64(seed);
            let opened = cfg
                .to_standard()
                .and_then(|std| SvtRevisited::new(std, &mut rng));
            let opened_ok = opened.is_ok();
            let reference =
                opened.and_then(|mut alg| select_with(&mut alg, &scores, threshold, &mut rng));
            prop_assert_eq!(got.is_ok(), reference.is_ok(), "{:?} vs reference {:?}", got, reference);
            if opened_ok && !threshold.is_finite() {
                prop_assert!(matches!(got, Err(SvtError::NonFiniteInput(_))), "{:?}", got);
            }
            if got.is_ok() {
                let selected = scratch.selected();
                let mut distinct = selected.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert!(selected.len() <= c);
                prop_assert_eq!(distinct.len(), selected.len());
                prop_assert!(distinct.last().is_none_or(|&i| i < n));
                prop_assert!(selected.len() <= scratch.examined() && scratch.examined() <= n);
            }
        }
    }
}
