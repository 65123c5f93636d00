//! The faithful per-query engine: shuffle, stream, compare — exactly
//! the paper's protocol, built directly on `svt-core`'s streaming
//! algorithms.
//!
//! ## One engine, two score sources
//!
//! [`ExactContext`] is generic over where an examined item's score
//! comes from ([`ScoreSource`]):
//!
//! * [`ExactContext::new`] reads the raw slice — what
//!   `SimulationMode::Auto` runs;
//! * [`ExactContext::grouped`] resolves every score through the sweep's
//!   shared [`GroupedSnapshot`] (`position → group → score`, `O(1)`) and
//!   never touches the raw slice — what `SimulationMode::Grouped` runs
//!   as a cross-check.
//!
//! Everything `c`-dependent (threshold, effective size, top-`c`, metric
//! scoring) comes from the dataset's shared [`SweepContext`] rank table,
//! so constructing a context for a new `(algorithm, c)` cell costs
//! `O(c)` — no private sort, no `O(n)` pass.
//!
//! ## Why the two sources emit bit-identical index streams
//!
//! Both instances run the same `svt-core` streaming code over the same
//! lazily shuffled traversal ([`SparseOrder`]), and a score group stores
//! the `==`-equal value of every member's raw score, so each comparison
//! `q + ν ≥ T + ρ` branches identically under either resolution. Same
//! draws, same branches ⇒ the identical index stream for the same
//! `(cell seed, run index)`, for every algorithm (EM and SVT-Revisited
//! read the grouped runs under either source). Because the two sources
//! derive each score through independent data paths (raw slice vs
//! sort-derived runs plus the inverse rank table), a single differing
//! selection anywhere in a sweep fails the runner's equality tests
//! loudly instead of hiding inside statistical tolerance.
//!
//! [`SparseOrder`]: svt_core::SparseOrder

use crate::simulate::{retraversal_config, RunOutcome, SweepContext};
use crate::spec::AlgorithmSpec;
use dp_data::{GroupedSnapshot, RankCut, ScoreVector};
use dp_mechanisms::DpRng;
use svt_core::alg::{Alg2, ExpNoiseSvt, SvtRevisited};
use svt_core::em_select::EmTopC;
use svt_core::noninteractive::{dpbook_select, select_with, svt_select, SvtSelectConfig};
use svt_core::retraversal::{svt_retraversal, svt_retraversal_from};
use svt_core::skip_ahead::revisited_select_grouped;
use svt_core::streaming::{
    exp_noise_select_from, select_streaming_from, svt_select_from, RunScratch, ScoreSource,
};
use svt_core::Result;

/// Precomputed per-`(dataset, c)` state for the exact engine, reading
/// scores from `S` (the raw slice by default).
///
/// Borrows the score source and the dataset's sweep-shared
/// [`SweepContext`] instead of cloning or re-deriving anything —
/// building a context for a new `(algorithm, c)` cell over AOL's
/// 2,290,685 items resolves the cutoff against the shared rank table
/// (`O(1)`) and copies the `c`-long top prefix, so one prepared dataset
/// serves every cell of a sweep with exactly one score sort among them.
#[derive(Debug)]
pub struct ExactContext<'a, S: ScoreSource + ?Sized = [f64]> {
    scores: &'a S,
    sweep: &'a SweepContext,
    cut: RankCut,
    true_top: Vec<usize>,
    c: usize,
}

impl<'a> ExactContext<'a> {
    /// Builds the context over the raw score slice: cutoff resolution
    /// and the §6 threshold come from `sweep`'s shared rank table (the
    /// average of the `c`-th and `(c+1)`-th highest scores), the exact
    /// top-`c` from its shared sorted order.
    pub fn new(scores: &'a ScoreVector, sweep: &'a SweepContext, c: usize) -> Self {
        debug_assert_eq!(scores.len(), sweep.len_items(), "context/dataset mismatch");
        Self::with_source(scores.as_slice(), sweep, c)
    }

    /// Executes one run of `alg` through the scalar reference path
    /// (fresh allocations, eager full shuffle, per-draw noise) and
    /// returns its metrics.
    ///
    /// Kept as the baseline the batched pipeline is benchmarked and
    /// distribution-tested against; the sweep runner uses
    /// [`run_once_into`](Self::run_once_into).
    ///
    /// # Errors
    /// Propagates configuration validation from the algorithm wrappers.
    pub fn run_once(
        &self,
        alg: &AlgorithmSpec,
        epsilon: f64,
        rng: &mut DpRng,
    ) -> Result<RunOutcome> {
        let threshold = self.cut.threshold;
        let selected = match alg {
            AlgorithmSpec::DpBook => {
                dpbook_select(self.scores, threshold, epsilon, self.c, 1.0, rng)?
            }
            AlgorithmSpec::Standard { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio);
                svt_select(self.scores, threshold, &cfg, rng)?
            }
            AlgorithmSpec::Retraversal { ratio, increment_d } => {
                let cfg = retraversal_config(epsilon, self.c, *ratio, *increment_d);
                svt_retraversal(self.scores, threshold, &cfg, rng)?.selected
            }
            AlgorithmSpec::Em => {
                EmTopC::new(epsilon, self.c, 1.0, true)?.select(self.scores, rng)?
            }
            AlgorithmSpec::Revisited { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio).to_standard()?;
                let mut alg = SvtRevisited::new(cfg, rng)?;
                select_with(&mut alg, self.scores, threshold, rng)?
            }
            AlgorithmSpec::ExpNoise { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio).to_standard()?;
                let mut alg = ExpNoiseSvt::new(cfg, rng)?;
                select_with(&mut alg, self.scores, threshold, rng)?
            }
        };
        Ok(self.outcome(&selected))
    }
}

impl<'a> ExactContext<'a, GroupedSnapshot> {
    /// Builds the context over `sweep`'s shared grouped runs: every
    /// examined item's score is resolved through the snapshot, never the
    /// raw slice, and the selections are bit-identical to
    /// [`ExactContext::new`]'s from the same generator state.
    pub fn grouped(sweep: &'a SweepContext, c: usize) -> Self {
        Self::with_source(sweep.groups(), sweep, c)
    }
}

impl<'a, S: ScoreSource + ?Sized> ExactContext<'a, S> {
    fn with_source(scores: &'a S, sweep: &'a SweepContext, c: usize) -> Self {
        Self {
            scores,
            cut: sweep.cut(c),
            true_top: sweep.true_top(c).iter().map(|&i| i as usize).collect(),
            sweep,
            c,
        }
    }

    /// The threshold in force.
    pub fn threshold(&self) -> f64 {
        self.cut.threshold
    }

    /// Sum of the true top-`c` scores.
    pub fn top_sum(&self) -> f64 {
        self.cut.top_sum
    }

    /// The exact top-`c` indices (decreasing score, ties by smaller
    /// index — a copy of the shared order's prefix).
    pub fn true_top(&self) -> &[usize] {
        &self.true_top
    }

    fn outcome(&self, selected: &[usize]) -> RunOutcome {
        self.sweep.outcome(&self.cut, selected)
    }

    /// Executes one run of `alg` through the zero-copy streaming path:
    /// SVT-S, SVT-Exp and SVT-ReTr run `svt-core`'s one pipelined
    /// fixed-`ρ` walk (sparse lazy Fisher–Yates up to the abort point,
    /// reusable `scratch` buffers, block-batched query noise);
    /// SVT-DPBook walks items through [`select_streaming_from`]; EM (lazy
    /// per-group Gumbel order statistics, [`EmTopC::select_grouped_into`])
    /// and SVT-Revisited (per-group skip-ahead,
    /// [`revisited_select_grouped`]) read the sweep-shared grouped runs
    /// and never pay one draw per item.
    ///
    /// Samples the same output distribution as
    /// [`run_once`](ExactContext::run_once); the SVT
    /// outputs are bit-identical for every noise batch size and for
    /// either score source.
    ///
    /// # Errors
    /// Propagates configuration validation from the algorithm wrappers.
    pub fn run_once_into(
        &self,
        alg: &AlgorithmSpec,
        epsilon: f64,
        rng: &mut DpRng,
        scratch: &mut RunScratch,
    ) -> Result<RunOutcome> {
        let threshold = self.cut.threshold;
        match alg {
            AlgorithmSpec::DpBook => {
                let mut alg2 = Alg2::new(epsilon, 1.0, self.c, rng)?;
                select_streaming_from(&mut alg2, self.scores, threshold, rng, scratch)?;
            }
            AlgorithmSpec::Standard { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio);
                svt_select_from(self.scores, threshold, &cfg, rng, scratch)?;
            }
            AlgorithmSpec::Retraversal { ratio, increment_d } => {
                let cfg = retraversal_config(epsilon, self.c, *ratio, *increment_d);
                svt_retraversal_from(self.scores, threshold, &cfg, rng, scratch)?;
            }
            AlgorithmSpec::Em => {
                EmTopC::new(epsilon, self.c, 1.0, true)?.select_grouped_into(
                    self.sweep.groups(),
                    rng,
                    scratch,
                )?;
            }
            AlgorithmSpec::Revisited { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio);
                revisited_select_grouped(self.sweep.groups(), threshold, &cfg, rng, scratch)?;
            }
            AlgorithmSpec::ExpNoise { ratio } => {
                let cfg = SvtSelectConfig::counting(epsilon, self.c, *ratio);
                exp_noise_select_from(self.scores, threshold, &cfg, rng, scratch)?;
            }
        }
        Ok(self.outcome(scratch.selected()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_core::allocation::BudgetRatio;

    fn toy_scores() -> ScoreVector {
        // 40 items: 5 clear winners, a middle band, and a tail.
        let mut v = vec![];
        for i in 0..40u32 {
            v.push(match i {
                0..=4 => 1000.0 - i as f64,
                5..=14 => 200.0 - i as f64,
                _ => 10.0,
            });
        }
        ScoreVector::new(v).unwrap()
    }

    #[test]
    fn context_precomputes_paper_threshold() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        // 5th highest = 996, 6th = 195 → threshold 595.5.
        assert!((ctx.threshold() - 595.5).abs() < 1e-9);
        assert_eq!(ctx.true_top(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn streaming_path_matches_scalar_path_in_distribution() {
        // `run_once_into` is a lazier sampler of the same distribution
        // as `run_once`: mean SER over many runs must agree.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let algs = [
            AlgorithmSpec::DpBook,
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            AlgorithmSpec::Retraversal {
                ratio: BudgetRatio::OneToCTwoThirds,
                increment_d: 2.0,
            },
            AlgorithmSpec::Em,
            AlgorithmSpec::Revisited {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            AlgorithmSpec::ExpNoise {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
        ];
        let runs = 400;
        let mut scratch = svt_core::streaming::RunScratch::new();
        for alg in &algs {
            let mut rng_a = DpRng::seed_from_u64(12345);
            let mut rng_b = DpRng::seed_from_u64(54321);
            let (mut new_ser, mut old_ser) = (0.0, 0.0);
            for _ in 0..runs {
                new_ser += ctx
                    .run_once_into(alg, 0.5, &mut rng_a, &mut scratch)
                    .unwrap()
                    .ser;
                old_ser += ctx.run_once(alg, 0.5, &mut rng_b).unwrap().ser;
            }
            let diff = (new_ser - old_ser).abs() / runs as f64;
            assert!(diff < 0.06, "{alg:?}: mean SER differs by {diff}");
        }
    }

    #[test]
    fn streaming_path_is_noise_batch_size_invariant() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let alg = AlgorithmSpec::Standard {
            ratio: BudgetRatio::OneToCTwoThirds,
        };
        let reference: Vec<RunOutcome> = {
            let mut rng = DpRng::seed_from_u64(777);
            let mut scratch = svt_core::streaming::RunScratch::with_noise_batch(1);
            (0..50)
                .map(|_| {
                    ctx.run_once_into(&alg, 0.5, &mut rng, &mut scratch)
                        .unwrap()
                })
                .collect()
        };
        for batch in [4usize, 256, 2048] {
            let mut rng = DpRng::seed_from_u64(777);
            let mut scratch = svt_core::streaming::RunScratch::with_noise_batch(batch);
            let got: Vec<RunOutcome> = (0..50)
                .map(|_| {
                    ctx.run_once_into(&alg, 0.5, &mut rng, &mut scratch)
                        .unwrap()
                })
                .collect();
            assert_eq!(got, reference, "batch {batch}");
        }
    }

    #[test]
    fn em_grouped_exact_path_matches_per_item_path_distribution() {
        // The default EM route (lazy per-group order statistics) and
        // the scalar reference (literal peeling, which weighs every
        // item in every round) sample the same distribution: mean SER
        // and FNR over many runs must agree.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let runs = 3000;
        let mut scratch = RunScratch::new();
        let mut rng_a = DpRng::seed_from_u64(881);
        let mut rng_b = DpRng::seed_from_u64(883);
        let (mut gs, mut gf, mut ps, mut pf) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..runs {
            let g = ctx
                .run_once_into(&AlgorithmSpec::Em, 0.5, &mut rng_a, &mut scratch)
                .unwrap();
            gs += g.ser;
            gf += g.fnr;
            let p = ctx.run_once(&AlgorithmSpec::Em, 0.5, &mut rng_b).unwrap();
            ps += p.ser;
            pf += p.fnr;
        }
        let n = runs as f64;
        assert!(
            (gs / n - ps / n).abs() < 0.02,
            "SER grouped {} vs peeling {}",
            gs / n,
            ps / n
        );
        assert!(
            (gf / n - pf / n).abs() < 0.02,
            "FNR grouped {} vs peeling {}",
            gf / n,
            pf / n
        );
    }

    #[test]
    fn all_algorithms_produce_metrics_in_range() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let mut rng = DpRng::seed_from_u64(683);
        let algs = [
            AlgorithmSpec::DpBook,
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            AlgorithmSpec::Retraversal {
                ratio: BudgetRatio::OneToCTwoThirds,
                increment_d: 2.0,
            },
            AlgorithmSpec::Em,
            AlgorithmSpec::Revisited {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            AlgorithmSpec::ExpNoise {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
        ];
        for alg in &algs {
            for _ in 0..5 {
                let out = ctx.run_once(alg, 0.5, &mut rng).unwrap();
                assert!((0.0..=1.0).contains(&out.fnr), "{alg:?} fnr {}", out.fnr);
                assert!((0.0..=1.0).contains(&out.ser), "{alg:?} ser {}", out.ser);
            }
        }
    }

    #[test]
    fn generous_budget_drives_errors_to_zero() {
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let mut rng = DpRng::seed_from_u64(691);
        for alg in [
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToOne,
            },
            AlgorithmSpec::Em,
        ] {
            let out = ctx.run_once(&alg, 500.0, &mut rng).unwrap();
            assert_eq!(out.fnr, 0.0, "{alg:?}");
            assert_eq!(out.ser, 0.0, "{alg:?}");
        }
    }

    #[test]
    fn tiny_budget_gives_large_errors_for_svt() {
        // ε = 0.001 at c = 5 on 40 items: noise scale swamps the score
        // separation; on average SER should be substantial.
        let scores = toy_scores();
        let sweep = SweepContext::new(&scores);
        let ctx = ExactContext::new(&scores, &sweep, 5);
        let mut rng = DpRng::seed_from_u64(701);
        let alg = AlgorithmSpec::Standard {
            ratio: BudgetRatio::OneToOne,
        };
        let mean_ser: f64 = (0..200)
            .map(|_| ctx.run_once(&alg, 0.001, &mut rng).unwrap().ser)
            .sum::<f64>()
            / 200.0;
        assert!(mean_ser > 0.3, "mean SER {mean_ser}");
    }

    /// The grouped score source ([`ExactContext::grouped`]) on a
    /// heavily tied workload.
    mod grouped {
        use super::*;

        fn toy_scores() -> ScoreVector {
            let mut v = vec![];
            for i in 0..60u32 {
                v.push(match i {
                    0..=4 => 1000.0,
                    5..=14 => 200.0,
                    _ => 10.0,
                });
            }
            ScoreVector::new(v).unwrap()
        }

        fn all_algorithms() -> Vec<AlgorithmSpec> {
            vec![
                AlgorithmSpec::DpBook,
                AlgorithmSpec::Standard {
                    ratio: BudgetRatio::OneToOne,
                },
                AlgorithmSpec::Standard {
                    ratio: BudgetRatio::OneToCTwoThirds,
                },
                AlgorithmSpec::Retraversal {
                    ratio: BudgetRatio::OneToCTwoThirds,
                    increment_d: 2.0,
                },
                AlgorithmSpec::Em,
                AlgorithmSpec::Revisited {
                    ratio: BudgetRatio::OneToCTwoThirds,
                },
                AlgorithmSpec::ExpNoise {
                    ratio: BudgetRatio::OneToCTwoThirds,
                },
            ]
        }

        #[test]
        fn context_resolves_cutoff_from_the_shared_rank_table() {
            let scores = toy_scores();
            let sweep = SweepContext::new(&scores);
            let ctx = ExactContext::grouped(&sweep, 8);
            // top_sum = 5·1000 + 3·200.
            assert!((ctx.top_sum() - 5600.0).abs() < 1e-9);
            // threshold: 8th and 9th highest are both 200.
            assert!((ctx.threshold() - 200.0).abs() < 1e-9);
            // Straddling cut: 5th highest = 1000, 6th = 200 → 600.
            let ctx = ExactContext::grouped(&sweep, 5);
            assert!((ctx.threshold() - 600.0).abs() < 1e-9);
        }

        #[test]
        fn every_algorithm_is_bit_identical_to_the_exact_engine() {
            // The contract at the context level: for every algorithm
            // the grouped source emits the identical index stream and
            // identical metrics as the slice from the same generator
            // state, run after run on a shared scratch.
            let scores = toy_scores();
            let sweep = SweepContext::new(&scores);
            for c in [1usize, 5, 8, 30, 60] {
                let exact = ExactContext::new(&scores, &sweep, c);
                let grouped = ExactContext::grouped(&sweep, c);
                for alg in &all_algorithms() {
                    let mut rng_e = DpRng::seed_from_u64(4051 + c as u64);
                    let mut rng_g = DpRng::seed_from_u64(4051 + c as u64);
                    let mut scratch_e = RunScratch::new();
                    let mut scratch_g = RunScratch::new();
                    for run in 0..25 {
                        let e = exact
                            .run_once_into(alg, 0.3, &mut rng_e, &mut scratch_e)
                            .unwrap();
                        let g = grouped
                            .run_once_into(alg, 0.3, &mut rng_g, &mut scratch_g)
                            .unwrap();
                        assert_eq!(
                            scratch_e.selected(),
                            scratch_g.selected(),
                            "{alg:?} c={c} run={run}: index streams diverged"
                        );
                        assert_eq!(e, g, "{alg:?} c={c} run={run}: outcomes diverged");
                    }
                    // Identical randomness consumed throughout: lockstep.
                    assert_eq!(rng_e.next_u64(), rng_g.next_u64(), "{alg:?} c={c}");
                }
            }
        }

        #[test]
        fn dpbook_is_now_supported() {
            // SVT-DPBook's per-⊤ threshold refresh is handled by the
            // item-at-a-time traversal like any other variant.
            let scores = toy_scores();
            let sweep = SweepContext::new(&scores);
            let ctx = ExactContext::grouped(&sweep, 5);
            let mut rng = DpRng::seed_from_u64(709);
            let mut scratch = RunScratch::new();
            let out = ctx
                .run_once_into(&AlgorithmSpec::DpBook, 0.1, &mut rng, &mut scratch)
                .unwrap();
            assert!((0.0..=1.0).contains(&out.ser));
            assert!((0.0..=1.0).contains(&out.fnr));
        }

        #[test]
        fn generous_budget_gives_zero_error() {
            let scores = toy_scores();
            let sweep = SweepContext::new(&scores);
            let ctx = ExactContext::grouped(&sweep, 5);
            let mut rng = DpRng::seed_from_u64(719);
            let mut scratch = RunScratch::new();
            for alg in [
                AlgorithmSpec::Standard {
                    ratio: BudgetRatio::OneToOne,
                },
                AlgorithmSpec::Em,
            ] {
                let out = ctx
                    .run_once_into(&alg, 500.0, &mut rng, &mut scratch)
                    .unwrap();
                assert_eq!(out.fnr, 0.0, "{alg:?}");
                assert_eq!(out.ser, 0.0, "{alg:?}");
            }
        }

        #[test]
        fn metrics_stay_in_unit_interval_at_tiny_budget() {
            let scores = toy_scores();
            let sweep = SweepContext::new(&scores);
            let ctx = ExactContext::grouped(&sweep, 10);
            let mut rng = DpRng::seed_from_u64(727);
            let mut scratch = RunScratch::new();
            for alg in all_algorithms() {
                for _ in 0..20 {
                    let out = ctx
                        .run_once_into(&alg, 0.01, &mut rng, &mut scratch)
                        .unwrap();
                    assert!((0.0..=1.0).contains(&out.fnr));
                    assert!((0.0..=1.0).contains(&out.ser));
                }
            }
        }

        #[test]
        fn c_beyond_population_is_clamped() {
            let scores = toy_scores();
            let sweep = SweepContext::new(&scores);
            let ctx = ExactContext::grouped(&sweep, 1000);
            let mut rng = DpRng::seed_from_u64(733);
            let mut scratch = RunScratch::new();
            let out = ctx
                .run_once_into(&AlgorithmSpec::Em, 500.0, &mut rng, &mut scratch)
                .unwrap();
            assert_eq!(scratch.selected().len(), 60);
            assert_eq!(out.fnr, 0.0);
        }

        #[test]
        fn scratch_reuse_across_algorithms_is_clean() {
            // The sweep-runner pattern: one scratch, alternating
            // algorithms, must not leak state between runs.
            let scores = toy_scores();
            let sweep = SweepContext::new(&scores);
            let ctx = ExactContext::grouped(&sweep, 8);
            let fresh = |alg: &AlgorithmSpec, seed: u64| {
                let mut rng = DpRng::seed_from_u64(seed);
                let mut scratch = RunScratch::new();
                ctx.run_once_into(alg, 0.4, &mut rng, &mut scratch).unwrap();
                scratch.selected().to_vec()
            };
            let mut shared = RunScratch::new();
            for seed in [11u64, 13, 17] {
                for alg in all_algorithms() {
                    let mut rng = DpRng::seed_from_u64(seed);
                    ctx.run_once_into(&alg, 0.4, &mut rng, &mut shared).unwrap();
                    assert_eq!(
                        shared.selected(),
                        &fresh(&alg, seed)[..],
                        "{alg:?} seed={seed}"
                    );
                }
            }
        }
    }
}
