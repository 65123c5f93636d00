//! Workspace-level property-based tests: cross-crate invariants that
//! must hold for arbitrary configurations.

use proptest::prelude::*;
use sparse_vector::experiments::simulate::exact::ExactContext;
use sparse_vector::experiments::simulate::SweepContext;
use sparse_vector::experiments::spec::AlgorithmSpec;
use sparse_vector::prelude::*;
use sparse_vector::svt::alg::run_svt;
use sparse_vector::svt::allocation;
use sparse_vector::svt::RunScratch;

fn scores_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1e6, 2..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn svt_select_never_exceeds_c_or_duplicates(
        scores in scores_strategy(),
        c in 1usize..20,
        eps in 0.01f64..5.0,
        seed in any::<u64>(),
    ) {
        let mut rng = DpRng::seed_from_u64(seed);
        let cfg = SvtSelectConfig::counting(eps, c, BudgetRatio::OneToCTwoThirds);
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let sel = svt_select(&scores, sv.paper_threshold(c), &cfg, &mut rng).unwrap();
        prop_assert!(sel.len() <= c);
        let mut d = sel.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), sel.len());
        for &i in &sel {
            prop_assert!(i < scores.len());
        }
    }

    #[test]
    fn em_top_c_selects_min_c_n_distinct(
        scores in scores_strategy(),
        c in 1usize..40,
        eps in 0.01f64..5.0,
        seed in any::<u64>(),
    ) {
        let mut rng = DpRng::seed_from_u64(seed);
        let em = EmTopC::new(eps, c, 1.0, true).unwrap();
        let sel = em.select(&scores, &mut rng).unwrap();
        prop_assert_eq!(sel.len(), c.min(scores.len()));
        let mut d = sel.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), sel.len());
    }

    #[test]
    fn retraversal_subsumes_plain_svt_selection_bounds(
        scores in scores_strategy(),
        c in 1usize..10,
        k in 0.0f64..5.0,
        seed in any::<u64>(),
    ) {
        let mut rng = DpRng::seed_from_u64(seed);
        let cfg = RetraversalConfig::paper(1.0, c, k);
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let out = svt_retraversal(&scores, sv.paper_threshold(c), &cfg, &mut rng).unwrap();
        prop_assert!(out.selected.len() <= c);
        prop_assert!(out.passes >= 1 && out.passes <= cfg.max_passes);
        prop_assert!(out.threshold_used >= sv.paper_threshold(c));
        let mut d = out.selected.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), out.selected.len());
    }

    #[test]
    fn optimal_allocation_beats_sampled_alternatives(
        c in 1usize..400,
        monotonic in any::<bool>(),
        frac in 0.01f64..0.99,
    ) {
        let eps = 0.1;
        let r = allocation::optimal_ratio(c, monotonic);
        let e1_star = eps / (1.0 + r);
        let best = allocation::comparison_variance(e1_star, eps - e1_star, c, 1.0, monotonic);
        let e1 = eps * frac;
        let v = allocation::comparison_variance(e1, eps - e1, c, 1.0, monotonic);
        prop_assert!(v >= best * (1.0 - 1e-9));
    }

    #[test]
    fn run_svt_output_length_matches_halt_semantics(
        answers in prop::collection::vec(-100.0f64..100.0, 1..60),
        c in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = DpRng::seed_from_u64(seed);
        let mut alg = Alg1::new(1.0, 1.0, c, &mut rng).unwrap();
        let run = run_svt(&mut alg, &answers, &Thresholds::Constant(0.0), &mut rng).unwrap();
        prop_assert!(run.positives() <= c);
        if run.halted {
            prop_assert_eq!(run.positives(), c);
            // Aborts exactly at the c-th ⊤: the last answer is positive.
            prop_assert!(run.answers.last().unwrap().is_positive());
        } else {
            prop_assert_eq!(run.examined(), answers.len());
        }
    }

    #[test]
    fn threshold_normalization_preserves_comparisons(
        answers in prop::collection::vec(-1e4f64..1e4, 1..50),
        thresholds in prop::collection::vec(-1e4f64..1e4, 50..51),
        seed in any::<u64>(),
    ) {
        // Running with per-query thresholds T must equal running the
        // normalized queries (q - T) against 0, given identical noise.
        let t = Thresholds::PerQuery(thresholds[..answers.len()].to_vec());
        let normalized = t.normalize(&answers).unwrap();
        let mut rng_a = DpRng::seed_from_u64(seed);
        let mut alg_a = Alg1::new(1.0, 1.0, 3, &mut rng_a).unwrap();
        let run_a = run_svt(&mut alg_a, &answers, &t, &mut rng_a).unwrap();
        let mut rng_b = DpRng::seed_from_u64(seed);
        let mut alg_b = Alg1::new(1.0, 1.0, 3, &mut rng_b).unwrap();
        let run_b = run_svt(&mut alg_b, &normalized, &Thresholds::Constant(0.0), &mut rng_b).unwrap();
        prop_assert_eq!(run_a.answers, run_b.answers);
    }

    #[test]
    fn budget_ledger_never_overspends(
        total in 0.1f64..10.0,
        charges in prop::collection::vec(0.001f64..1.0, 0..64),
    ) {
        let mut ledger = BudgetLedger::new(0, total).unwrap();
        for (i, &ch) in charges.iter().enumerate() {
            let _ = ledger.charge(i as u64, &format!("charge-{i}"), ch);
        }
        prop_assert!(ledger.spent() <= total * (1.0 + 1e-9) + 1e-9);
        prop_assert!(ledger.remaining() >= 0.0);
        prop_assert!(ledger.verify_chain().is_ok());
    }

    #[test]
    fn score_vector_top_c_is_sorted_and_maximal(
        scores in scores_strategy(),
        c in 1usize..30,
    ) {
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let top = sv.top_c(c);
        prop_assert_eq!(top.len(), c.min(scores.len()));
        // Decreasing scores.
        for w in top.windows(2) {
            prop_assert!(scores[w[0]] >= scores[w[1]]);
        }
        // Maximality: no outsider strictly beats an insider.
        if let Some(&worst_in) = top.last() {
            for (i, &s) in scores.iter().enumerate() {
                if !top.contains(&i) {
                    prop_assert!(s <= scores[worst_in]);
                }
            }
        }
    }

    #[test]
    fn composition_inverse_is_tight_and_safe(
        eps_milli in 10u32..5_000,
        k in 1usize..2_000,
        delta_exp in 2u32..12,
    ) {
        // For any target, the solved per-instance budget must compose
        // back under the target (safe) and not be improvable by 2%
        // (tight).
        use sparse_vector::mechanisms::composition::{
            best_composition, per_instance_epsilon,
        };
        let target = ApproxDp::new(
            f64::from(eps_milli) / 1000.0,
            10f64.powi(-(delta_exp as i32)),
        ).unwrap();
        let per = per_instance_epsilon(target, k).unwrap();
        let achieved = best_composition(per, k, target.delta).unwrap();
        prop_assert!(achieved <= target.epsilon * (1.0 + 1e-9));
        let bumped = best_composition(per * 1.02, k, target.delta).unwrap();
        prop_assert!(bumped > target.epsilon * (1.0 - 1e-9));
        // Never worse than plain sequential composition.
        prop_assert!(per >= target.epsilon / k as f64 - 1e-15);
    }

    #[test]
    fn geometric_pmf_ratio_never_exceeds_epsilon(
        eps_centi in 1u32..400,
        k in -40i64..40,
    ) {
        // The DP guarantee of the two-sided geometric mechanism at the
        // mass-function level: shifting the true count by Δ = 1 changes
        // any output's probability by at most e^ε.
        let eps = f64::from(eps_centi) / 100.0;
        let d = TwoSidedGeometric::from_epsilon(eps, 1.0).unwrap();
        let ratio = d.pmf(k) / d.pmf(k + 1);
        prop_assert!(ratio <= eps.exp() * (1.0 + 1e-9));
        prop_assert!(ratio >= (-eps).exp() * (1.0 - 1e-9));
    }

    #[test]
    fn approx_svt_respects_cutoff_and_answers_shape(
        scores in scores_strategy(),
        c in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = DpRng::seed_from_u64(seed);
        let config = ApproxSvtConfig {
            target: ApproxDp::new(1.0, 1e-6).unwrap(),
            c,
            sensitivity: 1.0,
            ratio: 1.0,
            monotonic: true,
        };
        let mut alg = ApproxSvt::new(config, &mut rng).unwrap();
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let run = run_svt(
            &mut alg,
            &scores,
            &Thresholds::Constant(sv.paper_threshold(c)),
            &mut rng,
        ).unwrap();
        prop_assert!(run.positives() <= c);
        if run.halted {
            prop_assert_eq!(run.positives(), c);
        } else {
            prop_assert_eq!(run.examined(), scores.len());
        }
        // The plan never spends less per copy than plain composition.
        prop_assert!(alg.plan().per_instance_epsilon >= 1.0 / c as f64 - 1e-12);
    }

    #[test]
    fn grid_audit_of_identical_mechanisms_never_convicts(
        p_centi in 1u32..99,
        seed in any::<u64>(),
    ) {
        // Identical Bernoulli mechanisms on both "neighbors": with
        // simultaneous 95% coverage the certified loss must be tiny.
        let p = f64::from(p_centi) / 100.0;
        let mut rng = DpRng::seed_from_u64(seed);
        let grid = audit_output_grid(
            |r: &mut DpRng| r.bernoulli(p),
            |r: &mut DpRng| r.bernoulli(p),
            4_000,
            0.95,
            &mut rng,
        );
        prop_assert!(
            grid.epsilon_lower_bound() < 0.5,
            "certified {} on identical mechanisms",
            grid.epsilon_lower_bound()
        );
    }

    #[test]
    fn hostile_scores_err_or_give_finite_cuts(
        picks in prop::collection::vec(0usize..12, 0..40),
        c in 0usize..48,
        seed in any::<u64>(),
    ) {
        // Extreme magnitudes (±f64::MAX, whose mass overflows once two
        // meet), non-finite entries and signed zeros. Every constructor
        // returns Err or a value whose cut is finite; a grouped run
        // returns Err or finite metrics, and nothing panics.
        const POOL: [f64; 12] = [
            f64::MAX, -f64::MAX, 1e308, -1e308, f64::NAN, f64::INFINITY,
            f64::NEG_INFINITY, 0.0, -0.0, 1.0, 7.0, f64::MIN_POSITIVE,
        ];
        let v: Vec<f64> = picks.iter().map(|&i| POOL[i]).collect();
        let grouped = GroupedSnapshot::from_scores(&v);
        let sv = match ScoreVector::new(v.clone()) {
            Ok(sv) => sv,
            Err(_) => {
                prop_assert!(grouped.is_err(), "the two constructors must agree on {:?}", v);
                continue;
            }
        };
        let cut = grouped.unwrap().rank_cut(c);
        prop_assert!(cut.threshold.is_finite() && cut.top_sum.is_finite(), "{:?}: {:?}", v, cut);
        let sweep = SweepContext::new(&sv);
        let ctx = ExactContext::grouped(&sweep, c);
        prop_assert!(ctx.threshold().is_finite() && ctx.top_sum().is_finite());
        let ratio = BudgetRatio::OneToCTwoThirds;
        let algs = AlgorithmSpec::figure4_lineup()
            .into_iter()
            .chain(AlgorithmSpec::figure5_lineup())
            .chain([AlgorithmSpec::Revisited { ratio }, AlgorithmSpec::ExpNoise { ratio }]);
        let mut scratch = RunScratch::new();
        for alg in algs {
            let mut rng = DpRng::seed_from_u64(seed);
            if let Ok(out) = ctx.run_once_into(&alg, 0.5, &mut rng, &mut scratch) {
                prop_assert!(out.ser.is_finite() && out.fnr.is_finite(), "{:?} on {:?}", alg, v);
            }
        }
    }
}
