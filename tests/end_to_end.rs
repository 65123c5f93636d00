//! End-to-end pipeline tests: dataset generation → private selection →
//! utility metrics, across crates through the facade API.

use sparse_vector::experiments::{false_negative_rate, score_error_rate};
use sparse_vector::prelude::*;

#[test]
fn zipf_workload_em_selection_pipeline() {
    let scores = DatasetSpec::zipf().scores();
    assert_eq!(scores.len(), 10_000);
    let c = 25;
    let true_top = scores.top_c(c);
    let mut rng = DpRng::seed_from_u64(811);
    let em = EmTopC::new(0.1, c, 1.0, true).unwrap();
    let selected = em.select(scores.as_slice(), &mut rng).unwrap();
    assert_eq!(selected.len(), c);
    let fnr = false_negative_rate(&selected, &true_top);
    let ser = score_error_rate(&selected, &true_top, scores.as_slice());
    // At c = 25 on Zipf the paper's Figure 5 shows EM nearly perfect;
    // allow generous slack for a single run.
    assert!(fnr < 0.5, "fnr {fnr}");
    assert!(ser < 0.3, "ser {ser}");
}

#[test]
fn transaction_dataset_round_trip_through_svt() {
    // supports → transactions → supports → SVT selection.
    let mut rng = DpRng::seed_from_u64(821);
    let targets: Vec<u64> = (1..=100u64).map(|r| 600 / r).collect();
    let data = TransactionDataset::from_target_supports(&targets, 700, &mut rng);
    let scores = data.score_vector().unwrap();
    assert_eq!(scores.as_slice()[0], 600.0);
    let c = 10;
    let cfg = SvtSelectConfig::counting(2.0, c, BudgetRatio::OneToCTwoThirds);
    let threshold = scores.paper_threshold(c);
    let selected = svt_select(scores.as_slice(), threshold, &cfg, &mut rng).unwrap();
    assert!(selected.len() <= c);
    for &i in &selected {
        assert!(i < 100);
    }
}

#[test]
fn all_four_datasets_generate_with_table1_shapes() {
    for spec in DatasetSpec::all() {
        let scores = spec.scores();
        assert_eq!(scores.len(), spec.n_items, "{}", spec.name);
        assert!(scores.max() <= spec.n_records as f64, "{}", spec.name);
        // Non-increasing by construction (rank order).
        let s = scores.as_slice();
        assert!(
            s.windows(2).all(|w| w[0] >= w[1]),
            "{} not rank-ordered",
            spec.name
        );
    }
}

#[test]
fn interactive_session_budget_is_paid_once() {
    let mut rng = DpRng::seed_from_u64(823);
    let config = StandardSvtConfig {
        budget: SvtBudget::halves(0.6).unwrap(),
        sensitivity: 1.0,
        c: 2,
        monotonic: true,
    };
    let mut ledger = BudgetLedger::new(0, 1.0).unwrap();
    let mut session = SessionDriver::open(config, &mut rng).unwrap();
    ledger.charge(0, "svt", config.budget.total()).unwrap();
    // 500 below-threshold queries are free.
    for _ in 0..500 {
        let a = session.ask(-1e6, 0.0).unwrap();
        assert_eq!(a, SvtAnswer::Below);
    }
    assert_eq!(session.queries_asked(), 500);
    assert_eq!(ledger.receipts().len(), 1);
    assert!((ledger.remaining() - 0.4).abs() < 1e-9);
}

#[test]
fn run_svt_full_stream_over_variants() {
    // All six variants process the same stream through the same trait.
    let mut rng = DpRng::seed_from_u64(827);
    let answers: Vec<f64> = (0..30)
        .map(|i| if i % 7 == 0 { 50.0 } else { -50.0 })
        .collect();
    let thresholds = Thresholds::Constant(0.0);

    let mut variants: Vec<Box<dyn sparse_vector::svt::alg::SparseVector>> = vec![
        Box::new(Alg1::new(5.0, 1.0, 3, &mut rng).unwrap()),
        Box::new(Alg2::new(5.0, 1.0, 3, &mut rng).unwrap()),
        Box::new(Alg3::new(5.0, 1.0, 3, &mut rng).unwrap()),
        Box::new(Alg4::new(5.0, 1.0, 3, &mut rng).unwrap()),
        Box::new(Alg5::new(5.0, 1.0, &mut rng).unwrap()),
        Box::new(Alg6::new(5.0, 1.0, &mut rng).unwrap()),
    ];
    for variant in &mut variants {
        let run =
            sparse_vector::svt::alg::run_svt(variant.as_mut(), &answers, &thresholds, &mut rng)
                .unwrap();
        assert!(run.examined() <= 30);
        assert!(run.positives() <= run.examined());
        // Bounded variants never exceed c = 3 positives.
        if !matches!(
            variant.name(),
            "Alg. 5 (Stoddard+ '14)" | "Alg. 6 (Chen+ '15)"
        ) {
            assert!(run.positives() <= 3, "{}", variant.name());
        }
    }
}

#[test]
fn facade_prelude_compiles_the_doc_example() {
    // Mirrors the lib.rs doc example to keep it honest.
    let scores = DatasetSpec::zipf().scores();
    let mut rng = DpRng::seed_from_u64(7);
    let em = EmTopC::new(0.1, 20, 1.0, true).unwrap();
    let selected = em.select(scores.as_slice(), &mut rng).unwrap();
    assert_eq!(selected.len(), 20);
    let cfg = SvtSelectConfig::counting(0.1, 20, BudgetRatio::OneToCTwoThirds);
    let threshold = scores.paper_threshold(20);
    let svt_selected = svt_select(scores.as_slice(), threshold, &cfg, &mut rng).unwrap();
    assert!(svt_selected.len() <= 20);
}
