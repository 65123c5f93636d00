//! Facade coverage: every `prelude` re-export in `src/lib.rs` must
//! resolve, and the crate-level Quickstart path must run end-to-end
//! under a fixed seed.
//!
//! This test exists so that a future rename in a workspace crate cannot
//! silently break the public API: the facade's `prelude` is the contract
//! downstream users compile against.

use sparse_vector::prelude::*;

/// Touches every type and function the prelude re-exports. Type aliases
/// are enough for compile-time resolution; a handful are also exercised
/// at runtime below.
#[test]
fn every_prelude_reexport_resolves() {
    // dp_auditor: generic functions, exercised with tiny audits.
    let mut audit_rng = DpRng::seed_from_u64(11);
    let ratio: RatioAudit = audit_event(
        |r: &mut DpRng| r.bernoulli(0.5),
        |r: &mut DpRng| r.bernoulli(0.5),
        200,
        0.95,
        &mut audit_rng,
    );
    assert!(ratio.epsilon_lower_bound() >= 0.0);
    let grid: GridAudit<bool> = audit_output_grid(
        |r: &mut DpRng| r.bernoulli(0.5),
        |r: &mut DpRng| r.bernoulli(0.5),
        200,
        0.95,
        &mut audit_rng,
    );
    assert!(grid.epsilon_lower_bound() >= 0.0);

    // dp_data.
    let _: Option<DatasetSpec> = None;
    let _: Option<ScoreVector> = None;
    let _: Option<TransactionDataset> = None;

    // dp_mechanisms.
    let _: Option<ApproxDp> = None;
    let _: Option<BudgetLedger> = None;
    let _: Option<DpRng> = None;
    let _: Option<ExponentialMechanism> = None;
    let _: Option<Laplace> = None;
    let _: Option<SvtBudget> = None;
    let _: Option<TwoSidedGeometric> = None;
    let mut rng = DpRng::seed_from_u64(1);
    let released = geometric_mechanism(10, 1.0, 1.0, &mut rng).unwrap();
    assert!(released > i64::MIN && released < i64::MAX);

    // svt_core::alg.
    let _: Option<StandardSvt> = None;
    let _: Option<StandardSvtConfig> = None;
    let _: Option<Box<dyn SparseVector>> = None;

    // svt_core flat re-exports.
    let _: Option<Alg1> = None;
    let _: Option<Alg2> = None;
    let _: Option<Alg3> = None;
    let _: Option<Alg4> = None;
    let _: Option<Alg5> = None;
    let _: Option<Alg6> = None;
    let _: Option<SvtAnswer> = None;
    let _: Option<Thresholds> = None;
    let _: Option<BudgetRatio> = None;
    let _: Option<ApproxSvt> = None;
    let _: Option<ApproxSvtConfig> = None;
    let _: Option<ApproxSvtPlan> = None;
    let _: Option<EmTopC> = None;
    let _: Option<HistoryMediator> = None;
    let _: Option<SessionDriver> = None;
    let _: Option<SvtSelectConfig> = None;
    let _: Option<RetraversalConfig> = None;
}

/// `run_svt`, `svt_select`, `dpbook_select`, and `svt_retraversal` are
/// function re-exports; bind them so renames fail to compile.
#[test]
fn function_reexports_resolve_and_run() {
    let mut rng = DpRng::seed_from_u64(2);
    let scores: Vec<f64> = (1..=50u64).map(|r| 1000.0 / r as f64).collect();
    let sv = ScoreVector::new(scores.clone()).unwrap();
    let threshold = sv.paper_threshold(5);

    let cfg = SvtSelectConfig::counting(1.0, 5, BudgetRatio::OneToCTwoThirds);
    let selected = svt_select(&scores, threshold, &cfg, &mut rng).unwrap();
    assert!(selected.len() <= 5);

    let dpb = dpbook_select(&scores, threshold, 1.0, 5, 1.0, &mut rng).unwrap();
    assert!(dpb.len() <= 5);

    let rcfg = RetraversalConfig::paper(1.0, 5, 1.0);
    let rt = svt_retraversal(&scores, threshold, &rcfg, &mut rng).unwrap();
    assert!(rt.selected.len() <= 5);

    let mut alg = Alg1::new(1.0, 1.0, 3, &mut rng).unwrap();
    let run = run_svt(
        &mut alg,
        &scores,
        &Thresholds::Constant(threshold),
        &mut rng,
    )
    .unwrap();
    assert!(run.positives() <= 3);
}

/// A caller's `c` far above `n` sizes no allocation: `svt_retraversal`
/// returns at most `n` picks, where reserving `c` of them up front
/// aborted the whole test process at `c = 2^40`.
#[test]
fn retraversal_with_a_huge_c_returns_at_most_n_picks() {
    let scores = [3.0, 1.0, 2.0];
    for c in [scores.len() + 1, 1 << 40, usize::MAX] {
        let mut rng = DpRng::seed_from_u64(5);
        let rcfg = RetraversalConfig::paper(0.1, c, 3.0);
        let rt = svt_retraversal(&scores, 0.0, &rcfg, &mut rng).unwrap();
        assert!(rt.selected.len() <= scores.len(), "c = {c}");
    }
}

/// The crate-level Quickstart doctest, replayed as an integration test
/// under a fixed seed with its results pinned down further.
#[test]
fn quickstart_path_runs_end_to_end() {
    let scores = DatasetSpec::zipf().scores();
    let mut rng = DpRng::seed_from_u64(7);

    let em = EmTopC::new(0.1, 20, 1.0, true).unwrap();
    let selected = em.select(scores.as_slice(), &mut rng).unwrap();
    assert_eq!(selected.len(), 20);
    let mut dedup = selected.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), 20, "EM top-c selections must be distinct");

    let cfg = SvtSelectConfig::counting(0.1, 20, BudgetRatio::OneToCTwoThirds);
    let threshold = scores.paper_threshold(20);
    let svt_selected = svt_select(scores.as_slice(), threshold, &cfg, &mut rng).unwrap();
    assert!(svt_selected.len() <= 20);
    for &i in &svt_selected {
        assert!(i < scores.len());
    }
}

/// Identical seeds must reproduce the quickstart selection exactly —
/// the reproducibility contract the experiment harness relies on.
#[test]
fn quickstart_is_deterministic_under_fixed_seed() {
    let run = || {
        let scores = DatasetSpec::zipf().scores();
        let mut rng = DpRng::seed_from_u64(7);
        let em = EmTopC::new(0.1, 20, 1.0, true).unwrap();
        em.select(scores.as_slice(), &mut rng).unwrap()
    };
    assert_eq!(run(), run());
}

/// The module re-exports (`sparse_vector::{mechanisms, data, svt,
/// auditor, experiments}`) resolve as paths.
#[test]
fn module_reexports_resolve() {
    let _ = sparse_vector::mechanisms::Laplace::new(1.0).unwrap();
    let _ = sparse_vector::data::DatasetSpec::zipf();
    let _ = sparse_vector::svt::allocation::optimal_ratio(20, true);
    let _ = sparse_vector::auditor::estimate::BernoulliEstimate::from_counts(5, 10, 0.95);
    let _ = sparse_vector::experiments::spec::ExperimentConfig::quick();
}
