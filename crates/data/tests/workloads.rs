//! Integration tests for the workload substrate: Table-1 calibration
//! invariants, FIMI round trips on generated data, and property tests
//! on the `ScoreVector` conventions every experiment depends on.

use dp_data::{io, DataError, DatasetSpec, ScoreVector, TransactionDataset};
use dp_mechanisms::DpRng;
use proptest::prelude::*;

#[test]
fn every_workload_decays_monotonically_by_rank() {
    // The algorithms' behavior is driven by the score distribution's
    // shape; at minimum every generator must be non-increasing in rank.
    for spec in DatasetSpec::all() {
        let s = spec.supports();
        for w in s.windows(2).take(5_000) {
            assert!(w[0] >= w[1], "{} is not rank-sorted", spec.name);
        }
    }
}

#[test]
fn workload_totals_approximate_calibration_targets() {
    // Total occurrences ≈ records × (items per record) for each
    // stand-in (README, "Regenerating the paper's tables and figures").
    // Generous ±50% envelopes — this pins the
    // order of magnitude, which is what drives experiment behavior.
    let totals: Vec<(String, f64)> = DatasetSpec::all()
        .into_iter()
        .map(|spec| {
            let total: u64 = spec.supports().iter().sum();
            (spec.name.to_owned(), total as f64)
        })
        .collect();
    let expect = [
        ("BMS-POS", 3.7e6),
        ("Kosarak", 3.3e6), // Figure-3 slope calibration (s = 1.15)
        ("AOL", 2.8e6),     // ≈4.3 keyword occurrences per record
        ("Zipf", 1.0e6),
    ];
    for ((name, total), (want_name, want)) in totals.iter().zip(expect) {
        assert_eq!(name, want_name);
        assert!(
            *total > want * 0.5 && *total < want * 2.0,
            "{name}: total {total:.2e} vs calibration {want:.2e}"
        );
    }
}

#[test]
fn zipf_scores_follow_inverse_rank_exactly() {
    // §6: "the i'th query has a score proportional to 1/i".
    let s = DatasetSpec::zipf().supports();
    let head = s[0] as f64;
    for (i, &v) in s.iter().enumerate().skip(1).step_by(997) {
        let expected = head / (i + 1) as f64;
        assert!(
            (v as f64 - expected).abs() <= 1.0 + expected * 0.01,
            "rank {}: {v} vs {expected}",
            i + 1
        );
    }
}

#[test]
fn paper_thresholds_separate_head_from_tail() {
    // The §6 threshold (avg of c-th and (c+1)-th score) must sit
    // between those two order statistics for every workload and c.
    for spec in DatasetSpec::all() {
        let scores = spec.scores();
        for c in [25usize, 100, 300] {
            let t = scores.paper_threshold(c);
            let at_c = scores.score_at_rank(c).unwrap();
            let next = scores.score_at_rank(c + 1).unwrap();
            assert!(next <= t && t <= at_c, "{}: c={c}", spec.name);
        }
    }
}

#[test]
fn generated_dataset_survives_fimi_roundtrip() {
    // Build transactions realizing the BMS-POS head, write FIMI, read
    // back, verify supports — the full offline→real-data bridge.
    let mut rng = DpRng::seed_from_u64(3001);
    let head: Vec<u64> = DatasetSpec::bms_pos()
        .supports()
        .into_iter()
        .take(40)
        .map(|s| s.min(2_000))
        .collect();
    let data = TransactionDataset::from_target_supports(&head, 2_000, &mut rng);
    let mut buf = Vec::new();
    io::write_transactions(&data, &mut buf).unwrap();
    let reread = io::read_transactions_with_universe(buf.as_slice(), head.len()).unwrap();
    assert_eq!(reread.item_supports(), data.item_supports());
}

#[test]
fn neighbor_datasets_shift_supports_by_at_most_one() {
    // The Δ = 1 sensitivity assumption of every counting-query
    // experiment, exercised through the dataset API.
    let mut rng = DpRng::seed_from_u64(3011);
    let data = TransactionDataset::from_target_supports(&[30, 20, 10, 5], 50, &mut rng);
    let with_extra = data.with_record_added(vec![0, 2]).unwrap();
    let base = data.item_supports();
    let shifted = with_extra.item_supports();
    for (a, b) in base.iter().zip(&shifted) {
        assert!(b.abs_diff(*a) <= 1);
    }
    // And monotone: all changes in the same direction (§4.3).
    assert!(base.iter().zip(&shifted).all(|(a, b)| b >= a));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn top_c_returns_the_c_largest_scores(
        scores in prop::collection::vec(0.0f64..1e9, 1..200),
        c in 1usize..50,
    ) {
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let top = sv.top_c(c);
        prop_assert_eq!(top.len(), c.min(scores.len()));
        // Every selected score >= every unselected score.
        let selected: std::collections::HashSet<usize> = top.iter().copied().collect();
        let min_sel = top
            .iter()
            .map(|&i| scores[i])
            .fold(f64::INFINITY, f64::min);
        for (i, &s) in scores.iter().enumerate() {
            if !selected.contains(&i) {
                prop_assert!(s <= min_sel);
            }
        }
    }

    #[test]
    fn top_c_is_sorted_descending_with_index_tiebreak(
        scores in prop::collection::vec(0.0f64..100.0, 1..100),
        c in 1usize..30,
    ) {
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let top = sv.top_c(c);
        for w in top.windows(2) {
            let (a, b) = (scores[w[0]], scores[w[1]]);
            prop_assert!(a > b || (a == b && w[0] < w[1]));
        }
    }

    #[test]
    fn grouped_is_a_lossless_multiset_encoding(
        scores in prop::collection::vec(0.0f64..50.0, 1..300),
    ) {
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let grouped = sv.grouped_scores().pairs();
        // Counts sum to length; values strictly descend; every score
        // appears with its exact multiplicity.
        let total: u64 = grouped.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(total as usize, scores.len());
        for w in grouped.windows(2) {
            prop_assert!(w[0].0 > w[1].0);
        }
        for &(v, n) in &grouped {
            let count = scores.iter().filter(|&&s| s == v).count() as u64;
            prop_assert_eq!(count, n);
        }
    }

    #[test]
    fn paper_threshold_lies_between_boundary_ranks(
        scores in prop::collection::vec(0.0f64..1e6, 2..200),
        c in 1usize..60,
    ) {
        let sv = ScoreVector::new(scores).unwrap();
        let t = sv.paper_threshold(c);
        let c_eff = c.min(sv.len());
        let at_c = sv.score_at_rank(c_eff).unwrap();
        match sv.score_at_rank(c_eff + 1) {
            Some(next) => prop_assert!(next <= t && t <= at_c),
            None => prop_assert_eq!(t, at_c),
        }
    }

    #[test]
    fn score_at_rank_matches_sorted_order(
        scores in prop::collection::vec(-1e3f64..1e3, 1..150),
    ) {
        let sv = ScoreVector::new(scores.clone()).unwrap();
        let mut sorted = scores;
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (rank, want) in sorted.iter().enumerate() {
            prop_assert_eq!(sv.score_at_rank(rank + 1).unwrap(), *want);
        }
    }

    #[test]
    fn fimi_roundtrip_preserves_supports_for_arbitrary_datasets(
        records in prop::collection::vec(
            prop::collection::vec(0u32..40, 1..8),
            1..60,
        ),
    ) {
        let data = TransactionDataset::new(records, 40).unwrap();
        let mut buf = Vec::new();
        io::write_transactions(&data, &mut buf).unwrap();
        let reread = io::read_transactions_with_universe(buf.as_slice(), 40).unwrap();
        prop_assert_eq!(reread.item_supports(), data.item_supports());
    }

    #[test]
    fn from_target_supports_is_exact_when_feasible(
        targets in prop::collection::vec(0u64..80, 1..40),
    ) {
        let mut rng = DpRng::seed_from_u64(3021);
        let data = TransactionDataset::from_target_supports(&targets, 80, &mut rng);
        prop_assert_eq!(data.item_supports(), targets);
    }
}

#[test]
fn score_vector_rejects_bad_input_via_public_api() {
    assert!(matches!(
        ScoreVector::new(vec![]).unwrap_err(),
        DataError::Empty
    ));
    assert!(matches!(
        ScoreVector::new(vec![f64::NAN]).unwrap_err(),
        DataError::NonFiniteScore { .. }
    ));
}
