//! Property-based tests for the mechanism substrate.
//!
//! These check structural invariants (monotonicity, symmetry, inverse
//! relationships, conservation laws) over randomized inputs rather than
//! hand-picked examples.

use dp_mechanisms::exp_noise::Exponential;
use dp_mechanisms::exponential::ExponentialMechanism;
use dp_mechanisms::gumbel::Gumbel;
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::sample::BatchSample;
use dp_mechanisms::{fastmath, DpRng, NoiseBuffer, NoiseKernel, SvtBudget};
use proptest::prelude::*;

fn scale_strategy() -> impl Strategy<Value = f64> {
    (0.01f64..1000.0).prop_map(|x| x)
}

/// Takes `chunks` of `dist`'s noise from a reference-kernel buffer that
/// refills `batch` at a time, and checks each value against the scalar
/// draws of a twin generator: the handed-out stream is a pure function
/// of the generator, whatever the batch size and however it is taken.
fn buffer_matches_scalar_draws<D: BatchSample>(
    dist: &D,
    seed: u64,
    batch: usize,
    chunks: &[usize],
) {
    let mut scalar_rng = DpRng::seed_from_u64(seed);
    let mut buffered_rng = DpRng::seed_from_u64(seed);
    let mut buf = NoiseBuffer::with_kernel(batch, NoiseKernel::Reference);
    for &len in chunks {
        let mut got = vec![0.0; len];
        buf.take_into(dist, &mut buffered_rng, &mut got);
        for x in got {
            assert_eq!(x.to_bits(), dist.sample_one(&mut scalar_rng).to_bits());
        }
    }
}

proptest! {
    #[test]
    fn laplace_cdf_is_monotone(b in scale_strategy(), x in -1e4f64..1e4, dx in 0.0f64..1e3) {
        let l = Laplace::new(b).unwrap();
        prop_assert!(l.cdf(x) <= l.cdf(x + dx) + 1e-15);
    }

    #[test]
    fn laplace_cdf_survival_sum_to_one(b in scale_strategy(), x in -1e4f64..1e4) {
        let l = Laplace::new(b).unwrap();
        prop_assert!((l.cdf(x) + l.survival(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn laplace_quantile_inverts_cdf(b in scale_strategy(), p in 0.001f64..0.999) {
        let l = Laplace::new(b).unwrap();
        let x = l.quantile(p).unwrap();
        prop_assert!((l.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn laplace_pdf_is_symmetric(b in scale_strategy(), x in 0.0f64..1e3) {
        let l = Laplace::new(b).unwrap();
        prop_assert!((l.pdf(x) - l.pdf(-x)).abs() < 1e-15);
    }

    #[test]
    fn laplace_samples_are_finite(b in scale_strategy(), seed in any::<u64>()) {
        let l = Laplace::new(b).unwrap();
        let mut rng = DpRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(l.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn laplace_batched_sampling_is_bit_identical(
        b in scale_strategy(),
        seed in any::<u64>(),
        len in 1usize..600,
    ) {
        // The batched-noise pipeline must not change a single bit of any
        // experiment's noise stream.
        let l = Laplace::new(b).unwrap();
        let mut scalar_rng = DpRng::seed_from_u64(seed);
        let mut batched_rng = DpRng::seed_from_u64(seed);
        let mut batched = vec![0.0; len];
        l.sample_into(&mut batched_rng, &mut batched);
        for (i, x) in batched.iter().enumerate() {
            prop_assert_eq!(x.to_bits(), l.sample(&mut scalar_rng).to_bits(), "index {}", i);
        }
        prop_assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64());
    }

    #[test]
    fn noise_buffer_is_batch_size_invariant(
        seed in any::<u64>(),
        batch in 1usize..64,
        chunks in prop::collection::vec(0usize..40, 1..12),
    ) {
        buffer_matches_scalar_draws(&Laplace::new(1.5).unwrap(), seed, batch, &chunks);
    }

    #[test]
    fn batched_uniform_fills_are_bit_identical(seed in any::<u64>(), len in 1usize..400) {
        let mut scalar_rng = DpRng::seed_from_u64(seed);
        let mut batched_rng = DpRng::seed_from_u64(seed);
        let mut out = vec![0.0; len];
        batched_rng.fill_uniform(&mut out);
        for x in &out {
            prop_assert_eq!(x.to_bits(), scalar_rng.uniform().to_bits());
        }
        prop_assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64());
    }

    #[test]
    fn laplace_dp_pointwise_ratio(b in 0.1f64..100.0, x in -50.0f64..50.0, shift in 0.0f64..5.0) {
        // pdf(x)/pdf(x+shift) <= exp(shift/b): the defining DP inequality.
        let l = Laplace::new(b).unwrap();
        let lhs = l.pdf(x) / l.pdf(x + shift);
        prop_assert!(lhs <= (shift / b).exp() * (1.0 + 1e-12));
    }

    #[test]
    fn exponential_cdf_is_monotone(b in scale_strategy(), x in -1e3f64..1e4, dx in 0.0f64..1e3) {
        let e = Exponential::new(b).unwrap();
        prop_assert!(e.cdf(x) <= e.cdf(x + dx) + 1e-15);
    }

    #[test]
    fn exponential_cdf_survival_sum_to_one(b in scale_strategy(), x in -1e3f64..1e4) {
        let e = Exponential::new(b).unwrap();
        prop_assert!((e.cdf(x) + e.survival(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_quantile_inverts_cdf(b in scale_strategy(), p in 0.001f64..0.999) {
        let e = Exponential::new(b).unwrap();
        let x = e.quantile(p).unwrap();
        prop_assert!(x >= 0.0);
        prop_assert!((e.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn exponential_samples_are_nonnegative_and_finite(b in scale_strategy(), seed in any::<u64>()) {
        let e = Exponential::new(b).unwrap();
        let mut rng = DpRng::seed_from_u64(seed);
        for _ in 0..64 {
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn exponential_batched_sampling_is_bit_identical(
        b in scale_strategy(),
        seed in any::<u64>(),
        len in 1usize..600,
    ) {
        // Same contract as Laplace: the batched pipeline must not change
        // a single bit of any experiment's noise stream.
        let e = Exponential::new(b).unwrap();
        let mut scalar_rng = DpRng::seed_from_u64(seed);
        let mut batched_rng = DpRng::seed_from_u64(seed);
        let mut batched = vec![0.0; len];
        e.sample_into(&mut batched_rng, &mut batched);
        for (i, x) in batched.iter().enumerate() {
            prop_assert_eq!(x.to_bits(), e.sample(&mut scalar_rng).to_bits(), "index {}", i);
        }
        prop_assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64());
    }

    #[test]
    fn exponential_noise_buffer_is_batch_size_invariant(
        seed in any::<u64>(),
        batch in 1usize..64,
        chunks in prop::collection::vec(0usize..40, 1..12),
    ) {
        buffer_matches_scalar_draws(&Exponential::new(1.5).unwrap(), seed, batch, &chunks);
    }

    #[test]
    fn exponential_one_sided_dp_ratio(b in 0.1f64..100.0, x in 0.0f64..50.0, shift in 0.001f64..5.0) {
        // Upward shifts have exactly the ratio exp(shift/b) on the
        // support — the inequality SVT's proof uses, met with equality.
        let e = Exponential::new(b).unwrap();
        let ratio = e.pdf(x) / e.pdf(x + shift);
        prop_assert!((ratio / (shift / b).exp() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gumbel_cdf_is_monotone(mu in -100.0f64..100.0, beta in scale_strategy(),
                              x in -1e3f64..1e3, dx in 0.0f64..1e2) {
        let g = Gumbel::new(mu, beta).unwrap();
        prop_assert!(g.cdf(x) <= g.cdf(x + dx) + 1e-15);
    }

    #[test]
    fn gumbel_batched_sampling_is_bit_identical(
        mu in -100.0f64..100.0,
        beta in scale_strategy(),
        seed in any::<u64>(),
        len in 1usize..600,
    ) {
        // Mirror of the Laplace property: the scratch-buffered EM path
        // must not change a single bit of any experiment's key stream.
        let g = Gumbel::new(mu, beta).unwrap();
        let mut scalar_rng = DpRng::seed_from_u64(seed);
        let mut batched_rng = DpRng::seed_from_u64(seed);
        let mut batched = vec![0.0; len];
        g.sample_into(&mut batched_rng, &mut batched);
        for (i, x) in batched.iter().enumerate() {
            prop_assert_eq!(x.to_bits(), g.sample(&mut scalar_rng).to_bits(), "index {}", i);
        }
        prop_assert_eq!(scalar_rng.next_u64(), batched_rng.next_u64());
    }

    #[test]
    fn gumbel_noise_buffer_is_batch_size_invariant(
        seed in any::<u64>(),
        batch in 1usize..64,
        chunks in prop::collection::vec(0usize..40, 1..12),
    ) {
        buffer_matches_scalar_draws(&Gumbel::standard(), seed, batch, &chunks);
    }

    #[test]
    fn gumbel_max_first_key_is_the_ln_m_location_shift(
        mu in -100.0f64..100.0,
        beta in scale_strategy(),
        m in 1u64..1_000_000,
        seed in any::<u64>(),
    ) {
        // The max-stability identity the grouped EM sampler rests on:
        // inverting the base CDF at U^{1/m} equals inverting the
        // Gumbel(mu + beta ln m, beta) CDF at U. Deterministic pin —
        // replay the one uniform GumbelMax consumes and compare against
        // the analytically shifted transform.
        let base = Gumbel::new(mu, beta).unwrap();
        let mut rng = dp_mechanisms::DpRng::seed_from_u64(seed);
        let u = {
            let mut probe = rng.clone();
            probe.open_uniform()
        };
        let got = dp_mechanisms::GumbelMax::new(base, m)
            .unwrap()
            .next_key(&mut rng)
            .unwrap();
        let want = mu + beta * (m as f64).ln() - beta * (-u.ln()).ln();
        let tol = 1e-9 * (1.0 + want.abs());
        prop_assert!((got - want).abs() < tol, "m={}: {} vs {}", m, got, want);
    }

    #[test]
    fn gumbel_max_of_one_group_is_bit_identical_to_plain_sampling(
        mu in -100.0f64..100.0,
        beta in scale_strategy(),
        seed in any::<u64>(),
        draws in 1usize..32,
    ) {
        // Degenerate groups (all scores distinct => every group has
        // m = 1) must collapse to the per-item-key reference bit for
        // bit, consuming the same generator words.
        let g = Gumbel::new(mu, beta).unwrap();
        let mut plain_rng = dp_mechanisms::DpRng::seed_from_u64(seed);
        let mut grouped_rng = dp_mechanisms::DpRng::seed_from_u64(seed);
        for _ in 0..draws {
            let plain = g.sample(&mut plain_rng);
            let peeled = dp_mechanisms::GumbelMax::new(g, 1)
                .unwrap()
                .next_key(&mut grouped_rng)
                .unwrap();
            prop_assert_eq!(plain.to_bits(), peeled.to_bits());
        }
        prop_assert_eq!(plain_rng.next_u64(), grouped_rng.next_u64());
    }

    #[test]
    fn gumbel_max_order_statistics_descend_and_exhaust(
        m in 1u64..500,
        seed in any::<u64>(),
    ) {
        let mut top = dp_mechanisms::GumbelMax::new(Gumbel::standard(), m).unwrap();
        let mut rng = dp_mechanisms::DpRng::seed_from_u64(seed);
        let mut prev = f64::INFINITY;
        for _ in 0..m {
            let key = top.next_key(&mut rng).unwrap();
            prop_assert!(key.is_finite());
            prop_assert!(key < prev);
            prev = key;
        }
        prop_assert_eq!(top.next_key(&mut rng), None);
    }

    #[test]
    fn em_probabilities_sum_to_one(
        scores in prop::collection::vec(-1e5f64..1e5, 1..64),
        eps in 0.01f64..10.0,
    ) {
        let em = ExponentialMechanism::new(eps, 1.0).unwrap();
        let p = em.selection_probabilities(&scores).unwrap();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn em_probability_order_follows_score_order(
        scores in prop::collection::vec(-1e3f64..1e3, 2..32),
        eps in 0.01f64..5.0,
    ) {
        let em = ExponentialMechanism::new_monotonic(eps, 1.0).unwrap();
        let p = em.selection_probabilities(&scores).unwrap();
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i] > scores[j] {
                    prop_assert!(p[i] >= p[j] - 1e-12);
                }
            }
        }
    }

    #[test]
    fn em_peeling_never_repeats(
        scores in prop::collection::vec(-1e3f64..1e3, 1..64),
        c in 1usize..64,
        seed in any::<u64>(),
    ) {
        let em = ExponentialMechanism::new(1.0, 1.0).unwrap();
        let mut rng = DpRng::seed_from_u64(seed);
        let picked = em.select_without_replacement(&scores, c, &mut rng).unwrap();
        prop_assert_eq!(picked.len(), c.min(scores.len()));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picked.len());
    }

    #[test]
    fn svt_budget_ratio_split_reconstructs_total(eps in 0.001f64..10.0, ratio in 0.01f64..1e4) {
        let b = SvtBudget::from_ratio(eps, ratio).unwrap();
        prop_assert!((b.total() - eps).abs() < 1e-9);
        prop_assert!((b.queries / b.threshold - ratio).abs() / ratio < 1e-9);
    }

    #[test]
    fn forked_rngs_are_reproducible(seed in any::<u64>()) {
        let mut a = DpRng::seed_from_u64(seed);
        let mut b = DpRng::seed_from_u64(seed);
        let mut ca = a.fork();
        let mut cb = b.fork();
        for _ in 0..16 {
            prop_assert_eq!(ca.uniform().to_bits(), cb.uniform().to_bits());
        }
    }

    // ---- fastmath: the vectorized ln kernel ------------------------

    #[test]
    fn fastmath_ln_stays_within_1e12_over_the_full_exponent_range(
        mantissa in 1.0f64..2.0,
        exp in -1022i32..1023,
    ) {
        // The kernel contract: ≤ 1e-12 relative error against libm for
        // every normal input, whatever the exponent.
        let x = mantissa * 2f64.powi(exp);
        prop_assume!(x.is_finite() && x > 0.0);
        let want = x.ln();
        let got = fastmath::ln(x);
        let tol = 1e-12 * want.abs() + 1e-300;
        prop_assert!((got - want).abs() <= tol, "x={x:e}: {got} vs {want}");
    }

    #[test]
    fn fastmath_ln_handles_subnormal_adjacent_inputs(
        mantissa in 1.0f64..2.0,
        exp in -1074i32..-1010,
    ) {
        // Below 2⁻¹⁰²² the kernel rescales by 2⁵⁴ before extraction;
        // the accuracy bound must hold straight through the subnormal
        // range down to the smallest positive double.
        let x = mantissa * 2f64.powi(exp);
        prop_assume!(x > 0.0);
        let want = x.ln();
        let got = fastmath::ln(x);
        prop_assert!((got - want).abs() <= 1e-12 * want.abs(), "x={x:e}: {got} vs {want}");
    }

    #[test]
    fn fastmath_ln_is_monotone_across_separated_inputs(
        mantissa in 1.0f64..2.0,
        exp in -1000i32..1000,
        ratio in 1.0000000001f64..1e6,
    ) {
        // Strict order preservation for inputs separated by at least a
        // 1e-10 relative gap (the polynomial is not guaranteed monotone
        // within a couple of ulps, but must never reorder real gaps).
        let x = mantissa * 2f64.powi(exp);
        let y = x * ratio;
        prop_assume!(x > 0.0 && y.is_finite());
        prop_assert!(fastmath::ln(x) < fastmath::ln(y), "ln({x:e}) !< ln({y:e})");
    }

    #[test]
    fn fastmath_ln_into_is_bit_identical_to_scalar_ln(
        seed in any::<u64>(),
        len in 1usize..200,
    ) {
        // Chunk-boundary independence: the 8-lane batched fill and the
        // scalar remainder path must agree bit for bit with per-element
        // `ln` at every index, whatever the buffer length.
        let mut rng = DpRng::seed_from_u64(seed);
        let mut xs = vec![0.0; len];
        rng.fill_open_uniform(&mut xs);
        for (i, x) in xs.iter_mut().enumerate() {
            // Spread across exponents so lanes see dissimilar scales.
            *x *= 2f64.powi((i as i32 % 120) - 60);
        }
        let mut out = vec![0.0; len];
        fastmath::ln_into(&xs, &mut out);
        for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
            prop_assert_eq!(got.to_bits(), fastmath::ln(x).to_bits(), "index {}", i);
        }
    }

    #[test]
    fn fastmath_ln_1p_stays_accurate_for_tiny_and_moderate_inputs(
        x in -0.9999f64..1e6,
    ) {
        let want = x.ln_1p();
        let got = fastmath::ln_1p(x);
        let tol = 1e-12 * want.abs() + 1e-300;
        prop_assert!((got - want).abs() <= tol, "x={x:e}: {got} vs {want}");
    }

    // ---- kernel policy: Reference vs Vectorized --------------------

    #[test]
    fn reference_kernel_dispatch_is_bit_identical_to_scalar(
        b in scale_strategy(),
        seed in any::<u64>(),
        len in 1usize..300,
    ) {
        // `sample_into_kernel(.., Reference)` is the pinned scalar
        // history: one bit of drift anywhere is a bug.
        let l = Laplace::new(b).unwrap();
        let mut scalar_rng = DpRng::seed_from_u64(seed);
        let mut kernel_rng = DpRng::seed_from_u64(seed);
        let mut out = vec![0.0; len];
        l.sample_into_kernel(&mut kernel_rng, &mut out, NoiseKernel::Reference);
        for (i, x) in out.iter().enumerate() {
            prop_assert_eq!(x.to_bits(), l.sample(&mut scalar_rng).to_bits(), "index {}", i);
        }
        prop_assert_eq!(scalar_rng.next_u64(), kernel_rng.next_u64());
    }

    #[test]
    fn vectorized_laplace_consumes_the_same_words_and_stays_close(
        b in scale_strategy(),
        seed in any::<u64>(),
        len in 1usize..300,
    ) {
        let l = Laplace::new(b).unwrap();
        let mut ref_rng = DpRng::seed_from_u64(seed);
        let mut vec_rng = DpRng::seed_from_u64(seed);
        let mut reference = vec![0.0; len];
        let mut vectorized = vec![0.0; len];
        l.sample_into(&mut ref_rng, &mut reference);
        l.sample_into_kernel(&mut vec_rng, &mut vectorized, NoiseKernel::Vectorized);
        prop_assert_eq!(ref_rng.next_u64(), vec_rng.next_u64(), "word streams diverged");
        for (i, (&r, &v)) in reference.iter().zip(&vectorized).enumerate() {
            let tol = 1e-11 * (r.abs() + b);
            prop_assert!((r - v).abs() <= tol, "index {}: {} vs {}", i, r, v);
        }
    }

    #[test]
    fn vectorized_exponential_consumes_the_same_words_and_stays_close(
        b in scale_strategy(),
        seed in any::<u64>(),
        len in 1usize..300,
    ) {
        let e = Exponential::new(b).unwrap();
        let mut ref_rng = DpRng::seed_from_u64(seed);
        let mut vec_rng = DpRng::seed_from_u64(seed);
        let mut reference = vec![0.0; len];
        let mut vectorized = vec![0.0; len];
        e.sample_into(&mut ref_rng, &mut reference);
        e.sample_into_kernel(&mut vec_rng, &mut vectorized, NoiseKernel::Vectorized);
        prop_assert_eq!(ref_rng.next_u64(), vec_rng.next_u64(), "word streams diverged");
        for (i, (&r, &v)) in reference.iter().zip(&vectorized).enumerate() {
            prop_assert!(v >= 0.0, "index {}: negative one-sided noise {}", i, v);
            let tol = 1e-11 * (r.abs() + b);
            prop_assert!((r - v).abs() <= tol, "index {}: {} vs {}", i, r, v);
        }
    }

    #[test]
    fn vectorized_gumbel_consumes_the_same_words_and_stays_close(
        mu in -100.0f64..100.0,
        beta in scale_strategy(),
        seed in any::<u64>(),
        len in 1usize..300,
    ) {
        let g = Gumbel::new(mu, beta).unwrap();
        let mut ref_rng = DpRng::seed_from_u64(seed);
        let mut vec_rng = DpRng::seed_from_u64(seed);
        let mut reference = vec![0.0; len];
        let mut vectorized = vec![0.0; len];
        g.sample_into(&mut ref_rng, &mut reference);
        g.sample_into_kernel(&mut vec_rng, &mut vectorized, NoiseKernel::Vectorized);
        prop_assert_eq!(ref_rng.next_u64(), vec_rng.next_u64(), "word streams diverged");
        for (i, (&r, &v)) in reference.iter().zip(&vectorized).enumerate() {
            // Two composed logs: one extra rounding layer vs Laplace.
            let tol = 1e-10 * (r.abs() + beta + mu.abs());
            prop_assert!((r - v).abs() <= tol, "index {}: {} vs {}", i, r, v);
        }
    }
}
