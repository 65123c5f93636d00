//! The binomial distribution with an exact sampler.
//!
//! [`Binomial::sample`] draws `Bin(n, p)` without any normal
//! approximation, by one of two exact methods chosen on the smaller tail
//! mass `m = n·min(p, 1 − p)` (for `p > ½` it samples `n − Bin(n, 1 − p)`):
//!
//! * **inversion** when `m < 10`: walk the pmf recurrence
//!   `f(k+1) = f(k)·(n−k)/(k+1)·p/q` from `f(0) = qⁿ` until the uniform
//!   is used up — a handful of steps, since the mean is below 10;
//! * **BTRS** (Hörmann 1993, "The generation of binomial random
//!   variates") otherwise: transformed rejection with a squeeze, `O(1)`
//!   expected uniforms for every `n`, accepting against the exact log
//!   pmf ratio built from `ln k!`.
//!
//! `ln k!` is exact to `f64` rounding: a table below
//! 128 and the Stirling series with terms through `k⁻⁵` above (whose
//! truncation error there is below `10⁻¹⁸`).
//!
//! The skip-ahead SVT-Revisited sampler in `svt-core` draws one binomial
//! per score group to count how many unselected members a halted run
//! had examined.

use crate::error::MechanismError;
use crate::rng::DpRng;
use crate::Result;
use std::sync::OnceLock;

/// `Bin(n, p)`: the number of successes in `n` independent trials of
/// success probability `p`.
///
/// ```
/// use dp_mechanisms::{Binomial, DpRng};
///
/// let bin = Binomial::new(2_290_685, 0.1)?;
/// let mut rng = DpRng::seed_from_u64(7);
/// let k = bin.sample(&mut rng);
/// assert!(k <= 2_290_685);
/// # Ok::<(), dp_mechanisms::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `Bin(n, p)`.
    ///
    /// # Errors
    /// [`MechanismError::InvalidProbability`] unless `0 ≤ p ≤ 1`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        if (0.0..=1.0).contains(&p) {
            Ok(Self { n, p })
        } else {
            Err(MechanismError::InvalidProbability(p))
        }
    }

    /// Draws one sample (always in `0..=n`).
    pub fn sample(&self, rng: &mut DpRng) -> u64 {
        let n = self.n;
        if n == 0 || self.p == 0.0 {
            return 0;
        }
        if self.p == 1.0 {
            return n;
        }
        // Sample the smaller tail; `1 − p` is exact for `p ≥ ½`.
        let (p, flipped) = if self.p > 0.5 {
            (1.0 - self.p, true)
        } else {
            (self.p, false)
        };
        let k = if n as f64 * p < 10.0 {
            inversion(n, p, rng)
        } else {
            btrs(n, p, rng)
        };
        if flipped {
            n - k
        } else {
            k
        }
    }
}

/// Inversion by sequential search over the pmf recurrence, for
/// `n·p < 10` and `p ≤ ½`. A uniform left over after the walk reaches
/// `n` (or the pmf underflows) can only come from rounding in the
/// accumulated mass; it is redrawn.
fn inversion(n: u64, p: f64, rng: &mut DpRng) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n as f64 + 1.0) * s;
    let f0 = (n as f64 * (-p).ln_1p()).exp();
    loop {
        let mut u = rng.uniform();
        let mut f = f0;
        let mut k = 0u64;
        while k <= n && f > 0.0 {
            if u < f {
                return k;
            }
            u -= f;
            k += 1;
            f *= a / k as f64 - s;
        }
    }
}

/// Hörmann's BTRS for `n·p ≥ 10` and `p ≤ ½`.
fn btrs(n: u64, p: f64, rng: &mut DpRng) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let spq = (nf * p * q).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let alpha = (2.83 + 5.1 / b) * spq;
    let lpq = (p / q).ln();
    let m = ((nf + 1.0) * p).floor() as u64;
    let h = ln_factorial(m) + ln_factorial(n - m);
    loop {
        let u = rng.uniform() - 0.5;
        let v = rng.uniform();
        let us = 0.5 - u.abs();
        let kf = ((2.0 * a / us + b) * u + c).floor();
        if !(0.0..=nf).contains(&kf) {
            continue;
        }
        let k = kf as u64;
        if us >= 0.07 && v <= v_r {
            return k;
        }
        let v = (v * alpha / (a / (us * us) + b)).ln();
        if v <= h - ln_factorial(k) - ln_factorial(n - k) + (kf - m as f64) * lpq {
            return k;
        }
    }
}

/// Size of the exact `ln k!` table; the Stirling series covers the rest.
const LN_FACT_TABLE: usize = 128;

/// `ln k!`, exact to `f64` rounding for every `k`.
pub(crate) fn ln_factorial(k: u64) -> f64 {
    static TABLE: OnceLock<[f64; LN_FACT_TABLE]> = OnceLock::new();
    if k < LN_FACT_TABLE as u64 {
        let table = TABLE.get_or_init(|| {
            let mut t = [0.0; LN_FACT_TABLE];
            let mut fact = 1.0f64;
            for (i, slot) in t.iter_mut().enumerate().skip(1) {
                fact *= i as f64;
                *slot = fact.ln();
            }
            t
        });
        return table[k as usize];
    }
    let x = k as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    let half_ln_two_pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    (x + 0.5) * x.ln() - x
        + half_ln_two_pi
        + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact pmf of `Bin(n, p)` at `k`, for `0 < p < 1`.
    fn pmf(n: u64, p: f64, k: u64) -> f64 {
        (ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
            + k as f64 * p.ln()
            + (n - k) as f64 * (-p).ln_1p())
        .exp()
    }

    /// Wilson–Hilferty: the standard-normal score of a chi-square
    /// statistic with `df` degrees of freedom.
    fn chi_square_z(stat: f64, df: usize) -> f64 {
        let k = df as f64;
        let v = 2.0 / (9.0 * k);
        ((stat / k).cbrt() - (1.0 - v)) / v.sqrt()
    }

    /// The 12 chi-square and 8 z-tests below share a family-wise
    /// false-alarm rate of 1e-3 (Bonferroni, 5e-5 each): one-sided
    /// `z_{1−5e−5}` for the chi-squares, two-sided `z_{1−2.5e−5}` for
    /// the moment tests.
    const CHI_SQUARE_Z: f64 = 3.891;
    const TWO_SIDED_Z: f64 = 4.056;

    #[test]
    fn sampled_frequencies_match_the_exact_pmf() {
        let draws = 20_000u64;
        let mut rng = DpRng::seed_from_u64(0xb1_0a1);
        for n in [5u64, 40, 300] {
            for p in [0.01, 0.3, 0.5, 0.9] {
                let bin = Binomial::new(n, p).unwrap();
                let mut counts = vec![0u64; n as usize + 1];
                for _ in 0..draws {
                    counts[bin.sample(&mut rng) as usize] += 1;
                }
                // Pool outcomes into bins of expected count ≥ 5; the
                // upper-tail remainder folds into the last bin.
                let mut bins: Vec<(f64, u64)> = Vec::new();
                let (mut exp_acc, mut obs_acc) = (0.0, 0u64);
                for k in 0..=n {
                    exp_acc += pmf(n, p, k) * draws as f64;
                    obs_acc += counts[k as usize];
                    if exp_acc >= 5.0 {
                        bins.push((exp_acc, obs_acc));
                        (exp_acc, obs_acc) = (0.0, 0);
                    }
                }
                let last = bins.last_mut().expect("at least one full bin");
                last.0 += exp_acc;
                last.1 += obs_acc;
                let stat: f64 = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
                let z = chi_square_z(stat, bins.len() - 1);
                let bins = bins.len();
                assert!(
                    z < CHI_SQUARE_Z,
                    "Bin({n}, {p}): chi-square {stat:.1} over {bins} bins (z {z:.2})"
                );
            }
        }
    }

    #[test]
    fn moments_match_at_aol_scale() {
        let n = 2_290_685u64;
        let draws = 4_000usize;
        let mut rng = DpRng::seed_from_u64(0xa01_5ca1e);
        for p in [1e-6, 0.1, 0.5, 0.97] {
            let bin = Binomial::new(n, p).unwrap();
            let xs: Vec<f64> = (0..draws).map(|_| bin.sample(&mut rng) as f64).collect();
            let mean = xs.iter().sum::<f64>() / draws as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (draws - 1) as f64;
            let nf = n as f64;
            let sigma2 = nf * p * (1.0 - p);
            let z_mean = (mean - nf * p) / (sigma2 / draws as f64).sqrt();
            // Var(s²) ≈ (μ₄ − σ⁴)/N with μ₄ = σ²(1 + 3(n − 2)pq).
            let mu4 = sigma2 * (1.0 + 3.0 * (nf - 2.0) * p * (1.0 - p));
            let z_var = (var - sigma2) / ((mu4 - sigma2 * sigma2) / draws as f64).sqrt();
            assert!(
                z_mean.abs() < TWO_SIDED_Z,
                "p {p}: mean {mean} (z {z_mean:.2})"
            );
            assert!(
                z_var.abs() < TWO_SIDED_Z,
                "p {p}: variance {var} (z {z_var:.2})"
            );
        }
    }

    #[test]
    fn edge_cases_are_exact_and_samples_never_exceed_n() {
        let mut rng = DpRng::seed_from_u64(11);
        assert_eq!(Binomial::new(0, 0.4).unwrap().sample(&mut rng), 0);
        assert_eq!(Binomial::new(17, 0.0).unwrap().sample(&mut rng), 0);
        assert_eq!(Binomial::new(17, 1.0).unwrap().sample(&mut rng), 17);
        for p in [f64::NAN, -0.1, 1.1, f64::INFINITY] {
            assert!(Binomial::new(3, p).is_err(), "p {p} accepted");
        }
        for n in [1u64, 2, 9, 10, 11, 25, 1_000] {
            for p in [1e-300, 1e-9, 0.05, 0.4999, 0.5, 0.75, 1.0 - 1e-12] {
                let bin = Binomial::new(n, p).unwrap();
                for _ in 0..200 {
                    assert!(bin.sample(&mut rng) <= n, "Bin({n}, {p}) exceeded n");
                }
            }
        }
    }

    #[test]
    fn ln_factorial_is_continuous_across_the_table_boundary() {
        // Table and series agree with ln k! = ln (k−1)! + ln k on both
        // sides of the switch and far beyond it.
        for k in [1u64, 2, 20, 126, 127, 128, 129, 1_000, 2_290_685] {
            let step = ln_factorial(k) - ln_factorial(k - 1);
            assert!(
                (step - (k as f64).ln()).abs() <= 1e-9 * (k as f64).ln().max(1.0),
                "k {k}: step {step} vs ln k {}",
                (k as f64).ln()
            );
        }
        assert_eq!(ln_factorial(0), 0.0);
        assert!((ln_factorial(10) - 3_628_800f64.ln()).abs() < 1e-13);
    }
}
