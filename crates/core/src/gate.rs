//! The statistics of the distribution gates: tests that hold a fast
//! selection engine to its item-level reference in law, where the two
//! consume different draw streams and no seeded equality can hold.
//!
//! A gate runs both engines for many runs on one input and compares
//! three things: how often each score group is selected (chi-square
//! homogeneity), and the per-run ⊤ and examined counts (two-sample
//! Kolmogorov–Smirnov). Each gate fixes its family-wise false-alarm
//! rate and splits it over its tests (Bonferroni) in its [`Critical`].

use crate::alg::SparseVector;
use crate::response::SvtAnswer;
use crate::Result;
use dp_data::GroupedSnapshot;
use dp_mechanisms::DpRng;

/// A reference algorithm counting the queries it answers: the
/// examined count of a run through
/// [`select_with`](crate::noninteractive::select_with).
pub(crate) struct Counted<A> {
    pub(crate) alg: A,
    pub(crate) asked: usize,
}

impl<A> Counted<A> {
    pub(crate) fn new(alg: A) -> Self {
        Self { alg, asked: 0 }
    }
}

impl<A: SparseVector> SparseVector for Counted<A> {
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
        "counted reference"
    }
}

/// What a gate compares per engine: selections per score group over
/// all runs, and ⊤ and examined counts per run.
pub(crate) struct Sample {
    pub(crate) per_group: Vec<u64>,
    pub(crate) tops: Vec<f64>,
    pub(crate) examined: Vec<f64>,
}

impl Sample {
    pub(crate) fn new(groups: &GroupedSnapshot) -> Self {
        Self {
            per_group: vec![0; groups.num_groups()],
            tops: Vec::new(),
            examined: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, groups: &GroupedSnapshot, selected: &[usize], examined: usize) {
        for &item in selected {
            self.per_group[groups.group_of_item(item)] += 1;
        }
        self.tops.push(selected.len() as f64);
        self.examined.push(examined as f64);
    }
}

/// A gate's per-test critical values after its Bonferroni split: the
/// one-sided standard-normal quantile `z_{1−α}` the chi-squares'
/// Wilson–Hilferty scores must stay under, and the KS coefficient
/// `√(−ln(α/2)/2)` that scales `√((n_a + n_b)/(n_a n_b))`.
pub(crate) struct Critical {
    pub(crate) chi_square_z: f64,
    pub(crate) ks_coefficient: f64,
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

/// Compares one cell's two samples (per-group chi-square, KS on the ⊤
/// and examined counts); returns the failed tests.
pub(crate) fn compare(
    name: &str,
    engine: &Sample,
    reference: &Sample,
    critical: &Critical,
) -> Vec<String> {
    let mut failures = Vec::new();
    let (stat, df) = chi_square_homogeneity(&engine.per_group, &reference.per_group);
    let z = chi_square_z(stat, df);
    if z >= critical.chi_square_z {
        failures.push(format!(
            "{name}: per-group selections chi-square {stat:.1} on {df} df (z {z:.2})"
        ));
    }
    let (na, nb) = (engine.tops.len() as f64, reference.tops.len() as f64);
    let ks_critical = critical.ks_coefficient * ((na + nb) / (na * nb)).sqrt();
    for (what, a, b) in [
        ("⊤ count", &engine.tops, &reference.tops),
        ("examined count", &engine.examined, &reference.examined),
    ] {
        let d = ks_statistic(a, b);
        if d >= ks_critical {
            failures.push(format!("{name}: {what} KS D = {d:.4} ≥ {ks_critical:.4}"));
        }
    }
    failures
}
