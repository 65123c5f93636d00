//! The selection-sweep workloads: `run_sweep` over the AOL stand-in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dp_data::ScoreVector;
use dp_mechanisms::{counter_seed, DpRng};
use svt_core::allocation::BudgetRatio;
use svt_core::streaming::RunScratch;
use svt_experiments::runner::{run_sweep, CellResult, PreparedDataset};
use svt_experiments::simulate::exact::ExactContext;
use svt_experiments::spec::{AlgorithmSpec, ExperimentConfig, SimulationMode};

use crate::inputs::SplitMix;
use crate::trace::{Span, Tracer};

pub const EPSILON: f64 = 0.1;

/// Every algorithm the benchmark measures, by metric suffix.
pub const ALGS: [&str; 7] = ["svt_s", "svt_exp", "dpbook", "retr1d", "retr5d", "rv", "em"];

pub fn spec(key: &str) -> AlgorithmSpec {
    let ratio = BudgetRatio::OneToCTwoThirds;
    match key {
        "svt_s" => AlgorithmSpec::Standard { ratio },
        "svt_exp" => AlgorithmSpec::ExpNoise { ratio },
        "dpbook" => AlgorithmSpec::DpBook,
        "retr1d" => AlgorithmSpec::Retraversal {
            ratio,
            increment_d: 1.0,
        },
        "retr5d" => AlgorithmSpec::Retraversal {
            ratio,
            increment_d: 5.0,
        },
        "rv" => AlgorithmSpec::Revisited { ratio },
        "em" => AlgorithmSpec::Em,
        other => panic!("unknown algorithm key {other}"),
    }
}

/// The cutoffs each algorithm is swept at: the halting variants at
/// c ∈ {100, 200, 300}; SVT-RV at {25, 100, 300} and the 5D
/// retraversal at {100, 300}, where a run scans most of the list.
pub fn cutoffs(key: &str) -> &'static [usize] {
    match key {
        "rv" => &[25, 100, 300],
        "retr5d" => &[100, 300],
        _ => &[100, 200, 300],
    }
}

/// Which regime a sweep workload stresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// Runs halt after a few hundred items: fixed per-run costs.
    Halting,
    /// Runs scan most of the list: traversal costs.
    Scan,
}

impl Regime {
    pub fn algs(self) -> &'static [&'static str] {
        match self {
            Regime::Halting => &["svt_s", "svt_exp", "dpbook", "retr1d", "em"],
            Regime::Scan => &["rv", "retr5d"],
        }
    }

    /// The `run_sweep` calls of one pass over the grid: one call over
    /// the whole halting grid, or one call per scan cell (a scan run
    /// costs tens of ms, so whole-grid calls would give too few
    /// latency samples).
    pub fn calls(self) -> Vec<(Vec<AlgorithmSpec>, Vec<usize>)> {
        match self {
            Regime::Halting => vec![(
                self.algs().iter().map(|k| spec(k)).collect(),
                cutoffs("svt_s").to_vec(),
            )],
            Regime::Scan => self
                .algs()
                .iter()
                .flat_map(|k| cutoffs(k).iter().map(move |&c| (vec![spec(k)], vec![c])))
                .collect(),
        }
    }

    /// Runs per cell in a timed call: enough for a ~15 ms halting call,
    /// which amortizes the runner's per-call thread start-up; one per
    /// worker thread for a scan cell.
    pub fn runs_per_cell(self) -> usize {
        match self {
            Regime::Halting => 16,
            Regime::Scan => 2,
        }
    }

    /// Runs per cell replayed in the checks.
    pub fn check_runs(self) -> usize {
        match self {
            Regime::Halting => 8,
            Regime::Scan => 1,
        }
    }
}

pub fn config(
    c_values: Vec<usize>,
    runs: usize,
    seed: u64,
    threads: usize,
    mode: SimulationMode,
) -> ExperimentConfig {
    ExperimentConfig {
        epsilon: EPSILON,
        runs,
        c_values,
        seed,
        threads,
        mode,
    }
}

/// Mean SER accumulated per (algorithm label, c) over the timed calls.
#[derive(Default)]
pub struct SerAccumulator {
    /// (Σ SER, Σ SER², runs) per cell.
    cells: BTreeMap<(String, usize), (f64, f64, u64)>,
}

impl SerAccumulator {
    fn add(&mut self, cells: &[CellResult]) {
        for cell in cells {
            let e = self
                .cells
                .entry((cell.algorithm.clone(), cell.c))
                .or_default();
            let runs = cell.ser.runs as f64;
            e.0 += cell.ser.mean * runs;
            e.1 += cell.ser.std_dev.powi(2) * (runs - 1.0) + cell.ser.mean.powi(2) * runs;
            e.2 += cell.ser.runs;
        }
    }

    pub fn merge(&mut self, other: SerAccumulator) {
        for (key, (sum, sq, runs)) in other.cells {
            let e = self.cells.entry(key).or_default();
            e.0 += sum;
            e.1 += sq;
            e.2 += runs;
        }
    }

    /// (label, c, mean SER, standard deviation per run, runs) per cell.
    pub fn means(&self) -> Vec<(String, usize, f64, f64, u64)> {
        self.cells
            .iter()
            .map(|((label, c), &(sum, sq, runs))| {
                let n = runs.max(1) as f64;
                let mean = sum / n;
                (
                    label.clone(),
                    *c,
                    mean,
                    (sq / n - mean * mean).max(0.0).sqrt(),
                    runs,
                )
            })
            .collect()
    }
}

/// What the timed calls measured.
#[derive(Default)]
pub struct Timed {
    /// Selection runs per second of each full pass over the grid.
    pub pass_rates: Vec<f64>,
    /// Wall time of each `run_sweep` call, in µs.
    pub call_us: Vec<f64>,
    pub runs: u64,
    pub calls: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub ser: SerAccumulator,
    pub spans: Vec<Span>,
}

impl Timed {
    pub fn merge(&mut self, other: Timed) {
        self.pass_rates.extend(other.pass_rates);
        self.call_us.extend(other.call_us);
        self.runs += other.runs;
        self.calls += other.calls;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.ser.merge(other.ser);
        self.spans.extend(other.spans);
    }
}

/// Calls `run_sweep` over the regime's grid, pass after pass, until
/// `duration` has passed (finishing the pass in progress) and at least
/// `min_passes` passes are done.
pub fn timed(
    prepared: &PreparedDataset,
    regime: Regime,
    seed: u64,
    threads: usize,
    duration: Duration,
    min_passes: usize,
    trace: bool,
) -> Timed {
    let start = Instant::now();
    let mut tracer = Tracer::new(trace, start, 0);
    let calls = regime.calls();
    let mut out = Timed::default();
    while start.elapsed() < duration || out.pass_rates.len() < min_passes {
        let mut pass_runs = 0u64;
        let mut pass_ns = 0u64;
        for (algs, cs) in &calls {
            // Each call draws fresh run seeds, so the mean SER check
            // averages over independent runs.
            let cfg = config(
                cs.clone(),
                regime.runs_per_cell(),
                SplitMix::call_seed(seed, out.calls),
                threads,
                SimulationMode::Auto,
            );
            let (result, ns) = tracer.span("runner.run_sweep", out.calls, |_| {
                run_sweep(prepared, algs, &cfg)
            });
            out.calls += 1;
            out.call_us.push(ns as f64 / 1e3);
            pass_ns += ns;
            match result {
                Ok(cells) => {
                    let runs = (cells.len() * cfg.runs) as u64;
                    pass_runs += runs;
                    out.runs += runs;
                    out.ser.add(&cells);
                }
                Err(e) => {
                    out.failed += 1;
                    if out.errors.len() < 8 {
                        out.errors.push(e.to_string());
                    }
                }
            }
        }
        out.pass_rates
            .push(pass_runs as f64 / (pass_ns as f64 / 1e9));
    }
    out.spans = tracer.into_spans();
    out
}

/// Deterministic counts and check results of the fixed check runs.
#[derive(Default)]
pub struct Checked {
    pub attempted: u64,
    pub problems: Vec<String>,
    /// Items examined per algorithm key, summed over the check runs.
    pub examined: BTreeMap<&'static str, u64>,
    pub tops: u64,
    pub runs: u64,
}

impl Checked {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The output checks, on fixed seeds so their counts repeat exactly:
///
/// * each grid call at 2 threads (Auto engine) equals the same call at
///   1 thread through `SimulationMode::Grouped`, bit for bit — the
///   grouped replay and the thread-count independence in one;
/// * every selection of a sample of runs per cell has at most `c`
///   distinct in-range indices; items examined and ⊤ answers are
///   counted from those runs.
pub fn check(prepared: &PreparedDataset, regime: Regime, seed: u64) -> Checked {
    let mut out = Checked::default();
    for (algs, cs) in regime.calls() {
        let base = config(cs, 2, seed ^ 0xc4ec_c4ec, 2, SimulationMode::Auto);
        let grouped = ExperimentConfig {
            threads: 1,
            mode: SimulationMode::Grouped,
            ..base.clone()
        };
        match (
            run_sweep(prepared, &algs, &base),
            run_sweep(prepared, &algs, &grouped),
        ) {
            (Ok(a), Ok(b)) => out.check(a == b, || {
                format!(
                    "{}: 2-thread Auto sweep differs from 1-thread Grouped replay",
                    algs[0].label()
                )
            }),
            (Err(e), _) | (_, Err(e)) => out.check(false, || format!("check sweep failed: {e}")),
        }
    }
    let scores = prepared.scores();
    let n = scores.len();
    let sweep = prepared.sweep_context();
    let mut scratch = RunScratch::new();
    for &key in regime.algs() {
        let alg = spec(key);
        for &c in cutoffs(key) {
            let ctx = ExactContext::new(scores, sweep, c);
            for r in 0..regime.check_runs() {
                let mut rng = DpRng::seed_from_u64(counter_seed(seed ^ (c as u64) << 20, r as u64));
                match ctx.run_once_into(&alg, EPSILON, &mut rng, &mut scratch) {
                    Ok(_) => {
                        let selected = scratch.selected();
                        let mut sorted = selected.to_vec();
                        sorted.sort_unstable();
                        sorted.dedup();
                        out.check(
                            selected.len() <= c
                                && sorted.len() == selected.len()
                                && sorted.last().is_none_or(|&i| i < n),
                            || {
                                format!(
                                    "{key} c={c}: invalid selection of {} items",
                                    selected.len()
                                )
                            },
                        );
                        *out.examined.entry(key).or_default() += scratch.examined() as u64;
                        out.tops += selected.len() as u64;
                        out.runs += 1;
                    }
                    Err(e) => out.check(false, || format!("{key} c={c}: {e}")),
                }
            }
        }
    }
    out
}

/// Builds the sweep context cold from a copy of the scores (which has
/// no cached sort) and returns the prepared dataset with the build's
/// wall time in s.
pub fn setup(name: &str, scores: &ScoreVector) -> (PreparedDataset, f64) {
    let prepared = PreparedDataset::new(name, scores.clone());
    let t0 = Instant::now();
    std::hint::black_box(prepared.sweep_context());
    let s = t0.elapsed().as_secs_f64();
    (prepared, s)
}

/// Mean SER per (dataset, algorithm, c) cell recorded when the
/// benchmark was created (ε = 0.1). Item-id shuffles do not change
/// these: runs visit items in random order and EM expands ties
/// uniformly.
pub const REFERENCE_SER: &[(&str, &str, usize, f64)] = &[
    ("AOL", "EM", 100, 0.7651),
    ("AOL", "EM", 200, 0.9148),
    ("AOL", "EM", 300, 0.9896),
    ("AOL", "SVT-DPBook", 100, 0.9993),
    ("AOL", "SVT-DPBook", 200, 0.9989),
    ("AOL", "SVT-DPBook", 300, 0.9984),
    ("AOL", "SVT-Exp-1:c^(2/3)", 100, 0.9993),
    ("AOL", "SVT-Exp-1:c^(2/3)", 200, 0.9989),
    ("AOL", "SVT-Exp-1:c^(2/3)", 300, 0.9984),
    ("AOL", "SVT-ReTr-1:c^(2/3)-1D", 100, 0.9990),
    ("AOL", "SVT-ReTr-1:c^(2/3)-1D", 200, 0.9986),
    ("AOL", "SVT-ReTr-1:c^(2/3)-1D", 300, 0.9982),
    ("AOL", "SVT-S-1:c^(2/3)", 100, 0.9992),
    ("AOL", "SVT-S-1:c^(2/3)", 200, 0.9988),
    ("AOL", "SVT-S-1:c^(2/3)", 300, 0.9984),
    ("AOL", "SVT-RV-1:c^(2/3)", 25, 0.5206),
    ("AOL", "SVT-RV-1:c^(2/3)", 100, 0.9702),
    ("AOL", "SVT-RV-1:c^(2/3)", 300, 1.0000),
    ("AOL", "SVT-ReTr-1:c^(2/3)-5D", 100, 0.9478),
    ("AOL", "SVT-ReTr-1:c^(2/3)-5D", 300, 0.9867),
    ("Kosarak", "EM", 100, 0.0831),
    ("Kosarak", "EM", 200, 0.2045),
    ("Kosarak", "EM", 300, 0.2690),
    ("Kosarak", "SVT-DPBook", 100, 0.9868),
    ("Kosarak", "SVT-DPBook", 200, 0.9848),
    ("Kosarak", "SVT-DPBook", 300, 0.9808),
    ("Kosarak", "SVT-Exp-1:c^(2/3)", 100, 0.9477),
    ("Kosarak", "SVT-Exp-1:c^(2/3)", 200, 0.9868),
    ("Kosarak", "SVT-Exp-1:c^(2/3)", 300, 0.9862),
    ("Kosarak", "SVT-ReTr-1:c^(2/3)-1D", 100, 0.7350),
    ("Kosarak", "SVT-ReTr-1:c^(2/3)-1D", 200, 0.9287),
    ("Kosarak", "SVT-ReTr-1:c^(2/3)-1D", 300, 0.9303),
    ("Kosarak", "SVT-S-1:c^(2/3)", 100, 0.9191),
    ("Kosarak", "SVT-S-1:c^(2/3)", 200, 0.9798),
    ("Kosarak", "SVT-S-1:c^(2/3)", 300, 0.9795),
    ("Kosarak", "SVT-RV-1:c^(2/3)", 25, 0.0349),
    ("Kosarak", "SVT-RV-1:c^(2/3)", 100, 0.3154),
    ("Kosarak", "SVT-RV-1:c^(2/3)", 300, 0.6415),
    ("Kosarak", "SVT-ReTr-1:c^(2/3)-5D", 100, 0.0879),
    ("Kosarak", "SVT-ReTr-1:c^(2/3)-5D", 300, 0.2708),
];

/// Checks each cell's mean SER against the reference within 0.01 plus
/// five standard errors of the mean.
pub fn check_ser(
    dataset: &str,
    ser: &SerAccumulator,
    problems: &mut Vec<String>,
    attempted: &mut u64,
) {
    for (label, c, mean, sd, runs) in ser.means() {
        *attempted += 1;
        let Some(&(_, _, _, want)) = REFERENCE_SER
            .iter()
            .find(|r| r.0 == dataset && r.1 == label && r.2 == c)
        else {
            problems.push(format!("no reference SER for (\"{dataset}\", \"{label}\", {c}, {mean:.4}), sd {sd:.4} over {runs} runs"));
            continue;
        };
        let tol = 0.01 + 5.0 * sd / (runs as f64).sqrt();
        if (mean - want).abs() > tol {
            problems.push(format!(
                "{label} c={c}: mean SER {mean:.4} is not within {tol:.4} of {want:.4}"
            ));
        }
    }
}
