//! Deterministic multi-threaded sweep driver.
//!
//! One *cell* is `(dataset, algorithm, c)`; the paper averages each cell
//! over 100 runs with a fresh random item order per run. Each run's
//! generator is derived in `O(1)` from `(cell seed, run index)` — a
//! SplitMix64 mix, no pre-forked generator vector — so `runs` can grow
//! without any per-run memory, and a run's randomness is a pure function
//! of its coordinates. The runner flattens the **whole cell grid** into
//! one task list and splits it across `std::thread::scope` workers — so
//! a sweep keeps every core busy even when individual cells are small,
//! and results are bit-identical regardless of thread count *and* of how
//! tasks are scheduled (each run derives its own generator; outcomes are
//! aggregated in run order per cell).
//!
//! The engine is zero-copy over shared per-dataset state: a
//! [`SweepContext`] (the dataset's one score sort — grouped runs plus
//! the `O(1)` rank table) is built lazily per [`PreparedDataset`] and
//! borrowed by every `(algorithm, c)` context of the sweep; no context
//! sorts anything of its own. Within a sweep one [`ExactContext`] per
//! `c` is shared by every algorithm, and each worker thread reuses one
//! [`RunScratch`] across all its runs.

use crate::metrics::{MeanStd, MetricSummary};
use crate::simulate::exact::ExactContext;
use crate::simulate::{RunOutcome, SweepContext};
use crate::spec::{AlgorithmSpec, ExperimentConfig, SimulationMode};
use dp_data::ScoreVector;
use dp_mechanisms::{counter_seed, DpRng};
use svt_core::streaming::{RunScratch, ScoreSource};
use svt_core::Result;

/// Aggregated metrics for one `(algorithm, c)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Legend label of the algorithm.
    pub algorithm: String,
    /// Cutoff `c`.
    pub c: usize,
    /// SER across runs.
    pub ser: MetricSummary,
    /// FNR across runs.
    pub fnr: MetricSummary,
}

/// A dataset prepared for sweeping: the raw scores plus the shared
/// [`SweepContext`] (grouped runs + rank table), computed lazily on
/// first use — one sort per dataset, however many score sources,
/// algorithms, and cutoffs a sweep throws at it. The context holds an
/// `Arc`-shared epoch-pinned snapshot, so worker threads thread the
/// *same* snapshot through every cell instead of rebuilding (or
/// re-cloning the tables) per cell.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// Dataset display name.
    pub name: String,
    scores: ScoreVector,
    sweep: std::sync::OnceLock<SweepContext>,
}

impl PreparedDataset {
    /// Prepares a dataset for sweeping.
    pub fn new(name: &str, scores: ScoreVector) -> Self {
        Self {
            name: name.to_owned(),
            scores,
            sweep: std::sync::OnceLock::new(),
        }
    }

    /// The underlying scores.
    pub fn scores(&self) -> &ScoreVector {
        &self.scores
    }

    /// The shared per-dataset sweep state, built (one sort) on first
    /// use and borrowed by every context of every sweep over this
    /// dataset.
    pub fn sweep_context(&self) -> &SweepContext {
        self.sweep.get_or_init(|| SweepContext::new(&self.scores))
    }

    /// Number of distinct score groups (the grouped score source's
    /// working set).
    pub fn n_groups(&self) -> usize {
        self.sweep_context().groups().num_groups()
    }
}

/// The cell-specific master seed every run of a `(algorithm, c)` cell
/// derives from, so cells are independent of one another.
fn cell_seed(config: &ExperimentConfig, alg: &AlgorithmSpec, c: usize) -> u64 {
    config
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(c as u64)
        .wrapping_add(hash_label(&alg.label()))
}

/// SplitMix64 at position `run` of the stream seeded by `cell_seed`:
/// the shared [`counter_seed`] derivation (golden-ratio Weyl increment
/// plus finalizer) jumps to the run's state in `O(1)` and decorrelates
/// consecutive positions. A run draws everything from this one
/// generator (or from forks of it, as the batched-noise drivers do), so
/// its output is a pure function of `(cell seed, run index)` and the
/// thread count cannot move it.
fn run_rng(cell_seed: u64, run: usize) -> DpRng {
    DpRng::seed_from_u64(counter_seed(cell_seed, run as u64))
}

/// One cell of work for [`execute_grid`]: a context reference, the
/// algorithm to run at the context's cutoff `c`, the cell seed, and how
/// many runs to derive from it. A run's generator is
/// `run_rng(seed, run_index)` — `O(1)` state per *cell*, however large
/// `runs` grows.
struct GridCell<'e, 'a, S: ScoreSource + ?Sized> {
    ctx: &'e ExactContext<'a, S>,
    alg: &'e AlgorithmSpec,
    c: usize,
    seed: u64,
    runs: usize,
}

/// Executes every run of every cell across the worker pool and returns
/// the outcomes grouped per cell, in run order.
///
/// The grid is flattened cell-major into one global run-index range and
/// split into contiguous chunks, one per worker; each worker walks its
/// range, deriving every run's generator on the fly from its
/// `(cell seed, run index)` coordinates, and reuses a single
/// [`RunScratch`] across all its runs. Because a run's randomness is a
/// pure function of its coordinates and outcomes are reassembled by
/// position, thread count and scheduling cannot change the result — and
/// nothing is ever allocated per run beyond its outcome.
fn execute_grid<S: ScoreSource + Sync + ?Sized>(
    cells: &[GridCell<'_, '_, S>],
    epsilon: f64,
    threads: usize,
) -> Result<Vec<Vec<RunOutcome>>> {
    // Cell-major flattening: cell boundaries as prefix sums over runs.
    let mut starts = Vec::with_capacity(cells.len() + 1);
    let mut total = 0usize;
    for cell in cells {
        starts.push(total);
        total += cell.runs;
    }
    starts.push(total);

    let threads = threads.clamp(1, total.max(1));
    let chunk_size = total.div_ceil(threads).max(1);
    let chunk_results: Vec<Result<Vec<RunOutcome>>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut begin = 0usize;
        while begin < total {
            let end = (begin + chunk_size).min(total);
            let starts = &starts;
            handles.push(scope.spawn(move || {
                let mut scratch = RunScratch::new();
                let mut out = Vec::with_capacity(end - begin);
                // The cell containing the chunk's first global index.
                let mut cell_idx = starts.partition_point(|&s| s <= begin) - 1;
                for global in begin..end {
                    while global >= starts[cell_idx + 1] {
                        cell_idx += 1;
                    }
                    let cell = &cells[cell_idx];
                    let mut rng = run_rng(cell.seed, global - starts[cell_idx]);
                    out.push(
                        cell.ctx
                            .run_once_into(cell.alg, epsilon, &mut rng, &mut scratch)?,
                    );
                }
                Ok(out)
            }));
            begin = end;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread must not panic"))
            .collect()
    });

    // Reassemble the flattened order (chunks are contiguous), then split
    // back into per-cell groups.
    let mut flat = Vec::with_capacity(total);
    for chunk in chunk_results {
        flat.extend(chunk?);
    }
    let mut grouped = Vec::with_capacity(cells.len());
    let mut rest = flat.into_iter();
    for cell in cells {
        grouped.push(rest.by_ref().take(cell.runs).collect());
    }
    Ok(grouped)
}

/// Aggregates one cell's outcomes (in run order) into a [`CellResult`].
fn aggregate(alg: &AlgorithmSpec, c: usize, outcomes: &[RunOutcome]) -> CellResult {
    let mut ser = MeanStd::default();
    let mut fnr = MeanStd::default();
    for o in outcomes {
        ser.push(o.ser);
        fnr.push(o.fnr);
    }
    CellResult {
        algorithm: alg.label(),
        c,
        ser: ser.into(),
        fnr: fnr.into(),
    }
}

/// Runs one cell: `runs` independent executions of `alg` at cutoff `c`
/// — a one-cell [`run_sweep`].
///
/// # Errors
/// Propagates the first per-run error (configuration problems surface on
/// the first run).
pub fn run_cell(
    dataset: &PreparedDataset,
    alg: &AlgorithmSpec,
    c: usize,
    config: &ExperimentConfig,
) -> Result<CellResult> {
    let config = ExperimentConfig {
        c_values: vec![c],
        ..config.clone()
    };
    Ok(run_sweep(dataset, std::slice::from_ref(alg), &config)?.remove(0))
}

/// Runs a full sweep: every algorithm × every `c` on one dataset, with
/// the whole cell grid parallelized across the worker pool.
///
/// Cell results are bit-identical to calling [`run_cell`] per cell (and
/// hence independent of thread count and scheduling): each cell's runs
/// use the same cell-seeded RNGs and are aggregated in the same order.
/// `config.mode` picks the score source once for the whole sweep; one
/// context per `c` is shared zero-copy by every algorithm, and every
/// context borrows the dataset's single [`SweepContext`].
///
/// # Errors
/// Propagates the first per-run error.
pub fn run_sweep(
    dataset: &PreparedDataset,
    algorithms: &[AlgorithmSpec],
    config: &ExperimentConfig,
) -> Result<Vec<CellResult>> {
    let sweep = dataset.sweep_context();
    match config.mode {
        SimulationMode::Auto => sweep_over(algorithms, config, |c| {
            ExactContext::new(&dataset.scores, sweep, c)
        }),
        SimulationMode::Grouped => {
            sweep_over(algorithms, config, |c| ExactContext::grouped(sweep, c))
        }
    }
}

/// [`run_sweep`] over the contexts `context` builds, one per cutoff.
fn sweep_over<'a, S: ScoreSource + Sync + ?Sized + 'a>(
    algorithms: &[AlgorithmSpec],
    config: &ExperimentConfig,
    context: impl Fn(usize) -> ExactContext<'a, S>,
) -> Result<Vec<CellResult>> {
    let contexts: Vec<_> = config.c_values.iter().map(|&c| (c, context(c))).collect();
    let grid: Vec<GridCell<S>> = algorithms
        .iter()
        .flat_map(|alg| {
            contexts.iter().map(move |(c, ctx)| GridCell {
                ctx,
                alg,
                c: *c,
                seed: cell_seed(config, alg, *c),
                runs: config.runs,
            })
        })
        .collect();
    let outcomes = execute_grid(&grid, config.epsilon, config.effective_threads())?;
    Ok(grid
        .iter()
        .zip(&outcomes)
        .map(|(cell, cell_outcomes)| aggregate(cell.alg, cell.c, cell_outcomes))
        .collect())
}

/// Stable tiny hash for mixing algorithm labels into cell seeds.
fn hash_label(label: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mechanisms::NoiseKernel;
    use svt_core::allocation::BudgetRatio;

    fn toy_dataset() -> PreparedDataset {
        let mut v = vec![];
        for i in 0..80u32 {
            v.push(match i {
                0..=9 => 500.0 - i as f64,
                _ => 20.0,
            });
        }
        PreparedDataset::new("toy", ScoreVector::new(v).unwrap())
    }

    fn toy_config() -> ExperimentConfig {
        ExperimentConfig {
            epsilon: 0.5,
            runs: 24,
            c_values: vec![5, 10],
            seed: 42,
            threads: 3,
            mode: SimulationMode::Auto,
        }
    }

    /// One cell driven by hand through the slice context on one thread:
    /// the same cell seed, run generators and aggregation as the runner.
    fn slice_cell(
        data: &PreparedDataset,
        alg: &AlgorithmSpec,
        c: usize,
        cfg: &ExperimentConfig,
    ) -> CellResult {
        let ctx = ExactContext::new(data.scores(), data.sweep_context(), c);
        let seed = cell_seed(cfg, alg, c);
        let mut scratch = RunScratch::new();
        let outcomes: Vec<RunOutcome> = (0..cfg.runs)
            .map(|run| {
                ctx.run_once_into(alg, cfg.epsilon, &mut run_rng(seed, run), &mut scratch)
                    .unwrap()
            })
            .collect();
        aggregate(alg, c, &outcomes)
    }

    fn full_lineup() -> [AlgorithmSpec; 6] {
        [
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
        ]
    }

    #[test]
    fn cell_aggregates_requested_runs() {
        let data = toy_dataset();
        let alg = AlgorithmSpec::Standard {
            ratio: BudgetRatio::OneToCTwoThirds,
        };
        let cell = run_cell(&data, &alg, 5, &toy_config()).unwrap();
        assert_eq!(cell.ser.runs, 24);
        assert_eq!(cell.fnr.runs, 24);
        assert!(cell.ser.mean >= 0.0 && cell.ser.mean <= 1.0);
        assert_eq!(cell.algorithm, "SVT-S-1:c^(2/3)");
        assert_eq!(cell.c, 5);
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let data = toy_dataset();
        let alg = AlgorithmSpec::Em;
        let mut cfg1 = toy_config();
        cfg1.threads = 1;
        let mut cfg8 = toy_config();
        cfg8.threads = 8;
        let a = run_cell(&data, &alg, 10, &cfg1).unwrap();
        let b = run_cell(&data, &alg, 10, &cfg8).unwrap();
        assert_eq!(a, b, "thread count changed results");
    }

    #[test]
    fn sweeps_cover_the_grid() {
        let data = toy_dataset();
        let algs = [
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToOne,
            },
            AlgorithmSpec::Em,
        ];
        let results = run_sweep(&data, &algs, &toy_config()).unwrap();
        assert_eq!(results.len(), 4);
        assert!(results.iter().any(|r| r.algorithm == "EM" && r.c == 5));
    }

    #[test]
    fn dpbook_routes_to_exact_engine_in_auto_mode() {
        let data = toy_dataset();
        let cell = run_cell(&data, &AlgorithmSpec::DpBook, 5, &toy_config()).unwrap();
        assert_eq!(cell.ser.runs, 24);
    }

    #[test]
    fn auto_mode_is_exact_mode_for_every_algorithm() {
        // Auto reads the raw slice for every algorithm: a sweep must be
        // bit-identical to driving `ExactContext::new` by hand per cell.
        let data = toy_dataset();
        let algs = full_lineup();
        let cfg = toy_config();
        let mut by_hand = Vec::new();
        for alg in &algs {
            for &c in &cfg.c_values {
                by_hand.push(slice_cell(&data, alg, c, &cfg));
            }
        }
        let a = run_sweep(&data, &algs, &cfg).unwrap();
        assert_eq!(
            a, by_hand,
            "Auto must route every algorithm to the exact engine"
        );
    }

    #[test]
    fn sweep_level_exact_and_grouped_engines_are_bit_identical() {
        // The sweep-level guarantee: the grouped score source consumes
        // identical draws, so a full sweep under either mode — same
        // master seed, every algorithm including SVT-DPBook — produces
        // *equal* cell results, not statistically-close ones. (The
        // per-run index streams are pinned by
        // `exact_and_grouped_index_streams_are_identical`; metric
        // equality follows because both sources score selections
        // through the same shared SweepContext::outcome.)
        let data = toy_dataset();
        let algs = full_lineup();
        let exact_cfg = toy_config();
        let mut grouped_cfg = toy_config();
        grouped_cfg.mode = SimulationMode::Grouped;
        let exact = run_sweep(&data, &algs, &exact_cfg).unwrap();
        let grouped = run_sweep(&data, &algs, &grouped_cfg).unwrap();
        assert_eq!(exact, grouped, "engines diverged somewhere in the sweep");
    }

    #[test]
    fn exact_and_grouped_index_streams_are_identical() {
        // The same contract, pinned at the sweep-runner's own
        // RNG-derivation layer: for every (algorithm, c, run index) of a
        // sweep grid, both score sources emit the same *selected index
        // stream* — not just the same metrics — from the run's
        // (cell seed, run index)-derived generator.
        let data = toy_dataset();
        let cfg = toy_config();
        let mut scratch_e = RunScratch::new();
        let mut scratch_g = RunScratch::new();
        for alg in &full_lineup() {
            for &c in &cfg.c_values {
                let exact = ExactContext::new(data.scores(), data.sweep_context(), c);
                let grouped = ExactContext::grouped(data.sweep_context(), c);
                let seed = cell_seed(&cfg, alg, c);
                for run in 0..cfg.runs {
                    let mut rng_e = run_rng(seed, run);
                    let mut rng_g = run_rng(seed, run);
                    let e = exact
                        .run_once_into(alg, cfg.epsilon, &mut rng_e, &mut scratch_e)
                        .unwrap();
                    let g = grouped
                        .run_once_into(alg, cfg.epsilon, &mut rng_g, &mut scratch_g)
                        .unwrap();
                    assert_eq!(
                        scratch_e.selected(),
                        scratch_g.selected(),
                        "{alg:?} c={c} run={run}: index streams diverged"
                    );
                    assert_eq!(e, g, "{alg:?} c={c} run={run}");
                }
            }
        }
    }

    #[test]
    fn exact_and_grouped_index_streams_are_identical_under_reference_kernel() {
        // The worker default (`RunScratch::new`) runs the vectorized
        // kernel, so the mirror test above pins that path; this variant
        // pins the same contract under the reference kernel, proving
        // the Exact ≡ Grouped equality is kernel-independent — both
        // sources consume whichever kernel the scratch carries.
        let data = toy_dataset();
        let cfg = toy_config();
        let mut scratch_e = RunScratch::with_kernel(
            dp_mechanisms::NoiseBuffer::DEFAULT_BATCH,
            NoiseKernel::Reference,
        );
        let mut scratch_g = RunScratch::with_kernel(
            dp_mechanisms::NoiseBuffer::DEFAULT_BATCH,
            NoiseKernel::Reference,
        );
        for alg in &full_lineup() {
            let c = cfg.c_values[0];
            let exact = ExactContext::new(data.scores(), data.sweep_context(), c);
            let grouped = ExactContext::grouped(data.sweep_context(), c);
            let seed = cell_seed(&cfg, alg, c);
            for run in 0..cfg.runs {
                let mut rng_e = run_rng(seed, run);
                let mut rng_g = run_rng(seed, run);
                exact
                    .run_once_into(alg, cfg.epsilon, &mut rng_e, &mut scratch_e)
                    .unwrap();
                grouped
                    .run_once_into(alg, cfg.epsilon, &mut rng_g, &mut scratch_g)
                    .unwrap();
                assert_eq!(
                    scratch_e.selected(),
                    scratch_g.selected(),
                    "{alg:?} c={c} run={run}: reference-kernel streams diverged"
                );
            }
        }
    }

    #[test]
    fn run_rng_is_the_shared_counter_derivation() {
        // The refactor onto `counter_seed` must not move any run's
        // generator: pin the derivation against the original inline
        // SplitMix64 step.
        for (seed, run) in [(42u64, 0usize), (42, 7), (0xdead_beef, 99), (u64::MAX, 3)] {
            let mut z = seed.wrapping_add((run as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let expected = DpRng::seed_from_u64(z ^ (z >> 31)).next_u64();
            assert_eq!(
                run_rng(seed, run).next_u64(),
                expected,
                "seed={seed} run={run}"
            );
        }
    }

    #[test]
    fn grouped_mode_runs_dpbook() {
        // The grouped score source handles SVT-DPBook's per-⊤
        // threshold refresh like any other variant.
        let data = toy_dataset();
        let mut cfg = toy_config();
        cfg.mode = SimulationMode::Grouped;
        let cell = run_cell(&data, &AlgorithmSpec::DpBook, 5, &cfg).unwrap();
        assert_eq!(cell.ser.runs, 24);
    }

    #[test]
    fn exact_mode_forces_exact_everywhere() {
        // The default mode runs the slice context: `run_cell` must be
        // bit-identical to driving `ExactContext::new` by hand.
        let data = toy_dataset();
        let cfg = toy_config();
        let alg = AlgorithmSpec::Standard {
            ratio: BudgetRatio::OneToOne,
        };
        let cell = run_cell(&data, &alg, 5, &cfg).unwrap();
        assert_eq!(cell.ser.runs, 24);
        assert_eq!(cell, slice_cell(&data, &alg, 5, &cfg));
    }

    #[test]
    fn growing_runs_preserves_the_outcome_prefix() {
        // The O(1) (cell seed, run index) derivation makes every run's
        // randomness a pure function of its coordinates: asking for more
        // runs must extend the sequence, not reshuffle it (the pre-fork
        // design kept this property via sequential forking; the counter
        // design keeps it by construction, without per-run memory).
        let data = toy_dataset();
        let alg = AlgorithmSpec::Em;
        let ctx = ExactContext::new(data.scores(), data.sweep_context(), 5);
        let cfg = toy_config();
        let seed = cell_seed(&cfg, &alg, 5);
        let outcomes = |runs: usize| {
            execute_grid(
                &[GridCell {
                    ctx: &ctx,
                    alg: &alg,
                    c: 5,
                    seed,
                    runs,
                }],
                cfg.epsilon,
                3,
            )
            .unwrap()
            .remove(0)
        };
        let short = outcomes(10);
        let long = outcomes(25);
        assert_eq!(short[..], long[..10], "prefix changed when runs grew");
    }

    #[test]
    fn growing_c_within_one_sweep_context_keeps_the_top_prefix() {
        // The shared SweepContext hands every c the same sorted order:
        // contexts at growing c see nested true-top prefixes (per-c
        // top-k sorts gave no such cross-c guarantee), so a sweep's
        // cells at different cutoffs are measured against consistent
        // ground truth.
        let data = toy_dataset();
        let sweep = data.sweep_context();
        let widest = sweep.true_top(80).to_vec();
        for c in [1usize, 5, 10, 40, 80] {
            assert_eq!(sweep.true_top(c), &widest[..c], "c={c}");
            let ctx = ExactContext::new(data.scores(), sweep, c);
            assert_eq!(
                ctx.true_top(),
                &widest[..c].iter().map(|&i| i as usize).collect::<Vec<_>>()[..],
                "context at c={c} disagrees with the shared prefix"
            );
        }
    }

    #[test]
    fn different_seeds_change_results() {
        let data = toy_dataset();
        let alg = AlgorithmSpec::Standard {
            ratio: BudgetRatio::OneToOne,
        };
        let mut cfg_b = toy_config();
        cfg_b.seed = 43;
        let a = run_cell(&data, &alg, 5, &toy_config()).unwrap();
        let b = run_cell(&data, &alg, 5, &cfg_b).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn sweep_equals_per_cell_execution() {
        // The cell-grid-parallel sweep must be bit-identical to running
        // every cell on its own: same cell-seeded RNGs, same run-order
        // aggregation — scheduling cannot change results.
        let data = toy_dataset();
        let algs = [
            AlgorithmSpec::DpBook,
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            AlgorithmSpec::Em,
        ];
        let cfg = toy_config();
        let sweep = run_sweep(&data, &algs, &cfg).unwrap();
        let mut per_cell = Vec::new();
        for alg in &algs {
            for &c in &cfg.c_values {
                per_cell.push(run_cell(&data, alg, c, &cfg).unwrap());
            }
        }
        assert_eq!(sweep, per_cell);
    }

    #[test]
    fn sweep_is_independent_of_thread_count() {
        let data = toy_dataset();
        let algs = [
            AlgorithmSpec::Standard {
                ratio: BudgetRatio::OneToOne,
            },
            AlgorithmSpec::Retraversal {
                ratio: BudgetRatio::OneToCTwoThirds,
                increment_d: 2.0,
            },
        ];
        let mut one = toy_config();
        one.threads = 1;
        let mut many = toy_config();
        many.threads = 13;
        let a = run_sweep(&data, &algs, &one).unwrap();
        let b = run_sweep(&data, &algs, &many).unwrap();
        assert_eq!(a, b, "thread count changed sweep results");
    }

    #[test]
    fn prepared_dataset_reports_group_count() {
        let data = toy_dataset();
        assert_eq!(data.n_groups(), 11); // 10 distinct head scores + tail
    }
}
