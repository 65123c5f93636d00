//! The layer table: each layer's public functions timed alone on the
//! workload's dataset, and the reconciliation of the per-run engine
//! time against Σ (count × unit cost).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dp_data::LiveScores;
use dp_mechanisms::exp_noise::Exponential;
use dp_mechanisms::fastmath::ln_into;
use dp_mechanisms::{
    counter_seed, BatchSample, BudgetLedger, DpRng, FsyncPolicy, Gumbel, Laplace, LedgerWal,
    NoiseBuffer, NoiseKernel, SvtBudget,
};
use svt_core::alg::StandardSvtConfig;
use svt_core::em_select::EmTopC;
use svt_core::session::SessionDriver;
use svt_core::streaming::{RunScratch, SparseOrder};
use svt_experiments::runner::{run_sweep, PreparedDataset};
use svt_experiments::simulate::exact::ExactContext;
use svt_experiments::simulate::SweepContext;
use svt_experiments::spec::SimulationMode;

use crate::inputs::SplitMix;
use crate::stats::{median, Metrics};
use crate::sweep::{self, Regime, ALGS, EPSILON};

/// Median over `samples` of `f`'s wall time divided by `per`, in ns.
fn ns_per(samples: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&times)
}

const BLOCK: usize = 4096;
const REPS: usize = 32;

fn uniforms(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    (0..len)
        .map(|_| ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64))
        .collect()
}

/// Word generation, the `ln` transform and the noise kernels.
pub fn noise_layers(m: &mut Metrics, seed: u64) {
    let mut rng = DpRng::seed_from_u64(seed);
    let mut words = vec![0u64; BLOCK];
    m.set(
        "rng.ns_per_word",
        ns_per(9, BLOCK * REPS, || {
            for _ in 0..REPS {
                rng.fill_u64s(&mut words);
                black_box(&words);
            }
        }),
        "ns",
    );
    let xs = uniforms(seed, BLOCK);
    let mut out = vec![0.0f64; BLOCK];
    m.set(
        "ln.ns_per_value.vectorized",
        ns_per(9, BLOCK * REPS, || {
            for _ in 0..REPS {
                ln_into(black_box(&xs), &mut out);
                black_box(&out);
            }
        }),
        "ns",
    );
    m.set(
        "ln.ns_per_value.libm",
        ns_per(9, BLOCK * REPS, || {
            for _ in 0..REPS {
                for (o, &x) in out.iter_mut().zip(black_box(&xs)) {
                    *o = x.ln();
                }
                black_box(&out);
            }
        }),
        "ns",
    );
    let laplace = Laplace::new(1.0).expect("valid scale");
    let exponential = Exponential::new(1.0).expect("valid scale");
    let gumbel = Gumbel::new(0.0, 1.0).expect("valid scale");
    let dists: [(&str, &dyn BatchSample); 3] = [
        ("laplace", &laplace),
        ("exponential", &exponential),
        ("gumbel", &gumbel),
    ];
    for (name, dist) in dists {
        for (kernel, kname) in [
            (NoiseKernel::Reference, "reference"),
            (NoiseKernel::Vectorized, "vectorized"),
        ] {
            let ns = ns_per(9, BLOCK * REPS, || {
                for _ in 0..REPS {
                    dist.sample_into_kernel(&mut rng, &mut out, kernel);
                    black_box(&out);
                }
            });
            m.set(&format!("noise.{name}.ns_per_value.{kname}"), ns, "ns");
        }
    }
}

/// Unit costs the reconciliation needs, kept from the probes.
struct UnitCosts {
    order_lazy: f64,
    order_eager: f64,
    gather_raw: f64,
    outcome: f64,
    laplace: f64,
    exponential: f64,
    /// Vectorized EM per run, by c.
    em: BTreeMap<usize, f64>,
}

/// Order stepping and score gathers at the positions a run examines.
fn traversal_layers(m: &mut Metrics, prepared: &PreparedDataset, seed: u64) -> (f64, f64, f64) {
    let scores = prepared.scores().as_slice();
    let groups = prepared.sweep_context().groups();
    let n = scores.len();
    // The lazy order stays sparse while (steps + 1) · 8 < n.
    let steps = (n / 16).min(200_000) / 64 * 64;
    let mut order = SparseOrder::new();
    let mut rng = DpRng::seed_from_u64(seed);
    let mut block = [0u32; 64];
    let lazy = ns_per(5, steps, || {
        order.reset(n);
        for _ in 0..steps / 64 {
            order.step_block(&mut rng, &mut block);
        }
        black_box(&block);
    });
    m.set("order.ns_per_step.lazy", lazy, "ns");
    let positions: Vec<usize> = order.prefix().iter().map(|&p| p as usize).collect();
    let eager = ns_per(3, n, || {
        order.reset_eager(n, &mut rng);
        black_box(order.emitted());
    });
    m.set("order.ns_per_step.eager", eager, "ns");
    let raw = ns_per(5, positions.len(), || {
        black_box(positions.iter().map(|&i| scores[i]).sum::<f64>());
    });
    let grouped = ns_per(5, positions.len(), || {
        black_box(
            positions
                .iter()
                .map(|&i| groups.score_of_item(i))
                .sum::<f64>(),
        );
    });
    m.set("gather.ns.raw", raw, "ns");
    m.set("gather.ns.grouped", grouped, "ns");
    (lazy, eager, raw)
}

/// EM per kernel, the §6 outcome and the cold context build.
fn engine_layers(
    m: &mut Metrics,
    prepared: &PreparedDataset,
    seed: u64,
) -> (BTreeMap<usize, f64>, f64) {
    let sweep = prepared.sweep_context();
    let mut em_vec = BTreeMap::new();
    let mut selected = Vec::new();
    for (kernel, kname) in [
        (NoiseKernel::Reference, "reference"),
        (NoiseKernel::Vectorized, "vectorized"),
    ] {
        let mut scratch = RunScratch::with_kernel(NoiseBuffer::DEFAULT_BATCH, kernel);
        let mut per_c = Vec::new();
        for &c in sweep::cutoffs("em") {
            let em = EmTopC::new(EPSILON, c, 1.0, true).expect("valid EM");
            let mut rng = DpRng::seed_from_u64(seed ^ c as u64);
            let ns = ns_per(33, 1, || {
                em.select_grouped_into(sweep.groups(), &mut rng, &mut scratch)
                    .expect("EM run on a valid snapshot");
            });
            per_c.push(ns);
            if kernel == NoiseKernel::Vectorized {
                em_vec.insert(c, ns);
            }
            selected = scratch.selected().to_vec();
        }
        m.set(
            &format!("em.ns_per_run.{kname}"),
            per_c.iter().sum::<f64>() / per_c.len() as f64,
            "ns",
        );
    }
    let cut = sweep.cut(*sweep::cutoffs("em").last().expect("cutoffs"));
    let outcome = ns_per(9, 256, || {
        for _ in 0..256 {
            black_box(sweep.outcome(&cut, black_box(&selected)));
        }
    });
    m.set("outcome.ns_per_call", outcome, "ns");
    let copy =
        dp_data::ScoreVector::new(prepared.scores().as_slice().to_vec()).expect("finite scores");
    let t0 = Instant::now();
    black_box(SweepContext::new(&copy));
    m.set("context.build_s", t0.elapsed().as_secs_f64(), "s");
    (em_vec, outcome)
}

/// Per-algorithm runs through `ExactContext::run_once_into` on one
/// thread: items examined and wall time per run, each cell reconciled
/// against Σ (count × unit cost). `reconciled` picks the algorithms
/// whose cells enter `reconcile.explained_share`.
fn select_layers(
    m: &mut Metrics,
    prepared: &PreparedDataset,
    seed: u64,
    costs: &UnitCosts,
    reconciled: &[&str],
) {
    let scores = prepared.scores();
    let sweep_ctx = prepared.sweep_context();
    let n = scores.len();
    let mut scratch = RunScratch::new();
    let (mut predicted_sum, mut measured_sum) = (0.0, 0.0);
    println!("reconciliation (single thread; predicted = Σ count × unit cost):");
    for key in ALGS {
        let alg = sweep::spec(key);
        let whole_list = matches!(key, "rv" | "retr5d");
        let mut examined_cells = Vec::new();
        let mut ns_cells = Vec::new();
        for &c in sweep::cutoffs(key) {
            let ctx = ExactContext::new(scores, sweep_ctx, c);
            // Whole-list runs cost up to ~0.1 s at AOL scale; a few
            // suffice there, while short runs are repeated for a stable
            // median.
            let runs = if whole_list {
                2usize.max(2_000_000 / n.max(1)).min(16)
            } else {
                24
            };
            let mut times = Vec::with_capacity(runs);
            let mut examined = 0u64;
            let mut tops = 0u64;
            for r in 0..runs {
                let mut rng =
                    DpRng::seed_from_u64(counter_seed(seed ^ 0x5e1e_c7ed ^ c as u64, r as u64));
                let t0 = Instant::now();
                ctx.run_once_into(&alg, EPSILON, &mut rng, &mut scratch)
                    .expect("valid configuration");
                times.push(t0.elapsed().as_nanos() as f64);
                examined += scratch.examined() as u64;
                tops += scratch.selected().len() as u64;
            }
            let examined = examined as f64 / runs as f64;
            let measured = median(&times);
            let (order, noise, gather, em) = if key == "em" {
                (0.0, 0.0, 0.0, costs.em.get(&c).copied().unwrap_or(0.0))
            } else {
                let order = if key == "rv" {
                    n as f64 * costs.order_eager
                } else {
                    examined * costs.order_lazy
                };
                let unit = if key == "svt_exp" {
                    costs.exponential
                } else {
                    costs.laplace
                };
                (order, examined * unit, examined * costs.gather_raw, 0.0)
            };
            let predicted = order + noise + gather + em + costs.outcome;
            println!(
                "  {key:<8} c={c:<4} examined {examined:>11.1}  ⊤ {:>6.1}  predicted {:>11.1} us \
                 (order {:.1} + noise {:.1} + gather {:.1} + em {:.1} + outcome {:.1})  \
                 measured {:>11.1} us  residual {:>+6.1}%",
                tops as f64 / runs as f64,
                predicted / 1e3,
                order / 1e3,
                noise / 1e3,
                gather / 1e3,
                em / 1e3,
                costs.outcome / 1e3,
                measured / 1e3,
                (measured - predicted) / measured * 100.0
            );
            if reconciled.contains(&key) {
                predicted_sum += predicted;
                measured_sum += measured;
            }
            examined_cells.push(examined);
            ns_cells.push(measured);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        m.set(
            &format!("select.examined_per_run.{key}"),
            mean(&examined_cells),
            "count",
        );
        m.set(&format!("select.ns_per_run.{key}"), mean(&ns_cells), "ns");
    }
    m.set(
        "reconcile.explained_share",
        predicted_sum / measured_sum,
        "ratio",
    );
}

/// Σ single-thread engine time ÷ (2 × two-thread `run_sweep` wall time)
/// over one pass of the regime's grid.
fn runner_layer(m: &mut Metrics, prepared: &PreparedDataset, regime: Regime, seed: u64) {
    let reps = if regime == Regime::Scan { 1 } else { 5 };
    let pass = |threads: usize| {
        let t = (0..reps)
            .map(|i| {
                let t0 = Instant::now();
                for (algs, cs) in regime.calls() {
                    let cfg = sweep::config(
                        cs,
                        regime.runs_per_cell(),
                        SplitMix::call_seed(seed, i),
                        threads,
                        SimulationMode::Auto,
                    );
                    run_sweep(prepared, &algs, &cfg).expect("valid sweep");
                }
                t0.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>();
        median(&t)
    };
    let one = pass(1);
    let two = pass(2);
    m.set("runner.parallel_efficiency", one / (2.0 * two), "ratio");
}

/// Every engine-side layer on `prepared`'s dataset.
pub fn engine_table(m: &mut Metrics, prepared: &PreparedDataset, regime: Regime, seed: u64) {
    noise_layers(m, seed);
    let (order_lazy, order_eager, gather_raw) = traversal_layers(m, prepared, seed);
    let (em, outcome) = engine_layers(m, prepared, seed);
    let costs = UnitCosts {
        order_lazy,
        order_eager,
        gather_raw,
        outcome,
        laplace: m
            .get("noise.laplace.ns_per_value.vectorized")
            .unwrap_or(0.0),
        exponential: m
            .get("noise.exponential.ns_per_value.vectorized")
            .unwrap_or(0.0),
        em,
    };
    select_layers(m, prepared, seed, &costs, regime.algs());
    runner_layer(m, prepared, regime, seed);
}

/// `SessionDriver::open` and `ask`, and a WAL charge append + sync.
pub fn session_wal_layers(m: &mut Metrics, dir: &Path, seed: u64) -> Result<(), String> {
    let config = StandardSvtConfig {
        budget: SvtBudget::halves(0.5).expect("valid budget"),
        sensitivity: 1.0,
        c: 64,
        monotonic: true,
    };
    let mut rng = DpRng::seed_from_u64(seed);
    m.set(
        "session.open_ns",
        ns_per(9, 256, || {
            for _ in 0..256 {
                black_box(SessionDriver::open(config, &mut rng).expect("valid config"));
            }
        }),
        "ns",
    );
    let mut driver = SessionDriver::open(config, &mut rng).expect("valid config");
    m.set(
        "session.ask_ns",
        ns_per(9, 4096, || {
            for i in 0..4096 {
                black_box(
                    driver
                        .ask(-1e9 - i as f64, 0.0)
                        .expect("below-threshold asks never halt"),
                );
            }
        }),
        "ns",
    );
    let mut wal =
        LedgerWal::open(&dir.join("probe.log"), FsyncPolicy::Manual).map_err(|e| e.to_string())?;
    let mut ledger = BudgetLedger::new(1, 1e9).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for i in 0..128 {
        let receipt = ledger
            .prepare_charge(i, "probe", 0.5)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        wal.append_charge(&receipt).map_err(|e| e.to_string())?;
        wal.sync().map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        ledger.apply_prepared(receipt).map_err(|e| e.to_string())?;
    }
    m.set("wal.append_sync_us", median(&times), "us");
    Ok(())
}

/// `LiveScores` build, increments and snapshots on the update stream
/// the serving scripts send (uniform items, +1 each). Returns the mean
/// increment (µs) and snapshot (ms) cost.
pub fn live_layers(m: &mut Metrics, scores: &[f64], seed: u64) -> (f64, f64) {
    let t0 = Instant::now();
    let mut live = LiveScores::from_scores(scores).expect("finite scores");
    m.set("live.build_s", t0.elapsed().as_secs_f64(), "s");
    let mut rng = SplitMix::new(seed ^ 0x11fe);
    let n = scores.len();
    let (mut inc, mut snap) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        for _ in 0..8 {
            let item = rng.below(n);
            let t0 = Instant::now();
            live.increment(item, 1.0).expect("finite update");
            inc.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        let t0 = Instant::now();
        black_box(live.snapshot());
        snap.push(t0.elapsed().as_nanos() as f64 / 1e6);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    m.set("live.increment_us", mean(&inc), "us");
    m.set("live.snapshot_ms", mean(&snap), "ms");
    (mean(&inc), mean(&snap))
}
