//! `bench_smoke` — short deterministic benchmark emitting `BENCH_svt.json`.
//!
//! Times two paper-style cells (`SVT-S-1:c^(2/3)` and `EM`, `c = 100`,
//! `ε = 0.1`) on synthetic power-law workloads at two sizes — a
//! mid-sized one and the AOL scale (2,290,685 items) — through the
//! engines:
//!
//! * `exact_scalar` / `em_peel` — the reference per-query paths (fresh
//!   allocations, eager full shuffle, per-draw noise; literal EM
//!   peeling, timed at the mid scale only);
//! * `exact_batched` — the zero-copy streaming path (reusable
//!   [`RunScratch`], sparse lazy Fisher–Yates, block-batched Laplace
//!   noise);
//! * `em_grouped_exact` — the exact engine's EM route
//!   (`run_once_into`): lazy per-group Gumbel order statistics with
//!   index-preserving uniform expansion — `O(G + c)` draws.
//!
//! Every cell reads scores off the raw slice (`ExactContext::new`).
//! Schemas 4–9 also timed a `*_grouped_*` twin of each streaming cell
//! through the grouped score source (`ExactContext::grouped`); a twin's
//! selections, and hence its `mean_ser`, always equalled its slice
//! sibling's, so the twins now live only as equality tests
//! (`simulate::exact`, `runner`) and the baseline no longer lists them.
//!
//! Schema 4 also records `context_setup` — the per-dataset wall-clock
//! of building the shared `SweepContext` (the sweep's *single*
//! grouping + rank table, amortized across every `(algorithm, c)` cell,
//! where each context formerly paid its own top-`c` pass).
//!
//! Schema 5 adds a `serving` section: one run of the `serve_smoke`
//! multi-tenant workload (`svt_experiments::serving`) driving the
//! sharded `svt-server` session store with concurrent worker threads,
//! recording qps and p50/p99 `submit_batch` latency and asserting that
//! every tenant's budget-receipt chain audits clean. Serving lines
//! carry no `engine` field, so the ratio gate below skips them (like
//! `context_setup`) — they track the serving trajectory without gating
//! on absolute wall-clock.
//!
//! Schema 6 extends the serving line with the durability columns the
//! workload now exercises: `shed` (requests refused by admission
//! control in the deterministic churn phase), `evicted` (sessions
//! reclaimed by the LRU cap), and `recovery_ms` (wall-clock of WAL
//! replay + chain re-verification after the workload's simulated
//! mid-run crash). `shed` and `evicted` are deterministic; `recovery_ms`
//! is wall-clock and, like qps, not gated.
//!
//! Schema 7 adds the post-2017 reference-suite variants as first-class
//! cell groups at both scales: `SVT-RV-1:c^(2/3)` (SVT-Revisited,
//! ⊤-only charging) through `rv_exact_scalar` / `rv_exact_batched`, and
//! `SVT-Exp-1:c^(2/3)` (one-sided exponential noise) through
//! `exp_exact_scalar` / `exp_exact_batched`. Each group's scalar path
//! anchors its ratio gate, mirroring the `SVT-S` group.
//!
//! Schema 8 splits `context_setup` into columns:
//! `context_setup_cold_ns` (building the shared `SweepContext` from raw
//! scores — the sweep's single grouping) and `score_update_ns` (one
//! `LiveScores` increment plus the publish that follows it, in the
//! steady state of a served dataset — what a one-item `update_scores`
//! batch pays: two ⌈√n⌉ overlay folds of warm-up, then 4·⌈√n⌉ timed
//! rounds, each a fresh item, with the last publish held as the
//! server's registry holds it, so four folds land in the timing).
//! Context lines still carry no `engine` field, so the ratio gate
//! skips them.
//!
//! Schema 9 adds the kernel-policy dimension. Every batched cell above
//! is now explicitly pinned to `NoiseKernel::Reference` (the libm path
//! whose noise stream is bit-identical to the scalar references —
//! exactly what those cells have always measured), and each group gains
//! a `*_vectorized` sibling running the same pipeline under
//! `NoiseKernel::Vectorized` (the batched polynomial-`ln` kernel,
//! deterministic but not bit-pinned to libm): `exact_batched_vectorized`
//! and `exp_*` likewise. `rv_exact_batched` times the SVT-Revisited
//! grouped skip-ahead (`svt_core::skip_ahead::revisited_select_grouped`:
//! one uniform per score group per ⊤ instead of one order step, `ν` and
//! gather per item). It draws no batched noise, so it has no
//! `*_vectorized` sibling: that cell would time the same code twice.
//! The grouped EM sampler peels its Gumbel keys one at a time through
//! libm under either kernel, so `em_grouped_vectorized` is no longer
//! timed either. Two stdout gates
//! ride along: every AOL-scale cell at or under 100 µs/run prints a
//! `[sub100us] <engine>` marker CI greps for, and each
//! `(dataset, algorithm)` group asserts its batched engine is no slower
//! than its scalar reference.
//!
//! Schema 10 drops schema 8's `context_setup_warm_ns` column, which
//! timed a persisted warm-start cache: the counting build of
//! `GroupedSnapshot::from_scores` outran it, and the cache is gone.
//! `context_setup_cold_ns` is now the best of three builds, each on a
//! fresh copy of the scores, like every other timing here. Its cells
//! also hold an `SVT-DPBook` group at both scales, with no change to
//! the line format: `dpbook_exact_scalar` (Alg. 2 through
//! `dpbook_select`, the group's ratio reference) and
//! `dpbook_exact_batched` (the streaming walk with Alg. 2's per-⊤ `ρ`
//! redraw, under the reference kernel). An `SVT-ReTr-1:c^(2/3)-3D`
//! group joins it the same way: `retr_exact_scalar` (`svt_retraversal`
//! through `run_once`, the group's ratio reference) and
//! `retr_exact_batched` (the streaming walk, under the reference
//! kernel). Its runs walk most of the mid-scale list and ~150k items at
//! AOL scale, so it is the one group whose walks pass the lazy order's
//! densify point (1/32 of the list) at both scales; the other SVTs halt
//! within a few thousand items.
//!
//! The workload, seeds, and run counts are fixed, so the *work
//! performed* is identical from machine to machine and run to run; only
//! wall-clock varies. Output is machine-readable JSON (ns/run per
//! engine per dataset size) so CI can track the perf trajectory, and
//! `--check BASELINE.json` turns the binary into a regression gate.
//! The gate compares **engine ratios**, not absolute wall-clock: within
//! each `(dataset, algorithm)` cell group the scalar reference engine
//! (`exact_scalar` and its `dpbook_`/`rv_`/`exp_`/`retr_` siblings for
//! SVT, `em_peel` for EM) is the denominator, so machine speed cancels
//! and only a change in the *relative* cost of a pipeline trips the
//! gate. Any engine whose ratio grows more than [`CHECK_TOLERANCE`] vs
//! the committed baseline fails the run with a per-cell diff. A group
//! without its reference is not ratio-gated: peeling is not timed at
//! AOL scale, so that scale's EM cell is guarded by CI's check of its
//! recorded budget instead.
//!
//! Usage: `bench_smoke [--out PATH] [--runs N] [--seed S]
//! [--check BASELINE]` (default `--out BENCH_svt.json`, `--runs 40`).

use dp_data::{LiveScores, ScoreVector};
use dp_mechanisms::{counter_seed, DpRng, NoiseBuffer, NoiseKernel};
use std::fmt::Write as _;
use std::time::Instant;
use svt_core::allocation::BudgetRatio;
use svt_core::streaming::RunScratch;
use svt_experiments::serving::{serve_smoke, ServeSmokeConfig, ServeSmokeReport};
use svt_experiments::simulate::exact::ExactContext;
use svt_experiments::simulate::SweepContext;
use svt_experiments::spec::AlgorithmSpec;

const AOL_SCALE: usize = 2_290_685;
const MID_SCALE: usize = 100_000;
const CUTOFF: usize = 100;
const EPSILON: f64 = 0.1;

/// Relative growth of an engine's ratio (vs its cell group's reference
/// engine) that fails `--check`. Gating on ratios cancels machine speed
/// — a uniformly slower CI runner moves numerator and denominator alike
/// — so the tolerance only has to absorb scheduling jitter, not
/// hardware variance; ±30 % remains generous for that while still
/// catching every real pipeline regression (the wins this file records
/// are ≥ 1.5×).
const CHECK_TOLERANCE: f64 = 0.30;

/// The scalar reference engine that anchors a `(dataset, algorithm)`
/// group's ratios.
fn reference_engine(algorithm: &str) -> &'static str {
    if algorithm == "EM" {
        "em_peel"
    } else if algorithm == "SVT-DPBook" {
        "dpbook_exact_scalar"
    } else if algorithm.starts_with("SVT-RV") {
        "rv_exact_scalar"
    } else if algorithm.starts_with("SVT-Exp") {
        "exp_exact_scalar"
    } else if algorithm.starts_with("SVT-ReTr") {
        "retr_exact_scalar"
    } else {
        "exact_scalar"
    }
}

/// Deterministic power-law scores, deterministically shuffled: real
/// datasets do not hand out item ids in rank order, and an
/// already-sorted vector would let the context build fill each group's
/// run in one sequential stream, understating its cost.
fn powerlaw_scores(n: usize) -> ScoreVector {
    let mut v: Vec<f64> = (1..=n as u64)
        .map(|r| (100_000.0 / (r as f64).powf(0.8)).round())
        .collect();
    // SplitMix64-driven Fisher–Yates, fixed seed: the same permutation
    // on every machine and run.
    for (k, i) in (1..n).rev().enumerate() {
        let z = counter_seed(0x0dd5_ba11_5eed_f00d, k as u64);
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
    ScoreVector::new(v).expect("nonempty finite scores")
}

struct CellTiming {
    dataset: String,
    n: usize,
    algorithm: &'static str,
    engine: &'static str,
    runs: usize,
    ns_per_run: u128,
    mean_ser: f64,
}

/// Per-dataset context columns: cold build (the sweep's single
/// grouping + rank table) and one sustained live score update
/// (increment + publish).
struct ContextSetup {
    dataset: String,
    n: usize,
    cold_ns: u128,
    score_update_ns: u128,
}

fn time_runs<F: FnMut(&mut DpRng) -> f64>(seed: u64, runs: usize, mut body: F) -> (u128, f64) {
    // One warm-up run (page in buffers, fault in the dataset).
    let mut warm = DpRng::seed_from_u64(seed ^ 0xdead_beef);
    let _ = body(&mut warm);
    // Timed passes over identical seeded work; keep the fastest. The
    // minimum is far more stable than the mean under scheduler or
    // neighbor noise, which matters once `--check` gates CI on it.
    // Cheap cells (a pass of a few ms) sit entirely inside a single
    // scheduler quantum, so any neighbor activity during the pass
    // inflates it end to end — for those, spend the budget on more
    // passes so at least one lands in a quiet window. Expensive cells
    // keep three passes: their per-pass cost already averages spikes
    // out, and more passes would dominate the bench's wall clock.
    const CHEAP_PASS_NS: u128 = 50_000_000;
    let mut best = u128::MAX;
    let mut mean_ser = 0.0;
    let mut pass = 0;
    let mut passes = 3;
    while pass < passes {
        let mut rng = DpRng::seed_from_u64(seed);
        let mut ser_sum = 0.0;
        let start = Instant::now();
        for _ in 0..runs {
            ser_sum += body(&mut rng);
        }
        let elapsed = start.elapsed().as_nanos();
        if pass == 0 && elapsed < CHEAP_PASS_NS {
            passes = 9;
        }
        best = best.min(elapsed);
        mean_ser = ser_sum / runs as f64;
        pass += 1;
    }
    (best / runs as u128, mean_ser)
}

fn bench_size(
    name: &str,
    n: usize,
    runs: usize,
    seed: u64,
    out: &mut Vec<CellTiming>,
    setups: &mut Vec<ContextSetup>,
) {
    let scores = powerlaw_scores(n);
    let svt = AlgorithmSpec::Standard {
        ratio: BudgetRatio::OneToCTwoThirds,
    };
    let svt_label = "SVT-S-1:c^(2/3)";
    // The sweep's single grouping, shared by every context below — the
    // *cold* column, best of three builds. Each builds from a fresh copy
    // of the scores, since a reused vector hands back its cached snapshot.
    let build = || {
        let copy = ScoreVector::new(scores.as_slice().to_vec()).expect("finite scores");
        let setup_start = Instant::now();
        let built = SweepContext::new(&copy);
        (setup_start.elapsed().as_nanos(), built)
    };
    let (mut cold_ns, sweep) = build();
    for _ in 1..3 {
        let (ns, built) = build();
        cold_ns = cold_ns.min(ns);
        assert_eq!(built, sweep, "every build must equal the first");
    }
    // The *update* column: one-item increment + publish rounds through
    // `LiveScores` in a served dataset's steady state — what a one-item
    // `update_scores` batch pays. The last publish stays held, as the
    // server's registry holds it. Round `k` changes item `k·A mod n`
    // (`A` a prime above `n`, so no item repeats within `n` rounds), so
    // the overlay folds every ⌈√n⌉ rounds: two folds of warm-up, then
    // four timed.
    let fold = n.isqrt() + usize::from(n.isqrt().pow(2) < n);
    let mut live = LiveScores::from_scores(scores.as_slice()).expect("finite scores");
    let mut held = live.snapshot();
    let mut update = |k: usize| {
        let item = (k as u64 * 0x9e37_79b1 % n as u64) as usize;
        let delta = if k % 2 == 0 { 1.0 } else { -1.0 } * ((k % 7) as f64 + 0.5);
        live.increment(item, delta).expect("in-range finite update");
        held = live.snapshot();
    };
    (0..2 * fold).for_each(&mut update);
    let update_start = Instant::now();
    (2 * fold..6 * fold).for_each(&mut update);
    let score_update_ns = update_start.elapsed().as_nanos() / (4 * fold) as u128;
    std::hint::black_box(&held);
    setups.push(ContextSetup {
        dataset: name.to_owned(),
        n,
        cold_ns,
        score_update_ns,
    });
    let exact = ExactContext::new(&scores, &sweep, CUTOFF);
    let cell = |algorithm: &'static str,
                engine: &'static str,
                runs: usize,
                (ns_per_run, mean_ser): (u128, f64)| CellTiming {
        dataset: name.to_owned(),
        n,
        algorithm,
        engine,
        runs,
        ns_per_run,
        mean_ser,
    };
    // The scalar references pay O(n) (or O(c·n) for EM peeling) per
    // run; keep their run counts small so the smoke stays short.
    let scalar_runs = if n >= AOL_SCALE {
        runs.div_ceil(8)
    } else {
        runs
    };
    let timing = time_runs(seed, scalar_runs, |rng| {
        exact.run_once(&svt, EPSILON, rng).expect("scalar run").ser
    });
    out.push(cell(svt_label, "exact_scalar", scalar_runs, timing));

    // Two scratches per engine, one per noise kernel: the Reference
    // scratch keeps the historical cells on the libm path they have
    // always measured (bit-identical to the scalar references), the
    // Vectorized scratch runs the identical pipeline on the batched
    // polynomial-ln kernel.
    let mut scratch = RunScratch::with_kernel(NoiseBuffer::DEFAULT_BATCH, NoiseKernel::Reference);
    let mut scratch_vec = RunScratch::new();
    debug_assert_eq!(scratch_vec.kernel(), NoiseKernel::Vectorized);
    let timing = time_runs(seed, runs, |rng| {
        exact
            .run_once_into(&svt, EPSILON, rng, &mut scratch)
            .expect("batched run")
            .ser
    });
    out.push(cell(svt_label, "exact_batched", runs, timing));

    let timing = time_runs(seed, runs, |rng| {
        exact
            .run_once_into(&svt, EPSILON, rng, &mut scratch_vec)
            .expect("vectorized batched run")
            .ser
    });
    out.push(cell(svt_label, "exact_batched_vectorized", runs, timing));

    // The other SVT groups: SVT-DPBook (Alg. 2, the Figure-4 baseline),
    // the post-2017 reference-suite variants, SVT-Revisited and the
    // exponential-noise SVT, and SVT-ReTr at 3D (the §5 remedy, whose
    // walks pass the densify point), each through the scalar reference
    // and the streaming path — under both kernels for SVT-Exp, the same
    // split as the SVT-S group above. SVT-Revisited's skip-ahead draws
    // no batched noise, so its group has no vectorized cell; the
    // SVT-DPBook and SVT-ReTr walks are SVT-S's, so their groups time
    // the reference kernel only.
    let groups = [
        (
            AlgorithmSpec::DpBook,
            "SVT-DPBook",
            ("dpbook_exact_scalar", "dpbook_exact_batched", None),
        ),
        (
            AlgorithmSpec::Revisited {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            "SVT-RV-1:c^(2/3)",
            ("rv_exact_scalar", "rv_exact_batched", None),
        ),
        (
            AlgorithmSpec::ExpNoise {
                ratio: BudgetRatio::OneToCTwoThirds,
            },
            "SVT-Exp-1:c^(2/3)",
            (
                "exp_exact_scalar",
                "exp_exact_batched",
                Some("exp_exact_batched_vectorized"),
            ),
        ),
        (
            AlgorithmSpec::Retraversal {
                ratio: BudgetRatio::OneToCTwoThirds,
                increment_d: 3.0,
            },
            "SVT-ReTr-1:c^(2/3)-3D",
            ("retr_exact_scalar", "retr_exact_batched", None),
        ),
    ];
    for (spec, label, (scalar_engine, batched_engine, batched_vec)) in groups {
        let timing = time_runs(seed, scalar_runs, |rng| {
            exact.run_once(&spec, EPSILON, rng).expect("scalar run").ser
        });
        out.push(cell(label, scalar_engine, scalar_runs, timing));

        let timing = time_runs(seed, runs, |rng| {
            exact
                .run_once_into(&spec, EPSILON, rng, &mut scratch)
                .expect("batched run")
                .ser
        });
        out.push(cell(label, batched_engine, runs, timing));

        let Some(batched_vec) = batched_vec else {
            continue;
        };
        let timing = time_runs(seed, runs, |rng| {
            exact
                .run_once_into(&spec, EPSILON, rng, &mut scratch_vec)
                .expect("vectorized batched run")
                .ser
        });
        out.push(cell(label, batched_vec, runs, timing));
    }

    // The EM cell. Literal peeling is O(c·n) per run — at AOL scale
    // that is ~10 s of ln() calls per run, so the scalar reference is
    // timed at the mid scale only (the grouped route covers both
    // scales).
    if n < AOL_SCALE {
        let em_runs = runs.div_ceil(8);
        let timing = time_runs(seed, em_runs, |rng| {
            exact
                .run_once(&AlgorithmSpec::Em, EPSILON, rng)
                .expect("em peel run")
                .ser
        });
        out.push(cell("EM", "em_peel", em_runs, timing));
    }

    // The exact engine's EM route (what `SimulationMode::Auto`
    // runs): lazy per-group order statistics, O(G + c) draws per run.
    let timing = time_runs(seed, runs, |rng| {
        exact
            .run_once_into(&AlgorithmSpec::Em, EPSILON, rng, &mut scratch)
            .expect("em grouped-exact run")
            .ser
    });
    out.push(cell("EM", "em_grouped_exact", runs, timing));
}

/// The satellite gate: within each `(dataset, algorithm)` group the
/// batched pipeline must not lose to its own scalar reference — the
/// exact regression `rv_exact_batched` shipped with before the
/// forked-stream driver landed.
///
/// Two tiers, because the two batched siblings make different claims:
///
/// * the **vectorized** cell is the production default (the sweep
///   runner's workers run [`NoiseKernel::Vectorized`]) and must be
///   strictly `≤` scalar;
/// * the **reference** cell exists to keep the libm bit-compat path
///   honest; where the batched path draws per item it does the same
///   libm `ln` per draw as the scalar loop, so the honest margin can be
///   as small as the avoided per-run allocation. It gets a 15%
///   allowance so a same-speed tie can't flip the gate on a noisy box
///   while a real regression (the old interactive wrapper was
///   1.8–1.9× scalar) still trips it. SVT-DPBook's walk, SVT-RV's
///   skip-ahead and the grouped EM route, which have no vectorized
///   sibling, are held to the strict tier.
///
/// The SVT-ReTr group is held to neither tier: at the mid scale, where
/// the scores fit in cache, its walk read 0.92–1.20× its scalar
/// reference over nine runs on a 2-core VM, so either tier would flake.
/// The ratio gate of `--check` still covers it.
fn assert_batched_beats_scalar(cells: &[CellTiming]) {
    // (strict vectorized cell, reference-kernel cell, scalar reference)
    let pairs = [
        ("exact_batched_vectorized", "exact_batched", "exact_scalar"),
        (
            "dpbook_exact_batched",
            "dpbook_exact_batched",
            "dpbook_exact_scalar",
        ),
        ("rv_exact_batched", "rv_exact_batched", "rv_exact_scalar"),
        (
            "exp_exact_batched_vectorized",
            "exp_exact_batched",
            "exp_exact_scalar",
        ),
        ("em_grouped_exact", "em_grouped_exact", "em_peel"),
    ];
    const REFERENCE_ALLOWANCE: f64 = 1.15;
    for (vectorized, reference, scalar) in pairs {
        for s in cells.iter().filter(|c| c.engine == scalar) {
            let in_cell = |engine: &str| {
                cells
                    .iter()
                    .find(|c| c.dataset == s.dataset && c.engine == engine)
            };
            if let Some(v) = in_cell(vectorized) {
                assert!(
                    v.ns_per_run <= s.ns_per_run,
                    "{}/{vectorized}: {} ns/run is slower than {scalar}'s {} ns/run",
                    s.dataset,
                    v.ns_per_run,
                    s.ns_per_run
                );
            }
            if let Some(r) = in_cell(reference) {
                let cap = (s.ns_per_run as f64 * REFERENCE_ALLOWANCE) as u128;
                assert!(
                    r.ns_per_run <= cap,
                    "{}/{reference}: {} ns/run exceeds {scalar}'s {} ns/run by more than {:.0}%",
                    s.dataset,
                    r.ns_per_run,
                    s.ns_per_run,
                    (REFERENCE_ALLOWANCE - 1.0) * 100.0
                );
            }
        }
    }
}

fn render_json(
    cells: &[CellTiming],
    setups: &[ContextSetup],
    serving: &ServeSmokeReport,
    seed: u64,
    speedup: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": 10,");
    let _ = writeln!(s, "  \"bench\": \"svt_cell\",");
    let _ = writeln!(
        s,
        "  \"cell\": {{\"c\": {CUTOFF}, \"epsilon\": {EPSILON}}},"
    );
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"aol_scale_exact_speedup\": {speedup:.2},");
    s.push_str("  \"context_setup\": [\n");
    for (i, setup) in setups.iter().enumerate() {
        let comma = if i + 1 == setups.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"dataset\": \"{}\", \"n\": {}, \"context_setup_cold_ns\": {}, \"score_update_ns\": {}}}{}",
            setup.dataset, setup.n, setup.cold_ns, setup.score_update_ns, comma
        );
    }
    s.push_str("  ],\n");
    // Serving lines intentionally omit the `engine` field so
    // `parse_baseline` (and therefore the ratio gate) skips them.
    s.push_str("  \"serving\": [\n");
    let _ = writeln!(
        s,
        "    {{\"workload\": \"serve_smoke\", \"tenants\": {}, \"threads\": {}, \"sessions\": {}, \"queries\": {}, \"batches\": {}, \"qps\": {:.0}, \"p50_batch_ns\": {}, \"p99_batch_ns\": {}, \"positives\": {}, \"shed\": {}, \"evicted\": {}, \"recovery_ms\": {:.3}, \"ledgers_verified\": {}}}",
        serving.tenants,
        serving.threads,
        serving.sessions,
        serving.queries,
        serving.batches,
        serving.qps,
        serving.p50_batch_ns,
        serving.p99_batch_ns,
        serving.positives,
        serving.shed,
        serving.evicted,
        serving.recovery_ms,
        serving.ledgers_verified
    );
    s.push_str("  ],\n");
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"dataset\": \"{}\", \"n\": {}, \"algorithm\": \"{}\", \"engine\": \"{}\", \"runs\": {}, \"ns_per_run\": {}, \"mean_ser\": {:.4}}}{}",
            c.dataset, c.n, c.algorithm, c.engine, c.runs, c.ns_per_run, c.mean_ser, comma
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts `"key": "value"` from one JSON line.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// Extracts `"key": <integer>` from one JSON line.
fn json_int_field(line: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One parsed baseline cell: `(dataset, algorithm, engine, ns_per_run)`.
type BaselineCell = (String, String, &'static str, u128);

/// Parses the per-cell lines of a committed `BENCH_svt.json` (schema 2
/// through 10 — the per-cell `algorithm` field is required for ratio
/// grouping; cells are keyed by `(dataset, engine)`; schema 4's
/// `context_setup` and schema 5/6's `serving` lines carry no engine and
/// are skipped).
fn parse_baseline(text: &str) -> Vec<BaselineCell> {
    let mut cells = Vec::new();
    for line in text.lines() {
        let (Some(dataset), Some(algorithm), Some(engine), Some(ns)) = (
            json_str_field(line, "dataset"),
            json_str_field(line, "algorithm"),
            json_str_field(line, "engine"),
            json_int_field(line, "ns_per_run"),
        ) else {
            continue;
        };
        // Intern the engine name against the known set so comparisons
        // are typo-proof.
        let known = [
            "exact_scalar",
            "exact_batched",
            "exact_batched_vectorized",
            "dpbook_exact_scalar",
            "dpbook_exact_batched",
            "rv_exact_scalar",
            "rv_exact_batched",
            "rv_exact_batched_vectorized",
            "exp_exact_scalar",
            "exp_exact_batched",
            "exp_exact_batched_vectorized",
            "retr_exact_scalar",
            "retr_exact_batched",
            "em_peel",
            "em_grouped_exact",
        ];
        if let Some(&engine) = known.iter().find(|&&e| e == engine) {
            cells.push((dataset, algorithm, engine, ns));
        }
    }
    cells
}

/// Compares fresh timings against the committed baseline on **engine
/// ratios**: within each `(dataset, algorithm)` group every engine's
/// `ns_per_run` is divided by the group's reference engine's, in the
/// fresh run and in the baseline separately, and the two ratios are
/// compared. Machine speed multiplies numerator and denominator alike,
/// so it cancels; what's gated is the relative cost of each pipeline.
/// Returns an error message listing every engine whose ratio grew more
/// than `CHECK_TOLERANCE`; prints (but tolerates) ratios that *shrank*
/// by more, since that means the committed baseline is stale and should
/// be regenerated. Reference engines themselves are only checked for
/// presence (their ratio is 1 by construction).
fn check_against_baseline(cells: &[CellTiming], baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        return Err(format!("baseline {baseline_path} contains no cells"));
    }
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    // A reference engine missing from the fresh run breaks its whole
    // group; report that once, not once per dependent engine.
    let mut missing_references = std::collections::BTreeSet::new();
    for (dataset, algorithm, engine, base_ns) in &baseline {
        let Some(fresh) = cells
            .iter()
            .find(|c| &c.dataset == dataset && c.engine == *engine)
        else {
            regressions.push(format!(
                "  {dataset}/{engine}: present in baseline but missing from this run"
            ));
            continue;
        };
        let reference = reference_engine(algorithm);
        let Some(base_ref_ns) = baseline
            .iter()
            .find(|(d, a, e, _)| d == dataset && a == algorithm && *e == reference)
            .map(|&(_, _, _, ns)| ns)
        else {
            continue; // group has no reference engine: nothing to gate on
        };
        if *engine == reference {
            continue;
        }
        let fresh_ref_ns = cells
            .iter()
            .find(|c| &c.dataset == dataset && c.engine == reference)
            .map(|c| c.ns_per_run)
            .unwrap_or(0);
        if fresh_ref_ns == 0 {
            if missing_references.insert((dataset.clone(), reference)) {
                regressions.push(format!(
                    "  {dataset}/{reference}: reference engine missing from this run"
                ));
            }
            continue;
        }
        let base_ratio = *base_ns as f64 / base_ref_ns.max(1) as f64;
        let fresh_ratio = fresh.ns_per_run as f64 / fresh_ref_ns as f64;
        let rel = fresh_ratio / base_ratio;
        let line = format!(
            "  {dataset}/{engine}: vs {reference} was {base_ratio:.3e}, now {fresh_ratio:.3e} ({:+.1}%)",
            (rel - 1.0) * 100.0
        );
        if rel > 1.0 + CHECK_TOLERANCE {
            regressions.push(line);
        } else if rel < 1.0 - CHECK_TOLERANCE {
            improvements.push(line);
        }
    }
    if !improvements.is_empty() {
        println!(
            "note: {} engine ratio(s) are >{:.0}% better than the committed baseline; \
             consider regenerating {baseline_path}:",
            improvements.len(),
            CHECK_TOLERANCE * 100.0
        );
        for line in &improvements {
            println!("{line}");
        }
    }
    if regressions.is_empty() {
        println!(
            "perf check passed: every engine ratio within +{:.0}% of {baseline_path}",
            CHECK_TOLERANCE * 100.0
        );
        Ok(())
    } else {
        Err(format!(
            "perf regression: {} engine ratio(s) exceed the +{:.0}% tolerance vs {baseline_path}:\n{}",
            regressions.len(),
            CHECK_TOLERANCE * 100.0,
            regressions.join("\n")
        ))
    }
}

fn main() {
    let mut out_path = String::from("BENCH_svt.json");
    let mut check_path: Option<String> = None;
    let mut runs = 40usize;
    let mut seed = 0x5f37_59df_u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            "--runs" => {
                runs = value("--runs").parse().unwrap_or(0);
                if runs == 0 {
                    eprintln!("invalid value for --runs (want a positive integer)");
                    std::process::exit(2);
                }
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for --seed");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: bench_smoke [--out PATH] [--runs N] [--seed S] [--check BASELINE]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut cells = Vec::new();
    let mut setups = Vec::new();
    bench_size("powerlaw", MID_SCALE, runs, seed, &mut cells, &mut setups);
    bench_size(
        "powerlaw-aol-scale",
        AOL_SCALE,
        runs,
        seed,
        &mut cells,
        &mut setups,
    );

    let scalar = cells
        .iter()
        .find(|c| c.n == AOL_SCALE && c.engine == "exact_scalar")
        .expect("scalar cell present");
    let batched = cells
        .iter()
        .find(|c| c.n == AOL_SCALE && c.engine == "exact_batched")
        .expect("batched cell present");
    let speedup = scalar.ns_per_run as f64 / batched.ns_per_run.max(1) as f64;

    // The serving smoke: a short multi-tenant run over the sharded
    // session store, audited end to end. Seeded off the benchmark seed
    // so the workload (though not the wall-clock) is reproducible.
    let serving = serve_smoke(&ServeSmokeConfig {
        queries_per_session: 250,
        seed: seed ^ 0x5e1f_5e18,
        ..ServeSmokeConfig::default()
    });
    assert_eq!(
        serving.ledgers_verified, serving.tenants,
        "every tenant ledger must audit clean"
    );

    assert_batched_beats_scalar(&cells);

    println!("engine timings (c = {CUTOFF}, eps = {EPSILON}):");
    for c in &cells {
        println!(
            "  {:>20} n={:>9} {:>16} {:>13} {:>12} ns/run  ({} runs, mean SER {:.3})",
            c.dataset, c.n, c.algorithm, c.engine, c.ns_per_run, c.runs, c.mean_ser
        );
    }
    // AOL-scale cells at or under 100 µs/run, one greppable marker each.
    for c in &cells {
        if c.n >= AOL_SCALE && c.ns_per_run <= 100_000 {
            println!("[sub100us] {}", c.engine);
        }
    }
    println!("AOL-scale exact engine speedup (scalar / batched): {speedup:.1}x");
    for s in &setups {
        println!(
            "  shared SweepContext setup: {:>20} n={:>9} cold {:>12} ns, score update {:>8} ns",
            s.dataset, s.n, s.cold_ns, s.score_update_ns
        );
    }
    println!(
        "serving smoke: {} tenants x {} threads, {} queries in {} batches, \
         {:.0} qps, p50 {} ns, p99 {} ns per batch, crash recovery {:.1} ms, \
         {} shed / {} evicted in churn, {}/{} ledgers audited clean",
        serving.tenants,
        serving.threads,
        serving.queries,
        serving.batches,
        serving.qps,
        serving.p50_batch_ns,
        serving.p99_batch_ns,
        serving.recovery_ms,
        serving.shed,
        serving.evicted,
        serving.ledgers_verified,
        serving.tenants
    );

    let json = render_json(&cells, &setups, &serving, seed, speedup);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if let Some(baseline) = check_path {
        if let Err(message) = check_against_baseline(&cells, &baseline) {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}
