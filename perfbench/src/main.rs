//! The repository's benchmark: selection sweeps and the serving store,
//! end to end and layer by layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_halting --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! they are the per-layer ones, from a run that records spans.

mod inputs;
mod layers;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dp_data::DatasetSpec;
use svt_experiments::runner::PreparedDataset;
use svt_server::{SessionStore, TenantId};

use inputs::{shuffled_scores, InputSize, ScratchDir, SplitMix};
use serve::{Budget, Durability, Mix, Op, Plan, Tally, Window};
use stats::{median, Latencies, Metrics};
use sweep::Regime;

const WORKLOADS: [&str; 4] = [
    "sweep_halting",
    "sweep_scan",
    "serve_sessions",
    "serve_live_aol",
];

/// Client threads (and `run_sweep` workers): two, the core count of the
/// VM the benchmark was made on.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// How long the sweeps' store probe runs its traced window.
const PROBE_SLICE: Duration = Duration::from_millis(500);

#[derive(Clone, Copy)]
struct Run {
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Scaled-down inputs for the self-check.
    small: bool,
    threads: usize,
}

/// One workload run's result.
#[derive(Default)]
struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Deterministic counts, which must repeat exactly across runs,
    /// thread counts and the traced/untraced modes.
    counts: BTreeMap<String, u64>,
    /// Spans of the workload's own traced window; the self-check holds
    /// `trace.spans` to it.
    own_spans: Option<f64>,
}

impl Report {
    fn problems(&mut self, attempted: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += problems.len() as u64;
        self.problems.extend(problems);
    }

    fn tally(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.problems.extend(t.errors.iter().cloned());
    }

    /// The tracing overhead between the workload's own untraced and
    /// traced windows, and the traced window's span count.
    fn trace_overhead(&mut self, plain_rate: f64, traced_rate: f64, spans: &[Vec<trace::Span>]) {
        let n = spans.iter().map(Vec::len).sum::<usize>() as f64;
        self.metrics.set(
            "trace.overhead_share",
            1.0 - traced_rate / plain_rate,
            "ratio",
        );
        self.metrics.set("trace.spans", n, "count");
        self.own_spans = Some(n);
    }
}

fn input_sizes(m: &mut Metrics, name: &str, items: usize, groups: usize) {
    let size = InputSize::of(items, groups);
    let llc = inputs::llc_bytes();
    println!(
        "input {name}: {} items, {} score groups, {} B scores + {} B group tables = {:.1}x the {} B LLC",
        size.items,
        size.groups,
        size.score_bytes,
        size.group_table_bytes,
        (size.score_bytes + size.group_table_bytes) as f64 / llc.max(1) as f64,
        llc
    );
    m.set("input.items", size.items as f64, "count");
    m.set("input.score_bytes", size.score_bytes as f64, "B");
    m.set(
        "input.group_table_bytes",
        size.group_table_bytes as f64,
        "B",
    );
    m.set("machine.llc_bytes", llc as f64, "B");
}

/// Prints the self-time profile and writes the spans to
/// `.perfbench/spans-<workload>-<seed>.csv`.
fn print_profile(spans: &[Vec<trace::Span>], name: &str, seed: u64) {
    println!("{}", trace::render_profile(&trace::profile(spans)));
    let file = Path::new(".perfbench").join(format!("spans-{name}-{seed}.csv"));
    let _ = std::fs::create_dir_all(".perfbench");
    match std::fs::write(&file, trace::to_csv(spans)) {
        Ok(()) => println!("spans written to {}", file.display()),
        Err(e) => println!("spans not written ({e})"),
    }
}

/// The end-to-end metrics from an untraced window.
///
/// Neighbours on a shared 2-core VM slow whole stretches of a run, so
/// throughput is the rate the system sustains in its faster stretches:
/// the 90th percentile of per-slice rates. Latencies drift with the
/// machine more than that, so they are per-layer metrics (per call
/// kind) and only printed here.
fn e2e_metrics(
    m: &mut Metrics,
    setup_s: &[f64],
    rates: Vec<f64>,
    latencies_us: Vec<f64>,
    slices: &str,
    calls: &str,
) {
    let rates = Latencies::new(rates);
    let latencies = Latencies::new(latencies_us);
    m.set("setup_s", median(setup_s), "s");
    m.set_opt(
        "ops_per_s",
        rates.quantile(90.0),
        "1/s",
        "no slice completed",
    );
    println!(
        "samples: {} set-ups, {} {slices} (rate p50 {:.1}/s), {} {calls} (latency p50 {:.1} us, p90 {:.1} us)",
        setup_s.len(),
        rates.len(),
        rates.quantile(50.0).unwrap_or(f64::NAN),
        latencies.len(),
        latencies.quantile(50.0).unwrap_or(f64::NAN),
        latencies.quantile(90.0).unwrap_or(f64::NAN)
    );
}

fn sweep_workload(run: Run, regime: Regime, name: &str) -> Report {
    let mut r = Report::default();
    let spec = if run.small {
        DatasetSpec::kosarak()
    } else {
        DatasetSpec::aol()
    };
    let scores = shuffled_scores(&spec, run.seed);
    let (prepared, first_setup_s) = sweep::setup(spec.name, &scores);
    let groups = prepared.n_groups();
    let window = Duration::from_secs_f64(run.seconds);
    let timed = if run.trace {
        input_sizes(&mut r.metrics, spec.name, scores.len(), groups);
        // Each traced-run window makes at least 8 passes, so its median
        // pass rate rests on more than one pass (a scan pass of five
        // calls takes ~0.8 s on AOL).
        let quarter = window / 4;
        let mut timed = sweep::timed(&prepared, regime, run.seed, run.threads, quarter, 8, false);
        let traced = sweep::timed(
            &prepared,
            regime,
            run.seed ^ 0x7ace,
            run.threads,
            quarter,
            8,
            true,
        );
        let spans = std::slice::from_ref(&traced.spans);
        r.trace_overhead(median(&timed.pass_rates), median(&traced.pass_rates), spans);
        print_profile(spans, name, run.seed);
        layers::engine_table(&mut r.metrics, &prepared, regime, run.seed);
        store_probe(&mut r, run, name);
        timed.merge(traced);
        timed
    } else {
        // A cold set-up before each of SETUPS parts of the window, as in
        // `serve_workload`; the first one's dataset is the one measured.
        let part = window / SETUPS as u32;
        let mut setup_s = vec![first_setup_s];
        let mut t = sweep::Timed::default();
        for i in 0..SETUPS {
            if i > 0 {
                setup_s.push(sweep::setup(spec.name, &scores).1);
            }
            let seed = SplitMix::call_seed(run.seed, i as u64);
            t.merge(sweep::timed(
                &prepared,
                regime,
                seed,
                run.threads,
                part,
                1,
                false,
            ));
        }
        println!(
            "{name}: {} runs in {} run_sweep calls ({} passes); setup {:?} s",
            t.runs,
            t.calls,
            t.pass_rates.len(),
            setup_s
        );
        e2e_metrics(
            &mut r.metrics,
            &setup_s,
            t.pass_rates.clone(),
            t.call_us.clone(),
            "grid passes",
            "run_sweep calls",
        );
        t
    };
    r.attempted += timed.calls;
    r.failed += timed.failed;
    r.problems.extend(timed.errors.iter().cloned());
    let mut ser_problems = Vec::new();
    let mut ser_attempted = 0;
    sweep::check_ser(spec.name, &timed.ser, &mut ser_problems, &mut ser_attempted);
    r.problems(ser_attempted, ser_problems);
    let checked = sweep::check(&prepared, regime, run.seed);
    r.problems(checked.attempted, checked.problems);
    for (key, examined) in &checked.examined {
        r.counts.insert(format!("examined.{key}"), *examined);
    }
    r.counts.insert("top_answers".into(), checked.tops);
    r.counts.insert("check_runs".into(), checked.runs);
    if run.trace {
        let examined: u64 = checked.examined.values().sum();
        r.metrics
            .set("count.items_examined", examined as f64, "count");
        r.metrics
            .set("count.top_answers", checked.tops as f64, "count");
    }
    r
}

/// The store layers on a sweep workload, which has no store: every
/// per-layer metric is reported on every workload, so a 2-tenant store
/// holding the Kosarak stand-in runs the session script for them. Those
/// figures describe that store, not the sweep, and its counts are not
/// the workload's.
fn store_probe(r: &mut Report, run: Run, name: &str) {
    let scores = shuffled_scores(&DatasetSpec::kosarak(), run.seed);
    let plan = Plan {
        mix: Mix::Sessions,
        tenants: 2,
        items: scores.len(),
    };
    let scratch =
        ScratchDir::new(&format!("{name}-store")).expect("scratch directory in the checkout");
    let store = serve::build_store(plan, Durability::Dir(scratch.path()), scores.as_slice())
        .expect("probe store");
    let traced = serve::window(
        &store,
        plan,
        run.seed ^ 0x7ace,
        run.threads,
        Budget::Time(PROBE_SLICE),
        true,
    );
    serving_layers(
        r,
        run,
        plan,
        scores.as_slice(),
        name,
        (store, scratch.path()),
        traced,
    );
}

/// The store's per-layer metrics: per-call latencies from `traced`, a
/// traced window on `store` (whose WAL is in the given directory); the
/// same script as long again on one client and on a WAL-less store;
/// recovery of `store`; the session, WAL and live-score probes; and the
/// check script, whose deterministic counts it returns.
fn serving_layers(
    r: &mut Report,
    run: Run,
    plan: Plan,
    scores: &[f64],
    name: &str,
    (store, wal_dir): (SessionStore, &Path),
    traced: Window,
) -> BTreeMap<String, u64> {
    let slice = Duration::from_nanos(traced.elapsed_ns);
    r.tally(&traced.tally);
    let m = &mut r.metrics;
    let lat = |w: &Window, op: Op| Latencies::new(w.tally.latencies(op).to_vec());
    let tail = |l: &Latencies, p: f64, what: &str| -> f64 {
        // The highest percentile up to `p` with ten samples beyond it.
        for q in [p, 99.0, 90.0, 75.0] {
            if q <= p {
                if let Some(v) = l.tail(q) {
                    if q < p {
                        println!("{what}: p{p} reported as p{q} ({} samples)", l.len());
                    }
                    return v;
                }
            }
        }
        println!("{what}: p{p} reported as p50 ({} samples)", l.len());
        l.p50().unwrap_or(f64::NAN)
    };
    let p50 = |l: &Latencies| l.p50().unwrap_or(f64::NAN);
    for (op, key, unit, scale, tail_p) in [
        (Op::Open, "open_us", "us", 1.0, 99.0),
        (Op::Batch, "batch_us", "us", 1.0, 99.0),
        (Op::Item, "item_us", "us", 1.0, 99.0),
        (Op::Update, "update_ms", "ms", 1e-3, 90.0),
    ] {
        let l = lat(&traced, op);
        m.set(&format!("store.{key}.p50"), p50(&l) * scale, unit);
        let name = format!("store.{key}.p{tail_p:.0}");
        m.set(&name, tail(&l, tail_p, &name) * scale, unit);
    }
    // `update_scores` minus the `LiveScores` work it does: the script's
    // increments (4 per batch under the live mix, 8 otherwise) and one
    // snapshot.
    let update_us = lat(&traced, Op::Update).mean();
    let (inc_us, snap_ms) = layers::live_layers(m, scores, run.seed);
    let per_update = if plan.mix == Mix::Live { 4.0 } else { 8.0 };
    m.set(
        "dataset.update_overhead_ms",
        (update_us.unwrap_or(f64::NAN) - per_update * inc_us) / 1e3 - snap_ms,
        "ms",
    );
    m.set("store.attempted", traced.tally.attempted as f64, "count");
    m.set("store.failed", traced.tally.failed as f64, "count");
    m.set("store.shed", traced.tally.shed as f64, "count");
    let one = serve::window(&store, plan, run.seed ^ 0x0c1, 1, Budget::Time(slice), true);
    let one_p99 = tail(&lat(&one, Op::Batch), 99.0, "store.batch_us.one_client");
    m.set("store.batch_us.one_client", one_p99, "us");
    m.set(
        "store.lock_wait_us",
        m.get("store.batch_us.p99").unwrap_or(f64::NAN) - one_p99,
        "us",
    );
    let no_wal = serve::build_store(plan, Durability::None, scores).expect("ephemeral store");
    let w = serve::window(
        &no_wal,
        plan,
        run.seed ^ 0x0a1,
        run.threads,
        Budget::Time(slice),
        false,
    );
    drop(no_wal);
    m.set("store.open_us.no_wal", p50(&lat(&w, Op::Open)), "us");
    r.tally(&one.tally);
    r.tally(&w.tally);
    let rec = serve::recover(store, plan, wal_dir, 3);
    let m = &mut r.metrics;
    m.set("store.recovery_ms", median(&rec.recovery_ms), "ms");
    m.set("wal.replay_ms", rec.replay_ms, "ms");
    m.set("ledger.verify_ms", rec.verify_ms, "ms");
    r.problems(1, rec.problems);
    let probe =
        ScratchDir::new(&format!("{name}-probe")).expect("scratch directory in the checkout");
    if let Err(e) = layers::session_wal_layers(&mut r.metrics, probe.path(), run.seed) {
        r.problems(1, vec![format!("session/WAL probe: {e}")]);
    }
    drop(probe);
    let counts = check_script(r, run, plan, scores, name);
    let count = |k: &str| counts.get(k).map_or(f64::NAN, |&v| v as f64);
    let m = &mut r.metrics;
    m.set("wal.records", count("wal_records"), "count");
    m.set("wal.bytes", count("wal_bytes"), "B");
    m.set("wal.fsyncs", count("wal_fsyncs"), "count");
    m.set("count.sessions_opened", count("sessions_opened"), "count");
    m.set("count.updates_applied", count("updates_applied"), "count");
    counts
}

/// The fixed-size check script: the same rounds on fresh WAL stores at
/// two threads and at one, with counts that must agree exactly, and
/// exact recovery of each store. Returns the one-thread counts (empty
/// if a store could not be built, which counts as a failure).
fn check_script(
    r: &mut Report,
    run: Run,
    plan: Plan,
    scores: &[f64],
    name: &str,
) -> BTreeMap<String, u64> {
    let rounds = match (plan.mix, run.small) {
        (Mix::Live, false) => 8,
        (Mix::Live, true) => 24,
        (Mix::Sessions, _) => 24,
    };
    let mut results = Vec::new();
    for threads in [2, 1] {
        let scratch = ScratchDir::new(&format!("{name}-check{threads}"))
            .expect("scratch directory in the checkout");
        let counters = std::sync::Arc::new(serve::WalCounters::default());
        let store = match serve::build_store(
            plan,
            Durability::Counted(scratch.path(), counters.clone()),
            scores,
        ) {
            Ok(s) => s,
            Err(e) => {
                r.problems(1, vec![format!("check store: {e}")]);
                return BTreeMap::new();
            }
        };
        let w = serve::window(
            &store,
            plan,
            run.seed ^ 0xc4ec,
            threads,
            Budget::Rounds(rounds),
            false,
        );
        r.tally(&w.tally);
        let epochs: u64 = (0..plan.tenants)
            .map(|t| store.dataset_epoch(TenantId(t as u64)).unwrap_or(u64::MAX))
            .sum();
        let rec = serve::recover(store, plan, scratch.path(), 1);
        r.problems(1, rec.problems);
        let load = std::sync::atomic::Ordering::Relaxed;
        let mut counts = BTreeMap::new();
        counts.insert("sessions_opened".to_owned(), w.tally.opens);
        counts.insert("updates_applied".to_owned(), w.tally.updates);
        counts.insert("items_asked".to_owned(), w.tally.items_asked);
        counts.insert("store_calls".to_owned(), w.tally.attempted);
        counts.insert("dataset_epochs".to_owned(), epochs);
        counts.insert("wal_records".to_owned(), counters.appends.load(load));
        counts.insert("wal_bytes".to_owned(), counters.bytes.load(load));
        counts.insert("wal_fsyncs".to_owned(), counters.syncs.load(load));
        counts.insert("wal_records_replayed".to_owned(), rec.records as u64);
        counts.insert("wal_log_bytes".to_owned(), rec.log_bytes);
        // Under the live mix, which epoch an asking session pins depends
        // on how the two threads interleave, so its ⊤ count is taken
        // from the one-thread run only.
        if plan.mix == Mix::Sessions || threads == 1 {
            counts.insert("top_answers".to_owned(), w.tally.tops);
        }
        results.push(counts);
    }
    let one = results.pop().expect("one-thread counts");
    let two = results.pop().expect("two-thread counts");
    let mut problems = Vec::new();
    for (k, v) in &two {
        if one.get(k) != Some(v) {
            problems.push(format!(
                "count {k}: {v} at 2 threads, {:?} at 1 thread",
                one.get(k)
            ));
        }
    }
    r.problems(1, problems);
    one
}

fn serve_workload(run: Run, mix: Mix, name: &str) -> Report {
    let mut r = Report::default();
    // Kosarak's tail lies below the item threshold, which keeps sessions
    // far from their cutoff; it is small enough for the self-check too.
    let spec = match (mix, run.small) {
        (Mix::Sessions, _) | (Mix::Live, true) => DatasetSpec::kosarak(),
        (Mix::Live, false) => DatasetSpec::aol(),
    };
    let scores = shuffled_scores(&spec, run.seed);
    let plan = Plan {
        mix,
        tenants: if mix == Mix::Sessions { 32 } else { 1 },
        items: scores.len(),
    };
    let raw = scores.as_slice();
    let scratch = ScratchDir::new(name).expect("scratch directory in the checkout");
    // One set-up: a store on a fresh WAL directory with every tenant and
    // dataset registered, and its wall time in s.
    let set_up = |i: usize| {
        let dir = scratch.path().join(format!("setup-{i}"));
        std::fs::create_dir_all(&dir).expect("setup directory");
        let t0 = Instant::now();
        let store = serve::build_store(plan, Durability::Dir(&dir), raw).expect("store setup");
        (store, dir, t0.elapsed().as_secs_f64())
    };
    let (store, dir, first_setup_s) = set_up(0);
    let counts = if run.trace {
        let prepared = PreparedDataset::new(spec.name, scores.clone());
        input_sizes(&mut r.metrics, spec.name, scores.len(), prepared.n_groups());
        let eighth = Duration::from_secs_f64(run.seconds / 8.0);
        let plain = serve::window(
            &store,
            plan,
            run.seed,
            run.threads,
            Budget::Time(eighth),
            false,
        );
        let traced = serve::window(
            &store,
            plan,
            run.seed ^ 0x7ace,
            run.threads,
            Budget::Time(eighth),
            true,
        );
        r.tally(&plain.tally);
        r.trace_overhead(plain.rate(), traced.rate(), &traced.spans);
        print_profile(&traced.spans, name, run.seed);
        let counts = serving_layers(&mut r, run, plan, raw, name, (store, &dir), traced);
        let count = |k: &str| counts.get(k).map_or(f64::NAN, |&v| v as f64);
        r.metrics
            .set("count.top_answers", count("top_answers"), "count");
        r.metrics
            .set("count.items_examined", count("items_asked"), "count");
        layers::engine_table(&mut r.metrics, &prepared, Regime::Halting, run.seed);
        counts
    } else {
        // The window is cut into SETUPS parts with a set-up before each
        // (the first builds the store the window runs on; the others
        // are dropped at once). The machine's speed drifts within a
        // run, so set-ups spread over it give a steadier median than
        // set-ups back to back.
        let part = Duration::from_secs_f64(run.seconds / SETUPS as f64);
        let slices = ((part.as_secs_f64() * 4.0).round() as usize).max(1);
        let mut setup_s = vec![first_setup_s];
        let mut rates = Vec::new();
        let mut tally = Tally::default();
        for i in 0..SETUPS {
            if i > 0 {
                let (spare, _, s) = set_up(i);
                setup_s.push(s);
                drop(spare);
            }
            let w = serve::window(
                &store,
                plan,
                SplitMix::call_seed(run.seed, i as u64),
                run.threads,
                Budget::Time(part),
                false,
            );
            rates.extend(w.tally.rates(w.elapsed_ns, slices));
            tally.merge(w.tally);
        }
        e2e_metrics(
            &mut r.metrics,
            &setup_s,
            rates,
            tally.latencies(Op::Batch).to_vec(),
            "~0.25 s slices",
            "submit_batch calls",
        );
        println!(
            "{name}: {} calls ({} opens, {} updates, {} items, {} ⊤) in {:.1} s; setup {:?} s",
            tally.ops(),
            tally.opens,
            tally.updates,
            tally.items_asked,
            tally.tops,
            run.seconds,
            setup_s
        );
        println!("call mix: {}", tally.mix());
        r.tally(&tally);
        let rec = serve::recover(store, plan, &dir, 3);
        println!(
            "recovery: {} records, {} B of log, {:?} ms",
            rec.records, rec.log_bytes, rec.recovery_ms
        );
        r.problems(1, rec.problems);
        check_script(&mut r, run, plan, raw, name)
    };
    for (k, v) in counts {
        r.counts.insert(format!("serve.{k}"), v);
    }
    drop(scratch);
    r
}

fn run_workload(name: &str, run: Run) -> Report {
    match name {
        "sweep_halting" => sweep_workload(run, Regime::Halting, name),
        "sweep_scan" => sweep_workload(run, Regime::Scan, name),
        "serve_sessions" => serve_workload(run, Mix::Sessions, name),
        "serve_live_aol" => serve_workload(run, Mix::Live, name),
        other => unreachable!("workload {other} validated by the caller"),
    }
}

/// Metric names `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let start = text
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?;
    let body = &text[start..];
    let end = body.find(']').ok_or("unterminated section")?;
    Ok(body[..end]
        .split("\"name\":")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_owned))
        .collect())
}

/// The scaled-down mode: every workload, small inputs, a fraction of a
/// second each, untraced twice (once on one thread) and traced once.
/// Asserts that each run is correct, emits exactly the declared metrics,
/// reports the same deterministic counts and, traced, its own span count.
fn self_check(seed: u64) -> Result<(), String> {
    let e2e = declared("end_to_end")?;
    let layer = declared("per_layer")?;
    for name in WORKLOADS {
        let base = Run {
            seed,
            seconds: 0.6,
            trace: false,
            small: true,
            threads: THREADS,
        };
        let runs = [
            base,
            Run { threads: 1, ..base },
            Run {
                trace: true,
                ..base
            },
        ];
        let mut counts: Option<BTreeMap<String, u64>> = None;
        for run in runs {
            let report = run_workload(name, run);
            let label = format!("{name} (trace {}, {} threads)", run.trace, run.threads);
            if report.failed > 0 || !report.problems.is_empty() {
                return Err(format!("{label}: {:?}", report.problems));
            }
            let want = if run.trace { &layer } else { &e2e };
            let got: Vec<&str> = report.metrics.names().collect();
            let missing: Vec<&String> =
                want.iter().filter(|w| !got.contains(&w.as_str())).collect();
            let extra: Vec<&&str> = got
                .iter()
                .filter(|g| !want.iter().any(|w| w == *g))
                .collect();
            if !missing.is_empty() || !extra.is_empty() {
                return Err(format!(
                    "{label}: missing {missing:?}, undeclared {extra:?}"
                ));
            }
            if run.trace && report.metrics.get("trace.spans") != report.own_spans {
                return Err(format!(
                    "{label}: trace.spans {:?} is not the workload's own span count {:?}",
                    report.metrics.get("trace.spans"),
                    report.own_spans
                ));
            }
            match &counts {
                None => counts = Some(report.counts),
                Some(first) if *first != report.counts => {
                    return Err(format!(
                        "{label}: counts {:?} differ from {first:?}",
                        report.counts
                    ));
                }
                Some(_) => {}
            }
        }
        println!(
            "self-check {name}: ok, counts {:?}",
            counts.unwrap_or_default()
        );
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check [--seed <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut self_check_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--self-check" => self_check_mode = true,
            _ => usage(),
        }
    }
    if self_check_mode {
        match self_check(seed) {
            Ok(()) => println!("self-check passed"),
            Err(e) => {
                eprintln!("self-check failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let Some(name) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        usage()
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage();
    }
    let run = Run {
        seed,
        seconds,
        trace,
        small: false,
        threads: THREADS,
    };
    println!(
        "workload {name}, seed {seed}, {seconds} s, trace {}, {} threads ({} available)",
        u8::from(trace),
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = run_workload(&name, run);
    if !report.counts.is_empty() {
        println!("deterministic counts: {:?}", report.counts);
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    let metrics = report.metrics.render_json();
    for missing in &report.metrics.missing {
        println!("not measured: {missing}");
    }
    let correct =
        report.failed == 0 && report.problems.is_empty() && report.metrics.missing.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted.max(1),
        report.failed
    );
}
