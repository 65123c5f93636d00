//! The serving workloads: closed-loop clients over a WAL-backed
//! `SessionStore`.
//!
//! Two logical clients each run a seeded script; a client sends its
//! next call only after the previous one returns (in-process callers
//! wait for each reply). With two threads each client has its own
//! thread; with one thread the clients' rounds are interleaved, so the
//! per-tenant call sequence — and with it every answer — is the same.
//!
//! A session's numeric queries follow the repository's `serve_smoke`
//! workload (see `SESSION_QUERIES`). The rest of the proportions are
//! assumed, since no workload in the repository fixes them: 8–24 item
//! asks per session and an 8-item score update after half the sessions
//! under the session mix; 4-item increments against sessions of one
//! 16-query batch and 32 item asks under the live mix. A run prints the
//! measured share of each call kind (`Tally::mix`).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dp_mechanisms::wal::{FileSink, FsyncPolicy, WalError, WalSink};
use dp_mechanisms::SvtBudget;
use svt_core::alg::StandardSvtConfig;
use svt_server::{BatchQuery, ScoreUpdate, ServerConfig, ServerError, SessionStore, TenantId};

use crate::inputs::SplitMix;
use crate::trace::{Span, Tracer};

/// Each tenant's total budget: large enough that no open in a run is
/// refused for budget.
const TENANT_EPSILON: f64 = 1e9;
/// The session shape of the repository's `serve_smoke` workload
/// (`ServeSmokeConfig::default()` in `svt-experiments::serving`): each
/// session answers 500 numeric queries in `submit_batch` calls of 64,
/// with ε = 0.5 and a ⊤ allowance of c = 25. Copied rather than read
/// from there, so a change to that workload does not change this one.
const SESSION_QUERIES: usize = 500;
const BATCH_LEN: usize = 64;
const SESSION_EPSILON: f64 = 0.5;
/// A script's sessions stay far below it (about 5 ⊤ per 500 queries),
/// so no ask is refused by a halted session.
const SESSION_CUTOFF: usize = 25;

/// Which script the clients run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Both clients open sessions on their own tenants, submit numeric
    /// batches and item queries, update scores and close.
    Sessions,
    /// Client 0 streams score updates to tenant 0; client 1 opens
    /// sessions that pin the newest snapshot and asks items.
    Live,
}

/// The store calls the scripts make, in the order of `Tally::lat_us`.
#[derive(Clone, Copy)]
pub enum Op {
    Open,
    Batch,
    Item,
    Update,
    Close,
}

const SPAN_NAMES: [&str; 5] = [
    "store.open_session",
    "store.submit_batch",
    "store.submit_item",
    "store.update_scores",
    "store.close_session",
];

/// Store shards: the 32 tenants of `serve_sessions` share them.
const SHARDS: usize = 16;
/// Threshold for item queries: far above the stand-ins' tails, so ⊤
/// answers come from the head or from noise.
const ITEM_THRESHOLD: f64 = 1000.0;

/// A serving workload's shape.
#[derive(Clone, Copy)]
pub struct Plan {
    pub mix: Mix,
    pub tenants: usize,
    /// Items in each tenant's dataset.
    pub items: usize,
}

impl Plan {
    pub fn config(&self) -> ServerConfig {
        ServerConfig {
            shards: SHARDS,
            ..ServerConfig::default()
        }
    }

    fn session_config() -> StandardSvtConfig {
        StandardSvtConfig {
            budget: SvtBudget::halves(SESSION_EPSILON).expect("valid session budget"),
            sensitivity: 1.0,
            c: SESSION_CUTOFF,
            monotonic: true,
        }
    }
}

/// What one client (or a merge of clients) did in a window.
#[derive(Default)]
pub struct Tally {
    /// Latency of each completed call, per `Op`, in µs.
    pub lat_us: [Vec<f64>; 5],
    /// Completion time of each call since the window started, in ns.
    pub done_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Calls refused with a retryable overload (counted apart from
    /// failures; none are expected without admission limits).
    pub shed: u64,
    pub tops: u64,
    pub opens: u64,
    pub updates: u64,
    pub items_asked: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        for (a, b) in self.lat_us.iter_mut().zip(other.lat_us) {
            a.extend(b);
        }
        self.done_ns.extend(other.done_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.tops += other.tops;
        self.opens += other.opens;
        self.updates += other.updates;
        self.items_asked += other.items_asked;
        self.errors.extend(other.errors);
    }

    fn error(&mut self, e: &ServerError) {
        if e.is_retryable() {
            self.shed += 1;
        } else {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e.to_string());
            }
        }
    }

    pub fn ops(&self) -> u64 {
        self.done_ns.len() as u64
    }

    pub fn latencies(&self, op: Op) -> &[f64] {
        &self.lat_us[op as usize]
    }

    /// Each call kind's share of the completed calls.
    pub fn mix(&self) -> String {
        let total = self.ops().max(1) as f64;
        SPAN_NAMES
            .iter()
            .zip(&self.lat_us)
            .map(|(name, l)| format!("{name} {:.1}%", 100.0 * l.len() as f64 / total))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Calls completed per second in each of `bins` equal slices of a
    /// window `window_ns` long.
    pub fn rates(&self, window_ns: u64, bins: usize) -> Vec<f64> {
        let width = (window_ns / bins as u64).max(1);
        let mut counts = vec![0u64; bins];
        for &t in &self.done_ns {
            let b = (t / width) as usize;
            if b < bins {
                counts[b] += 1;
            }
        }
        counts
            .iter()
            .map(|&c| c as f64 / (width as f64 / 1e9))
            .collect()
    }
}

/// How long a window runs: until a deadline, or a fixed number of
/// rounds per client (the deterministic check script).
#[derive(Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Rounds(usize),
}

struct Client<'a> {
    store: &'a SessionStore,
    plan: Plan,
    id: usize,
    rng: SplitMix,
    rounds: usize,
}

impl Client<'_> {
    fn call<R>(
        &self,
        op: Op,
        tally: &mut Tally,
        tracer: &mut Tracer,
        start: Instant,
        f: impl FnOnce() -> R,
    ) -> R {
        tally.attempted += 1;
        let (r, ns) = tracer.span(SPAN_NAMES[op as usize], self.rounds as u64, |_| f());
        tally.lat_us[op as usize].push(ns as f64 / 1e3);
        tally.done_ns.push(start.elapsed().as_nanos() as u64);
        r
    }

    fn over(deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Runs one round of the script; false once the deadline passed.
    fn round(
        &mut self,
        tally: &mut Tally,
        tracer: &mut Tracer,
        start: Instant,
        deadline: Option<Instant>,
    ) -> bool {
        if Self::over(deadline) {
            return false;
        }
        let request = ((self.id as u64) << 40) | self.rounds as u64;
        self.rounds += 1;
        let mut rng = self.rng.clone();
        let result = tracer.span("client.round", request, |tracer| {
            match (self.plan.mix, self.id) {
                (Mix::Live, 0) => self.update_round(&mut rng, tally, tracer, start),
                (Mix::Live, _) => self.session_round(
                    &mut rng,
                    TenantId(0),
                    16,
                    (32, 32),
                    false,
                    tally,
                    tracer,
                    start,
                    deadline,
                ),
                (Mix::Sessions, k) => {
                    let owned: Vec<usize> = (k..self.plan.tenants).step_by(2).collect();
                    let tenant = TenantId(owned[rng.below(owned.len())] as u64);
                    self.session_round(
                        &mut rng,
                        tenant,
                        SESSION_QUERIES,
                        (8, 24),
                        true,
                        tally,
                        tracer,
                        start,
                        deadline,
                    )
                }
            }
        });
        self.rng = rng;
        result.0
    }

    fn update_round(
        &self,
        rng: &mut SplitMix,
        tally: &mut Tally,
        tracer: &mut Tracer,
        start: Instant,
    ) -> bool {
        let updates: Vec<ScoreUpdate> = (0..4)
            .map(|_| ScoreUpdate::Increment {
                item: rng.below(self.plan.items),
                delta: 1.0,
            })
            .collect();
        match self.call(Op::Update, tally, tracer, start, || {
            self.store.update_scores(TenantId(0), &updates)
        }) {
            Ok(_) => tally.updates += updates.len() as u64,
            Err(e) => tally.error(&e),
        }
        true
    }

    /// One session: open, `queries` numeric queries in batches of
    /// `BATCH_LEN`, item asks, an optional score update, close.
    #[allow(clippy::too_many_arguments)]
    fn session_round(
        &self,
        rng: &mut SplitMix,
        tenant: TenantId,
        queries: usize,
        (items_lo, items_hi): (usize, usize),
        with_update: bool,
        tally: &mut Tally,
        tracer: &mut Tracer,
        start: Instant,
        deadline: Option<Instant>,
    ) -> bool {
        let seed = rng.next_u64();
        let session = match self.call(Op::Open, tally, tracer, start, || {
            self.store
                .open_session(tenant, Plan::session_config(), seed)
        }) {
            Ok(id) => {
                tally.opens += 1;
                id
            }
            Err(e) => {
                tally.error(&e);
                return true;
            }
        };
        // The script is drawn in full before any call, so what a round
        // asks never depends on how far it got before the deadline.
        let queries: Vec<BatchQuery> = (0..queries)
            .map(|_| BatchQuery {
                session,
                // Mostly far below the threshold, with rare spikes: a
                // few ⊤ per session, never `c`.
                query_answer: if rng.below(97) == 0 {
                    1e9
                } else {
                    -1e9 + rng.below(1000) as f64
                },
                threshold: 0.0,
            })
            .collect();
        let items: Vec<usize> = (0..rng.between(items_lo, items_hi))
            .map(|_| rng.below(self.plan.items))
            .collect();
        let updates: Vec<ScoreUpdate> = if with_update && rng.below(2) == 0 {
            (0..8)
                .map(|_| ScoreUpdate::Increment {
                    item: rng.below(self.plan.items),
                    delta: 1.0,
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut live = true;
        for batch in queries.chunks(BATCH_LEN) {
            if Self::over(deadline) {
                live = false;
                break;
            }
            let results = self.call(Op::Batch, tally, tracer, start, || {
                self.store.submit_batch(batch)
            });
            let mut first_err = None;
            for r in results {
                match r {
                    Ok(a) => tally.tops += u64::from(a.is_positive()),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            if let Some(e) = first_err {
                tally.error(&e);
            }
        }
        for &item in &items {
            if !live || Self::over(deadline) {
                live = false;
                break;
            }
            tally.items_asked += 1;
            match self.call(Op::Item, tally, tracer, start, || {
                self.store.submit_item(session, item, ITEM_THRESHOLD)
            }) {
                Ok(a) => tally.tops += u64::from(a.is_positive()),
                Err(e) => tally.error(&e),
            }
        }
        if live && !updates.is_empty() && !Self::over(deadline) {
            match self.call(Op::Update, tally, tracer, start, || {
                self.store.update_scores(tenant, &updates)
            }) {
                Ok(_) => tally.updates += updates.len() as u64,
                Err(e) => tally.error(&e),
            }
        }
        if live && !Self::over(deadline) {
            if let Err(e) = self.call(Op::Close, tally, tracer, start, || {
                self.store.close_session(session)
            }) {
                tally.error(&e);
            }
            true
        } else {
            // Past the deadline: release the session outside the window.
            let _ = self.store.close_session(session);
            false
        }
    }
}

/// One measured window of the two-client script.
pub struct Window {
    pub tally: Tally,
    pub spans: Vec<Vec<Span>>,
    pub elapsed_ns: u64,
}

impl Window {
    /// Calls completed per second over the whole window.
    pub fn rate(&self) -> f64 {
        self.tally.ops() as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Runs the two clients' scripts (seeded by `seed`) on `threads`
/// threads (1 or 2) for `budget`, tracing when `trace` is set.
pub fn window(
    store: &SessionStore,
    plan: Plan,
    seed: u64,
    threads: usize,
    budget: Budget,
    trace: bool,
) -> Window {
    let start = Instant::now();
    let (deadline, rounds) = match budget {
        Budget::Time(d) => (Some(start + d), usize::MAX),
        Budget::Rounds(r) => (None, r),
    };
    let client = |id: usize| Client {
        store,
        plan,
        id,
        rng: SplitMix::new(seed ^ (0xc11e_0000 + id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        rounds: 0,
    };
    let run = |clients: &mut [Client], thread: u32| {
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(trace, start, thread);
        let mut active = vec![true; clients.len()];
        while active.iter().any(|&a| a) {
            for (c, a) in clients.iter_mut().zip(active.iter_mut()) {
                if *a {
                    *a = c.rounds < rounds && c.round(&mut tally, &mut tracer, start, deadline);
                }
            }
        }
        (tally, tracer.into_spans())
    };
    let parts: Vec<(Tally, Vec<Span>)> = if threads >= 2 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|id| {
                    let mut clients = [client(id)];
                    scope.spawn(move || run(&mut clients, id as u32))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread must not panic"))
                .collect()
        })
    } else {
        vec![run(&mut [client(0), client(1)], 0)]
    };
    let elapsed_ns = match budget {
        Budget::Time(d) => d.as_nanos() as u64,
        Budget::Rounds(_) => start.elapsed().as_nanos() as u64,
    };
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    for (t, s) in parts {
        tally.merge(t);
        spans.push(s);
    }
    Window {
        tally,
        spans,
        elapsed_ns,
    }
}

/// WAL traffic seen by the counting sinks of one store.
#[derive(Debug, Default)]
pub struct WalCounters {
    pub appends: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
}

/// A file sink that counts what the store writes and how long each
/// sync takes.
#[derive(Debug)]
struct CountingSink {
    inner: FileSink,
    counters: Arc<WalCounters>,
}

impl WalSink for CountingSink {
    fn append(&mut self, record: &[u8]) -> Result<(), WalError> {
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        self.inner.append(record)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        self.counters
            .sync_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// Where a store's ledger traffic goes.
pub enum Durability<'a> {
    /// No WAL (an ephemeral store).
    None,
    /// One log file per shard under the directory, as users open it.
    Dir(&'a Path),
    /// The same files, written through counting sinks.
    Counted(&'a Path, Arc<WalCounters>),
}

/// Creates the store, registers every tenant and its dataset.
pub fn build_store(
    plan: Plan,
    durability: Durability,
    scores: &[f64],
) -> Result<SessionStore, String> {
    let config = plan.config();
    let store = match durability {
        Durability::None => SessionStore::new(config),
        Durability::Dir(dir) => SessionStore::with_wal_dir(config, dir, FsyncPolicy::Always)
            .map_err(|e| e.to_string())?,
        Durability::Counted(dir, counters) => {
            let n = config.shards.max(1).next_power_of_two();
            let mut sinks: Vec<Box<dyn WalSink>> = Vec::with_capacity(n);
            for i in 0..n {
                let inner = FileSink::open(&dir.join(format!("wal-{i:03}.log")))
                    .map_err(|e| e.to_string())?;
                sinks.push(Box::new(CountingSink {
                    inner,
                    counters: Arc::clone(&counters),
                }));
            }
            SessionStore::with_wal_sinks(config, sinks, FsyncPolicy::Always)
        }
    };
    for t in 0..plan.tenants {
        let tenant = TenantId(t as u64);
        store
            .register_tenant(tenant, TENANT_EPSILON)
            .map_err(|e| e.to_string())?;
        store
            .register_dataset(tenant, scores)
            .map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// What recovery from a store's WAL directory measured and found.
pub struct Recovery {
    /// Wall time of each `recover_wal_dir` call, in ms.
    pub recovery_ms: Vec<f64>,
    /// `replay_records` over every shard log, in ms.
    pub replay_ms: f64,
    /// `verify_all` on the recovered store, in ms.
    pub verify_ms: f64,
    pub records: usize,
    pub log_bytes: u64,
    /// Check failures (empty when recovery is exact).
    pub problems: Vec<String>,
}

/// Drops the store, recovers it from `dir` `repeats` times and checks
/// that every tenant's recovered spent ε is bit-identical to what the
/// store acknowledged and that every receipt chain verifies.
pub fn recover(store: SessionStore, plan: Plan, dir: &Path, repeats: usize) -> Recovery {
    let mut problems = Vec::new();
    let acknowledged: Vec<u64> = (0..plan.tenants)
        .map(|t| {
            store
                .ledger_view(TenantId(t as u64))
                .map(|v| v.spent.to_bits())
                .unwrap_or(u64::MAX)
        })
        .collect();
    drop(store);
    let mut out = Recovery {
        recovery_ms: Vec::new(),
        replay_ms: 0.0,
        verify_ms: 0.0,
        records: 0,
        log_bytes: 0,
        problems: Vec::new(),
    };
    for i in 0..plan.config().shards.max(1).next_power_of_two() {
        let bytes = std::fs::read(dir.join(format!("wal-{i:03}.log"))).unwrap_or_default();
        out.log_bytes += bytes.len() as u64;
        let t0 = Instant::now();
        match dp_mechanisms::wal::replay_records(&bytes) {
            Ok(replay) => out.records += replay.records,
            Err(e) => problems.push(format!("replay of shard {i}: {e}")),
        }
        out.replay_ms += t0.elapsed().as_secs_f64() * 1e3;
    }
    for _ in 0..repeats {
        let t0 = Instant::now();
        let recovered = SessionStore::recover_wal_dir(plan.config(), dir, FsyncPolicy::Always);
        out.recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (recovered, report) = match recovered {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("recover_wal_dir: {e}"));
                break;
            }
        };
        if report.tenants != plan.tenants {
            problems.push(format!(
                "recovered {} of {} tenants",
                report.tenants, plan.tenants
            ));
        }
        for (t, &want) in acknowledged.iter().enumerate() {
            let got = recovered
                .ledger_view(TenantId(t as u64))
                .map(|v| v.spent.to_bits())
                .unwrap_or(u64::MAX - 1);
            if got != want {
                problems.push(format!(
                    "tenant {t}: recovered spent ε differs from the acknowledged ε"
                ));
            }
        }
        let t0 = Instant::now();
        match recovered.verify_all() {
            Ok(n) if n == plan.tenants => {}
            Ok(n) => problems.push(format!(
                "verify_all verified {n} of {} tenants",
                plan.tenants
            )),
            Err(e) => problems.push(format!("verify_all: {e}")),
        }
        out.verify_ms = t0.elapsed().as_secs_f64() * 1e3;
    }
    out.problems = problems;
    out
}
