//! The sharded session store: tenants, sessions, the batched submit
//! path, durability, and admission control.
//!
//! ## Ownership
//!
//! Every tenant lives on exactly one shard, chosen by hashing the
//! tenant id, and the shard owns **both** the tenant's
//! [`BudgetLedger`] and all of the tenant's session
//! [`SessionDriver`]s under one mutex:
//!
//! ```text
//! SessionStore
//! ├── Shard 0 ─ Mutex ─┬─ sessions: SessionId → SessionDriver
//! │                    ├─ ledgers:  TenantId  → BudgetLedger
//! │                    └─ wal:      Option<LedgerWal>
//! ├── Shard 1 ─ Mutex ─┬─ sessions …
//! │                    └─ ledgers  …
//! ⋮
//! ```
//!
//! Colocating a tenant's ledger with its sessions makes
//! `open_session`'s charge-then-insert atomic under a single lock — no
//! cross-shard transaction, no window where a session exists without
//! its receipt — and means any two tenants on different shards never
//! contend.
//!
//! ## Durability
//!
//! A store built with [`SessionStore::with_wal_dir`] (or
//! [`with_wal_sinks`](SessionStore::with_wal_sinks)) writes every
//! budget-bearing operation through a per-shard [`LedgerWal`] **before**
//! applying it in memory and acknowledging it to the caller:
//!
//! 1. derive the receipt with [`BudgetLedger::prepare_charge`] (memory
//!    unchanged);
//! 2. append + fsync the receipt to the shard's WAL;
//! 3. apply the prepared receipt to the in-memory ledger;
//! 4. acknowledge.
//!
//! Under [`FsyncPolicy::Always`] this yields the serving layer's
//! durability contract — *acknowledged ⇒ persisted* — and the failure
//! direction is privacy-safe: a crash between steps 2 and 4 leaves an
//! *unacknowledged* charge on disk, so recovered spent `ε` can exceed,
//! never undercut, what clients were told. Any WAL failure poisons the
//! log and every later budget-bearing operation reports
//! [`ServerError::Durability`]: the store refuses to let the in-memory
//! chain advance past what disk can prove. Recovery
//! ([`SessionStore::recover_wal_dir`]) replays each shard's log,
//! re-verifies every tenant chain, drops a torn tail, and resumes
//! appending at the record boundary. Sessions are *not* persisted —
//! their noise state dies with the process by design; only spent
//! budget survives.
//!
//! ## Session lifecycle and admission
//!
//! Each shard runs a logical clock that ticks once per admitted
//! operation. On top of it sit three independently-optional knobs
//! (all off by default, preserving the pre-durability behavior
//! bit-for-bit):
//!
//! - **TTL** ([`ServerConfig::session_ttl`]): a session idle for that
//!   many ticks is evicted lazily — at its next access or at the next
//!   `open_session` sweep — and its id reports
//!   [`ServerError::SessionEvicted`] (reason `Expired`) while its
//!   tombstone is among the shard's newest 4,096.
//! - **Cap** ([`ServerConfig::session_cap`]): opening past the
//!   per-shard live-session cap reclaims the least-recently-used
//!   session (reason `Capacity`). Closing a session releases its LRU
//!   slot immediately.
//! - **Admission** ([`ServerConfig::rate_limit`],
//!   [`ServerConfig::shed_threshold`]): per-tenant token buckets
//!   refilled on the logical clock, and a per-shard in-flight gate
//!   checked *before* the lock. Both shed with the retryable
//!   [`ServerError::Overloaded`]; nothing is charged or ticked for a
//!   shed request beyond the admission check itself.
//!
//! The shard's LRU index is kept only under a TTL or a cap, the two
//! knobs that read it: on a store with neither, a query stamps its
//! session's last touch and re-files nothing. Each shard keeps the
//! tombstones of its newest 4,096 evictions; an id evicted before them
//! reads [`ServerError::UnknownSession`], which is no more retryable
//! than `SessionEvicted`.
//!
//! ## Determinism
//!
//! A session's answers are a pure function of `(config, seed)`: the
//! driver is opened from `DpRng::seed_from_u64(seed)` and owns its
//! forked noise generators thereafter, drawing one `ν` per answered
//! query. Every query — through [`submit`](SessionStore::submit),
//! [`submit_item`](SessionStore::submit_item) or
//! [`submit_batch`](SessionStore::submit_batch) — takes the one
//! per-query path on its shard (admission, lookup, ask), and a batch
//! runs it query by query in input order, so batching and batch
//! composition are observationally irrelevant, and thread interleaving
//! across *different* sessions touches no session's answers. Only the
//! per-session order of queries matters, exactly as in the
//! single-session API. The logical clock makes TTL/LRU/rate-limit
//! behavior deterministic for any single-threaded call sequence.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use std::sync::Arc;

use dp_data::ScoreSnapshot;
use dp_mechanisms::wal::{replay_records, FsyncPolicy, LedgerWal, WalError, WalSink, RECORD_SIZE};
use dp_mechanisms::{counter_seed, BudgetLedger, ChargeReceipt, DpRng};
use svt_core::alg::StandardSvtConfig;
use svt_core::session::SessionDriver;
use svt_core::SvtAnswer;

use crate::dataset::{DatasetRegistry, ScoreUpdate};
use crate::error::{EvictionReason, OverloadCause, ServerError};

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, ServerError>;

/// Identifies a tenant (an isolated budget domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

/// Identifies one session of one tenant. Nonces are store-assigned and
/// never reused, so a closed session's id stays dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    /// The owning tenant.
    pub tenant: TenantId,
    /// Store-assigned per-shard nonce.
    pub nonce: u64,
}

/// One query of a [`SessionStore::submit_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchQuery {
    /// The session to ask.
    pub session: SessionId,
    /// The true query answer `q(D)`.
    pub query_answer: f64,
    /// The threshold `T` to test against.
    pub threshold: f64,
}

/// A point-in-time snapshot of one session's protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Queries successfully answered.
    pub queries_asked: usize,
    /// Positive (`⊤`) answers so far.
    pub positives: usize,
    /// Whether the session has spent its `c` positives.
    pub exhausted: bool,
}

/// A point-in-time copy of one tenant's budget standing and receipt
/// chain — what an auditor is handed.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerView {
    /// The tenant audited.
    pub tenant: TenantId,
    /// Configured total budget.
    pub total: f64,
    /// Budget consumed so far.
    pub spent: f64,
    /// Budget still available.
    pub remaining: f64,
    /// The full hash-chained receipt run (verifiable offline via
    /// [`dp_mechanisms::ledger::audit_receipts`]).
    pub receipts: Vec<ChargeReceipt>,
}

/// Per-tenant token-bucket admission: `burst` tokens to start, one
/// consumed per admitted operation, refilled at `rate_per_tick` tokens
/// per logical-clock tick of the tenant's shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Tokens regained per logical tick (may be fractional or zero).
    pub rate_per_tick: f64,
    /// Bucket capacity — the largest admissible burst.
    pub burst: f64,
}

/// Tuning knobs for a [`SessionStore`]. The lifecycle and admission
/// knobs default to `None` (off), which reproduces the store's
/// behavior before they existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Number of shards; rounded up to a power of two, minimum 1.
    /// More shards mean less lock contention and more resident memory.
    pub shards: usize,
    /// Evict a session idle for this many logical ticks of its shard
    /// (each admitted operation on the shard is one tick). `None`
    /// disables expiry.
    pub session_ttl: Option<u64>,
    /// Per-shard live-session cap (clamped to at least 1); opening past
    /// it reclaims the least-recently-used session. `None` disables the
    /// cap.
    pub session_cap: Option<usize>,
    /// Shed operations once a shard has this many in flight (0 sheds
    /// everything — useful for drain tests). `None` disables shedding.
    pub shed_threshold: Option<usize>,
    /// Per-tenant token-bucket admission. `None` disables rate
    /// limiting.
    pub rate_limit: Option<RateLimit>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            session_ttl: None,
            session_cap: None,
            shed_threshold: None,
            rate_limit: None,
        }
    }
}

/// What [`SessionStore::recover_wal_dir`] rebuilt from the logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shard logs replayed.
    pub shards: usize,
    /// Tenant ledgers rebuilt and chain-verified.
    pub tenants: usize,
    /// Whole WAL records accepted across all shards.
    pub records: usize,
    /// Torn-tail bytes dropped across all shards (nonzero after a
    /// mid-write crash).
    pub torn_tail_bytes: usize,
}

#[derive(Debug)]
struct SessionEntry {
    driver: SessionDriver,
    /// The shard tick of this session's last admitted operation; also
    /// its key in the shard's LRU map, when the store keeps one.
    last_touch: u64,
    /// The tenant's dataset snapshot pinned at open time. Every
    /// item-level query of this session resolves scores against this
    /// one immutable epoch, no matter how many `update_scores` batches
    /// land afterwards. `None` when the tenant had no dataset at open.
    dataset: Option<Arc<ScoreSnapshot>>,
}

impl SessionEntry {
    fn status(&self) -> SessionStatus {
        SessionStatus {
            queries_asked: self.driver.queries_asked(),
            positives: self.driver.state().positives(),
            exhausted: self.driver.is_exhausted(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    last_refill: u64,
}

/// Eviction tombstones kept per shard; the oldest is dropped first.
const TOMBSTONES_PER_SHARD: usize = 4096;

/// Whether a store under `config` keeps its shards' LRU index: only
/// the TTL sweep and the cap's victim search read it, and both knobs
/// are fixed for the store's life.
fn keeps_lru(config: &ServerConfig) -> bool {
    config.session_ttl.is_some() || config.session_cap.is_some()
}

#[derive(Debug, Default)]
struct ShardState {
    sessions: HashMap<SessionId, SessionEntry>,
    ledgers: HashMap<TenantId, BudgetLedger>,
    /// Eviction tombstones: a recently evicted id reports *why* it died
    /// instead of degrading to `UnknownSession`. Only the newest
    /// [`TOMBSTONES_PER_SHARD`] are kept, in `tombstone_order`; an id
    /// evicted before them reads `UnknownSession`, which is no more
    /// retryable than `SessionEvicted`.
    evicted: HashMap<SessionId, EvictionReason>,
    /// The ids in `evicted`, oldest first.
    tombstone_order: VecDeque<SessionId>,
    /// last-touch tick → session; the leftmost entry is the LRU victim.
    /// Ticks are unique per shard, so this is collision-free. Empty
    /// unless [`keeps_lru`].
    lru: BTreeMap<u64, SessionId>,
    buckets: HashMap<TenantId, TokenBucket>,
    wal: Option<LedgerWal>,
    next_nonce: u64,
    clock: u64,
}

impl ShardState {
    /// The admission step of every operation on `tenant`'s sessions:
    /// advances the logical clock (each admitted operation occupies one
    /// tick) and, under `rate_limit`, takes one token from the tenant's
    /// bucket, refilled for the ticks since its last admission. Returns
    /// the tick. A tenant with no ledger on this shard takes no token
    /// and keeps no bucket: its call fails at the lookup that follows.
    ///
    /// # Errors
    /// [`ServerError::Overloaded`] with
    /// [`OverloadCause::TenantRateLimited`] when the bucket holds less
    /// than one token; the tick stays spent.
    fn admit(&mut self, tenant: TenantId, rate_limit: Option<RateLimit>) -> Result<u64> {
        self.clock += 1;
        let now = self.clock;
        let Some(limit) = rate_limit.filter(|_| self.ledgers.contains_key(&tenant)) else {
            return Ok(now);
        };
        let bucket = self.buckets.entry(tenant).or_insert(TokenBucket {
            tokens: limit.burst,
            last_refill: now,
        });
        let elapsed = now.saturating_sub(bucket.last_refill) as f64;
        bucket.tokens = (bucket.tokens + elapsed * limit.rate_per_tick).min(limit.burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(now)
        } else {
            Err(ServerError::Overloaded(OverloadCause::TenantRateLimited(
                tenant,
            )))
        }
    }

    /// Removes `session` from the live set and tombstones it, dropping
    /// the oldest tombstone once the shard holds
    /// [`TOMBSTONES_PER_SHARD`].
    fn evict(&mut self, session: SessionId, reason: EvictionReason) {
        if let Some(entry) = self.sessions.remove(&session) {
            self.lru.remove(&entry.last_touch);
            if self.tombstone_order.len() == TOMBSTONES_PER_SHARD {
                let oldest = self.tombstone_order.pop_front().expect("the queue is full");
                self.evicted.remove(&oldest);
            }
            self.tombstone_order.push_back(session);
            self.evicted.insert(session, reason);
        }
    }

    /// Evicts every session idle past `ttl`, oldest first.
    fn sweep_expired(&mut self, ttl: u64) {
        loop {
            let front = self.lru.iter().next().map(|(&t, &s)| (t, s));
            let Some((touch, session)) = front else { break };
            if self.clock.saturating_sub(touch) >= ttl {
                self.evict(session, EvictionReason::Expired);
            } else {
                break;
            }
        }
    }

    /// Reclaims LRU sessions until a new one fits under `cap`.
    fn evict_to_cap(&mut self, cap: usize) {
        while self.sessions.len() >= cap {
            let victim = self.lru.iter().next().map(|(_, &s)| s);
            let Some(session) = victim else { break };
            self.evict(session, EvictionReason::Capacity);
        }
    }

    /// Runs `f` on the live entry of `session` at tick `now`. A live id
    /// costs one probe: the tombstones are read only on a miss, since
    /// `evict` removes an id before tombstoning it and nonces never
    /// repeat. A tombstoned id reports why it was evicted, an unknown
    /// one [`ServerError::UnknownSession`]; a session idle for `ttl`
    /// ticks or more is evicted and tombstoned here (reason `Expired`),
    /// the lazy expiry every session lookup applies.
    fn live_session<T>(
        &mut self,
        session: SessionId,
        ttl: Option<u64>,
        now: u64,
        f: impl FnOnce(&mut SessionEntry) -> Result<T>,
    ) -> Result<T> {
        let Some(entry) = self.sessions.get_mut(&session) else {
            return Err(match self.evicted.get(&session) {
                Some(&reason) => ServerError::SessionEvicted { session, reason },
                None => ServerError::UnknownSession(session),
            });
        };
        if ttl.is_some_and(|ttl| now.saturating_sub(entry.last_touch) >= ttl) {
            self.evict(session, EvictionReason::Expired);
            return Err(ServerError::SessionEvicted {
                session,
                reason: EvictionReason::Expired,
            });
        }
        f(entry)
    }

    /// One query's whole path on a locked shard, the same for
    /// [`submit`](SessionStore::submit),
    /// [`submit_item`](SessionStore::submit_item) and every query of
    /// [`submit_batch`](SessionStore::submit_batch): the admission tick
    /// and token, the session lookup with its lazy TTL expiry, the LRU
    /// stamp, then one ask of the true answer that `answer_of` reads
    /// from the session's entry.
    fn ask(
        &mut self,
        session: SessionId,
        threshold: f64,
        config: &ServerConfig,
        answer_of: impl FnOnce(&SessionEntry) -> Result<f64>,
    ) -> Result<SvtAnswer> {
        let now = self.admit(session.tenant, config.rate_limit)?;
        let (last_touch, answer) =
            self.live_session(session, config.session_ttl, now, |entry| {
                let last_touch = std::mem::replace(&mut entry.last_touch, now);
                let answer = answer_of(entry)
                    .and_then(|query_answer| Ok(entry.driver.ask(query_answer, threshold)?));
                Ok((last_touch, answer))
            })?;
        if keeps_lru(config) {
            self.lru.remove(&last_touch);
            self.lru.insert(now, session);
        }
        answer
    }
}

#[derive(Debug, Default)]
struct Shard {
    state: Mutex<ShardState>,
    /// Operations currently inside (or queued on) this shard — the shed
    /// gate reads it *before* the lock, so saturation is visible
    /// without waiting on the mutex.
    in_flight: AtomicUsize,
}

/// Releases the shed gate's in-flight slot on drop.
struct ShardPermit<'a> {
    gate: Option<&'a AtomicUsize>,
}

impl Drop for ShardPermit<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            gate.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The shard, of `mask + 1`, that `tenant` lives on. The id is hashed
/// because tenant ids are often small sequential integers, and the raw
/// id would pile every tenant onto shard 0.
#[inline]
fn home_shard(tenant: u64, mask: u64) -> usize {
    (counter_seed(tenant, 0) & mask) as usize
}

/// The WAL filename for shard `index` inside a WAL directory.
fn wal_file_name(index: usize) -> String {
    format!("wal-{index:03}.log")
}

/// The multi-tenant session store. See the module docs for the
/// ownership, durability, and determinism story.
///
/// ```
/// use dp_mechanisms::SvtBudget;
/// use svt_core::alg::StandardSvtConfig;
/// use svt_server::{ServerConfig, SessionStore, TenantId};
///
/// let store = SessionStore::new(ServerConfig::default());
/// let tenant = TenantId(1);
/// store.register_tenant(tenant, 2.0)?;
/// let config = StandardSvtConfig {
///     budget: SvtBudget::halves(0.5).expect("valid budget"),
///     sensitivity: 1.0,
///     c: 3,
///     monotonic: true,
/// };
/// let session = store.open_session(tenant, config, 42)?;
/// let answer = store.submit(session, -1e6, 0.0)?;
/// assert!(!answer.is_positive());
/// store.verify_tenant(tenant)?; // receipt chain is intact
/// # Ok::<(), svt_server::ServerError>(())
/// ```
#[derive(Debug)]
pub struct SessionStore {
    shards: Box<[Shard]>,
    mask: u64,
    config: ServerConfig,
    /// Per-tenant live datasets and their published snapshots. Kept
    /// outside the shards: dataset churn must never contend with the
    /// sharded session/ledger locks, and snapshots are not persisted —
    /// like sessions, they are memory-only by design (only spent
    /// budget survives recovery).
    datasets: DatasetRegistry,
}

impl SessionStore {
    /// Creates an ephemeral store (no WAL) with `config.shards`
    /// (rounded up to a power of two) empty shards.
    pub fn new(config: ServerConfig) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let states = (0..n).map(|_| ShardState::default()).collect();
        Self::from_states(config, states)
    }

    fn from_states(config: ServerConfig, states: Vec<ShardState>) -> Self {
        let n = states.len();
        debug_assert!(n.is_power_of_two());
        let shards: Vec<Shard> = states
            .into_iter()
            .map(|state| Shard {
                state: Mutex::new(state),
                in_flight: AtomicUsize::new(0),
            })
            .collect();
        Self {
            shards: shards.into_boxed_slice(),
            mask: n as u64 - 1,
            config,
            datasets: DatasetRegistry::default(),
        }
    }

    /// Creates a durable store writing each shard's ledger traffic
    /// through the supplied sinks (one per shard — `sinks.len()` must
    /// equal the rounded shard count). Intended for tests and fault
    /// injection; production callers use
    /// [`with_wal_dir`](Self::with_wal_dir).
    ///
    /// # Panics
    /// If `sinks.len()` differs from the rounded shard count.
    pub fn with_wal_sinks(
        config: ServerConfig,
        sinks: Vec<Box<dyn WalSink>>,
        policy: FsyncPolicy,
    ) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        assert_eq!(
            sinks.len(),
            n,
            "need exactly one WAL sink per shard ({n} shards)"
        );
        let states = sinks
            .into_iter()
            .map(|sink| ShardState {
                wal: Some(LedgerWal::with_sink(sink, policy)),
                ..Default::default()
            })
            .collect();
        Self::from_states(config, states)
    }

    /// Creates a durable store with one WAL file per shard
    /// (`wal-000.log`, `wal-001.log`, …) under `dir`, creating files as
    /// needed. Use on a *fresh* directory; to reopen existing logs, use
    /// [`recover_wal_dir`](Self::recover_wal_dir).
    ///
    /// # Errors
    /// [`ServerError::Durability`] if a log file cannot be opened.
    pub fn with_wal_dir(config: ServerConfig, dir: &Path, policy: FsyncPolicy) -> Result<Self> {
        let n = config.shards.max(1).next_power_of_two();
        let mut states = Vec::with_capacity(n);
        for i in 0..n {
            let wal = LedgerWal::open(&dir.join(wal_file_name(i)), policy)?;
            states.push(ShardState {
                wal: Some(wal),
                ..Default::default()
            });
        }
        Ok(Self::from_states(config, states))
    }

    /// Rebuilds a durable store from the WAL directory a crashed (or
    /// cleanly stopped) store left behind: replays every shard log,
    /// re-verifies every tenant chain, truncates torn tails, and
    /// resumes appending. `config.shards` must match the shard count
    /// the logs were written with — tenants are sharded by hash, so a
    /// different count would scatter them into the wrong logs.
    ///
    /// Sessions do not survive: their noise state is memory-only by
    /// design. Spent budget does — the privacy-relevant invariant is
    /// that every *acknowledged* charge is in the log, so recovered
    /// spent `ε` is never an undercount.
    ///
    /// # Errors
    /// [`ServerError::Durability`] on unreadable logs, mid-log
    /// corruption (attributed to the exact record), a chain that fails
    /// re-verification, or a tenant found in the wrong shard's log.
    pub fn recover_wal_dir(
        config: ServerConfig,
        dir: &Path,
        policy: FsyncPolicy,
    ) -> Result<(Self, RecoveryReport)> {
        let n = config.shards.max(1).next_power_of_two();
        let paths: Vec<PathBuf> = (0..n).map(|i| dir.join(wal_file_name(i))).collect();
        let (mut store, report) = Self::recover(config, n, |i| {
            let path = &paths[i];
            if path.exists() {
                std::fs::read(path).map_err(|e| WalError::Io {
                    op: "read",
                    message: e.to_string(),
                })
            } else {
                Ok(Vec::new())
            }
        })?;
        // Reopen each file truncated to its valid prefix so appends
        // resume at a record boundary (every accepted record is
        // RECORD_SIZE bytes).
        for (i, path) in paths.iter().enumerate() {
            let valid_len = {
                let state = store.shards[i].state.get_mut().expect("fresh store");
                (Self::shard_record_count(state) * RECORD_SIZE) as u64
            };
            let wal = LedgerWal::open_truncated(path, valid_len, policy)?;
            store.shards[i].state.get_mut().expect("fresh store").wal = Some(wal);
        }
        Ok((store, report))
    }

    /// Rebuilds a durable store from in-memory shard logs (the bytes a
    /// crashed writer left in its sinks), continuing onto `sinks` —
    /// which must be **fresh**: the store re-appends each log's valid
    /// prefix into its sink before resuming, so the chain stays
    /// contiguous across repeated crash/recover cycles. Test and
    /// fault-injection counterpart of
    /// [`recover_wal_dir`](Self::recover_wal_dir).
    ///
    /// # Errors
    /// As for [`recover_wal_dir`](Self::recover_wal_dir).
    ///
    /// # Panics
    /// If `logs.len()` or `sinks.len()` differs from the rounded shard
    /// count.
    pub fn recover_with_sinks(
        config: ServerConfig,
        logs: &[Vec<u8>],
        sinks: Vec<Box<dyn WalSink>>,
        policy: FsyncPolicy,
    ) -> Result<(Self, RecoveryReport)> {
        let n = config.shards.max(1).next_power_of_two();
        assert_eq!(logs.len(), n, "need one log per shard ({n} shards)");
        assert_eq!(sinks.len(), n, "need one sink per shard ({n} shards)");
        let (mut store, report) = Self::recover(config, n, |i| Ok(logs[i].clone()))?;
        for (i, mut sink) in sinks.into_iter().enumerate() {
            let state = store.shards[i].state.get_mut().expect("fresh store");
            let valid_len = Self::shard_record_count(state) * RECORD_SIZE;
            if valid_len > 0 {
                sink.append(&logs[i][..valid_len])?;
                sink.sync()?;
            }
            state.wal = Some(LedgerWal::with_sink(sink, policy));
        }
        Ok((store, report))
    }

    /// Records on a recovered shard: registrations plus charges.
    fn shard_record_count(state: &ShardState) -> usize {
        state.ledgers.values().map(|l| 1 + l.receipts().len()).sum()
    }

    /// Shared replay core: builds shard states (no WALs yet) from the
    /// per-shard log bytes produced by `read_log`.
    fn recover(
        config: ServerConfig,
        n: usize,
        mut read_log: impl FnMut(usize) -> std::result::Result<Vec<u8>, WalError>,
    ) -> Result<(Self, RecoveryReport)> {
        let mut states = Vec::with_capacity(n);
        let mut report = RecoveryReport {
            shards: n,
            tenants: 0,
            records: 0,
            torn_tail_bytes: 0,
        };
        let mask = n as u64 - 1;
        for i in 0..n {
            let bytes = read_log(i)?;
            let replay = replay_records(&bytes)?;
            report.records += replay.records;
            report.torn_tail_bytes += replay.torn_tail_bytes;
            let mut state = ShardState::default();
            for (tenant, ledger) in replay.ledgers {
                let home = home_shard(tenant, mask);
                if home != i {
                    return Err(ServerError::Durability(WalError::Io {
                        op: "recover",
                        message: format!(
                            "tenant {tenant} found in shard {i}'s log but hashes to \
                             shard {home}; was the store written with a different \
                             shard count?"
                        ),
                    }));
                }
                state.next_nonce = state.next_nonce.max(
                    ledger
                        .receipts()
                        .iter()
                        .map(|r| r.session + 1)
                        .max()
                        .unwrap_or(0),
                );
                report.tenants += 1;
                state.ledgers.insert(TenantId(tenant), ledger);
            }
            states.push(state);
        }
        Ok((Self::from_states(config, states), report))
    }

    /// Number of shards (always a power of two).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether any shard's WAL has been poisoned by a write failure —
    /// if so, budget-bearing operations are being refused store-wide on
    /// the affected shard until recovery.
    pub fn durability_poisoned(&self) -> bool {
        (0..self.shards.len()).any(|i| {
            self.lock_shard(i)
                .wal
                .as_ref()
                .is_some_and(LedgerWal::is_poisoned)
        })
    }

    /// The shard index a tenant (and all its sessions) lives on.
    #[inline]
    fn shard_of(&self, tenant: TenantId) -> usize {
        home_shard(tenant.0, self.mask)
    }

    fn lock_shard(&self, index: usize) -> std::sync::MutexGuard<'_, ShardState> {
        self.shards[index]
            .state
            .lock()
            .expect("shard mutex poisoned: a holder panicked")
    }

    /// The shed gate: claims an in-flight slot on `index` or reports
    /// [`ServerError::Overloaded`] without touching the shard lock.
    fn admit_shard(&self, index: usize) -> Result<ShardPermit<'_>> {
        let Some(limit) = self.config.shed_threshold else {
            return Ok(ShardPermit { gate: None });
        };
        let gate = &self.shards[index].in_flight;
        if gate.fetch_add(1, Ordering::AcqRel) >= limit {
            gate.fetch_sub(1, Ordering::AcqRel);
            return Err(ServerError::Overloaded(OverloadCause::ShardSaturated {
                shard: index,
            }));
        }
        Ok(ShardPermit { gate: Some(gate) })
    }

    /// Registers a tenant with a total privacy budget, creating its
    /// empty receipt chain. On a durable store the registration is
    /// WAL-logged before it is acknowledged.
    ///
    /// # Errors
    /// [`ServerError::TenantAlreadyRegistered`] on a duplicate;
    /// [`ServerError::Ledger`] on an invalid budget;
    /// [`ServerError::Durability`] if the WAL write fails (the tenant
    /// is not registered).
    pub fn register_tenant(&self, tenant: TenantId, total_epsilon: f64) -> Result<()> {
        let mut shard = self.lock_shard(self.shard_of(tenant));
        if shard.ledgers.contains_key(&tenant) {
            return Err(ServerError::TenantAlreadyRegistered(tenant));
        }
        let ledger = BudgetLedger::new(tenant.0, total_epsilon)?;
        if let Some(wal) = shard.wal.as_mut() {
            wal.append_tenant(tenant.0, total_epsilon)?;
        }
        shard.ledgers.insert(tenant, ledger);
        Ok(())
    }

    /// Opens a session for `tenant`, charging the session's full SVT
    /// budget (`ε₁ + ε₂ + ε₃` — the whole run's cost, per Theorem 4;
    /// every ⊥ thereafter is free) against the tenant's ledger and
    /// recording the receipt. On a durable store the receipt reaches
    /// the WAL **before** the in-memory ledger advances or the session
    /// exists — a crash at any point never acknowledges an unpersisted
    /// charge. Charge and session insertion happen under one shard
    /// lock, so a session never exists without its receipt.
    ///
    /// With a TTL or cap configured, expired sessions are swept and the
    /// LRU session is reclaimed here as needed.
    ///
    /// The session's answers are a pure function of `(config, seed)`.
    ///
    /// # Errors
    /// [`ServerError::UnknownTenant`]; [`ServerError::Overloaded`]
    /// (retryable) when admission sheds the open; [`ServerError::Svt`]
    /// on an invalid configuration; [`ServerError::Ledger`] when the
    /// budget does not fit; [`ServerError::Durability`] when the WAL
    /// write fails (in every error case the session is not created and
    /// nothing is charged).
    pub fn open_session(
        &self,
        tenant: TenantId,
        config: StandardSvtConfig,
        seed: u64,
    ) -> Result<SessionId> {
        let index = self.shard_of(tenant);
        let _permit = self.admit_shard(index)?;
        // Pin the tenant's published dataset snapshot *before* taking
        // the shard lock: the registry has its own locks and must never
        // nest inside a shard's. An update that returned before this
        // open started is already published, so the pin can only be
        // same-or-newer than any epoch the caller has observed.
        let dataset = self.datasets.snapshot(tenant);
        let mut shard = self.lock_shard(index);
        let now = shard.admit(tenant, self.config.rate_limit)?;
        if !shard.ledgers.contains_key(&tenant) {
            return Err(ServerError::UnknownTenant(tenant));
        }
        if let Some(ttl) = self.config.session_ttl {
            shard.sweep_expired(ttl);
        }
        if let Some(cap) = self.config.session_cap {
            shard.evict_to_cap(cap.max(1));
        }
        // Validate the config (and perform the session's draws) before
        // touching the ledger: a rejected config must charge nothing.
        let mut rng = DpRng::seed_from_u64(seed);
        let driver = SessionDriver::open(config, &mut rng)?;
        let nonce = shard.next_nonce;
        let prepared = shard
            .ledgers
            .get(&tenant)
            .expect("presence checked above")
            .prepare_charge(nonce, "svt session open", config.budget.total())?;
        if let Some(wal) = shard.wal.as_mut() {
            wal.append_charge(&prepared)?;
        }
        shard
            .ledgers
            .get_mut(&tenant)
            .expect("presence checked above")
            .apply_prepared(prepared)?;
        shard.next_nonce += 1;
        let id = SessionId { tenant, nonce };
        shard.sessions.insert(
            id,
            SessionEntry {
                driver,
                last_touch: now,
                dataset,
            },
        );
        if keeps_lru(&self.config) {
            shard.lru.insert(now, id);
        }
        Ok(id)
    }

    /// Asks one query against one session.
    ///
    /// # Errors
    /// [`ServerError::Overloaded`] (retryable) when admission sheds the
    /// query; [`ServerError::SessionEvicted`] when the store reclaimed
    /// the session; [`ServerError::UnknownSession`];
    /// [`ServerError::Svt`] when the session rejects the query (halted,
    /// non-finite input).
    pub fn submit(
        &self,
        session: SessionId,
        query_answer: f64,
        threshold: f64,
    ) -> Result<SvtAnswer> {
        let index = self.shard_of(session.tenant);
        let _permit = self.admit_shard(index)?;
        self.lock_shard(index)
            .ask(session, threshold, &self.config, |_| Ok(query_answer))
    }

    /// Registers `tenant`'s dataset: validates and copies the scores
    /// into the live score table (no sort) and publishes the epoch-0
    /// snapshot. Sessions opened from now on pin the currently
    /// published snapshot; sessions opened before this call keep
    /// answering [`submit_item`](Self::submit_item) with
    /// [`ServerError::NoDataset`].
    ///
    /// Datasets evolve through [`update_scores`](Self::update_scores) —
    /// re-registering is rejected rather than silently replacing
    /// history.
    ///
    /// # Errors
    /// [`ServerError::UnknownTenant`];
    /// [`ServerError::DatasetAlreadyRegistered`];
    /// [`ServerError::Dataset`] on empty or non-finite scores.
    pub fn register_dataset(&self, tenant: TenantId, scores: &[f64]) -> Result<u64> {
        // Tenancy check under the shard lock, then *drop* it: the
        // registry's locks never nest inside a shard's.
        {
            let shard = self.lock_shard(self.shard_of(tenant));
            if !shard.ledgers.contains_key(&tenant) {
                return Err(ServerError::UnknownTenant(tenant));
            }
        }
        self.datasets.register(tenant, scores)
    }

    /// Applies one atomic batch of score updates to `tenant`'s live
    /// dataset and publishes the resulting snapshot, returning its
    /// epoch. Each update rewrites one item's score in the live table's
    /// overlay — nothing is sorted or rebuilt — and existing sessions
    /// keep their pinned pre-update snapshots untouched; only sessions
    /// opened after this returns observe the new epoch.
    ///
    /// A rejected batch (out-of-range item, non-finite resulting score)
    /// applies nothing and the published snapshot does not move.
    ///
    /// # Errors
    /// [`ServerError::NoDataset`]; [`ServerError::ItemOutOfRange`];
    /// [`ServerError::Dataset`].
    pub fn update_scores(&self, tenant: TenantId, updates: &[ScoreUpdate]) -> Result<u64> {
        self.datasets.update(tenant, updates)
    }

    /// The epoch of `tenant`'s currently published dataset snapshot —
    /// what a session opened right now would pin.
    ///
    /// # Errors
    /// [`ServerError::NoDataset`].
    pub fn dataset_epoch(&self, tenant: TenantId) -> Result<u64> {
        self.datasets
            .snapshot(tenant)
            .map(|s| s.epoch())
            .ok_or(ServerError::NoDataset(tenant))
    }

    /// The epoch of the dataset snapshot pinned by `session` at open
    /// time. Stable for the session's whole life: updates published
    /// after the open do not move it. Does not tick the shard clock or
    /// refresh the session's LRU position, but does report (and enact)
    /// TTL expiry.
    ///
    /// # Errors
    /// [`ServerError::SessionEvicted`]; [`ServerError::UnknownSession`];
    /// [`ServerError::NoDataset`] when the tenant had no dataset when
    /// the session opened.
    pub fn session_dataset_epoch(&self, session: SessionId) -> Result<u64> {
        let mut shard = self.lock_shard(self.shard_of(session.tenant));
        let now = shard.clock;
        shard.live_session(session, self.config.session_ttl, now, |entry| {
            entry
                .dataset
                .as_ref()
                .map(|s| s.epoch())
                .ok_or(ServerError::NoDataset(session.tenant))
        })
    }

    /// Asks one query *by item*: the true answer is the item's score in
    /// the dataset snapshot the session pinned at open time. This is
    /// the paper's interactive protocol over a served dataset — the
    /// analyst names items, the store resolves `q(D)` against one
    /// immutable epoch, and the SVT session answers `⊤`/`⊥` as usual.
    ///
    /// # Errors
    /// As for [`submit`](Self::submit), plus
    /// [`ServerError::NoDataset`] when the session pinned no dataset
    /// and [`ServerError::ItemOutOfRange`] for an item outside the
    /// pinned snapshot.
    pub fn submit_item(
        &self,
        session: SessionId,
        item: usize,
        threshold: f64,
    ) -> Result<SvtAnswer> {
        let index = self.shard_of(session.tenant);
        let _permit = self.admit_shard(index)?;
        self.lock_shard(index)
            .ask(session, threshold, &self.config, |entry| {
                let snapshot = entry
                    .dataset
                    .as_ref()
                    .ok_or(ServerError::NoDataset(session.tenant))?;
                if item >= snapshot.len_items() {
                    return Err(ServerError::ItemOutOfRange {
                        item,
                        len: snapshot.len_items(),
                    });
                }
                Ok(snapshot.score_of_item(item))
            })
    }

    /// Answers a batch of queries, possibly spanning many sessions and
    /// tenants. Results are returned in input order, one per query.
    ///
    /// Queries are grouped by shard so each shard is locked once; within
    /// a shard visit each query is admitted and answered before the next
    /// one, in input order. So each query is answered exactly as
    /// [`submit`](Self::submit) would answer it at that point — including
    /// a session that expires under its TTL between two of its queries
    /// in one batch — and the answers are bit-identical to issuing the
    /// queries through `submit` one at a time (pinned by test).
    ///
    /// Per-query failures (shed, evicted, unknown session, halted
    /// session, bad input) land in that query's result slot; they do
    /// not disturb the rest of the batch. If a shard's shed gate trips,
    /// every query bound for that shard reports the retryable
    /// [`ServerError::Overloaded`].
    pub fn submit_batch(&self, queries: &[BatchQuery]) -> Vec<Result<SvtAnswer>> {
        let mut results: Vec<Option<Result<SvtAnswer>>> = vec![None; queries.len()];
        // Group query indices per shard, preserving input order within
        // each shard (per-session order is the determinism contract).
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, q) in queries.iter().enumerate() {
            by_shard[self.shard_of(q.session.tenant)].push(i);
        }
        for (shard_index, indices) in by_shard.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let _permit = match self.admit_shard(shard_index) {
                Ok(p) => p,
                Err(e) => {
                    for &i in indices {
                        results[i] = Some(Err(e.clone()));
                    }
                    continue;
                }
            };
            let mut shard = self.lock_shard(shard_index);
            for &i in indices {
                let q = &queries[i];
                results[i] =
                    Some(shard.ask(q.session, q.threshold, &self.config, |_| Ok(q.query_answer)));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every query routed to exactly one shard"))
            .collect()
    }

    /// A snapshot of one session's protocol state. Read-only: does not
    /// tick the shard clock or refresh the session's LRU position, but
    /// does report (and enact) TTL expiry.
    ///
    /// # Errors
    /// [`ServerError::SessionEvicted`]; [`ServerError::UnknownSession`].
    pub fn session_status(&self, session: SessionId) -> Result<SessionStatus> {
        let mut shard = self.lock_shard(self.shard_of(session.tenant));
        let now = shard.clock;
        shard.live_session(session, self.config.session_ttl, now, |entry| {
            Ok(entry.status())
        })
    }

    /// Removes a session, returning its final status, and releases its
    /// LRU slot so the shard's cap accounting stays exact. The budget
    /// it charged at open stays spent — SVT's cost is per run, not per
    /// answer — and its receipts remain on the tenant's chain.
    ///
    /// A second close of the same id reports
    /// [`ServerError::UnknownSession`], deterministically: voluntary
    /// closes leave no tombstone (only store-initiated evictions do).
    ///
    /// # Errors
    /// [`ServerError::SessionEvicted`] if the store already reclaimed
    /// it, or reclaims it now because it sat idle past the TTL;
    /// [`ServerError::UnknownSession`].
    pub fn close_session(&self, session: SessionId) -> Result<SessionStatus> {
        let mut shard = self.lock_shard(self.shard_of(session.tenant));
        let now = shard.clock;
        shard.live_session(session, self.config.session_ttl, now, |_| Ok(()))?;
        let entry = shard.sessions.remove(&session).expect("looked up above");
        shard.lru.remove(&entry.last_touch);
        Ok(entry.status())
    }

    /// A copy of the tenant's budget standing and full receipt chain.
    ///
    /// # Errors
    /// [`ServerError::UnknownTenant`].
    pub fn ledger_view(&self, tenant: TenantId) -> Result<LedgerView> {
        let shard = self.lock_shard(self.shard_of(tenant));
        let ledger = shard
            .ledgers
            .get(&tenant)
            .ok_or(ServerError::UnknownTenant(tenant))?;
        Ok(LedgerView {
            tenant,
            total: ledger.total(),
            spent: ledger.spent(),
            remaining: ledger.remaining(),
            receipts: ledger.receipts().to_vec(),
        })
    }

    /// Audits one tenant's receipt chain in place.
    ///
    /// # Errors
    /// [`ServerError::UnknownTenant`]; [`ServerError::Ledger`] with the
    /// distinct chain-failure variant on a corrupt chain.
    pub fn verify_tenant(&self, tenant: TenantId) -> Result<()> {
        let shard = self.lock_shard(self.shard_of(tenant));
        let ledger = shard
            .ledgers
            .get(&tenant)
            .ok_or(ServerError::UnknownTenant(tenant))?;
        Ok(ledger.verify_chain()?)
    }

    /// Audits every tenant's chain on every shard; returns how many
    /// tenants were verified.
    ///
    /// # Errors
    /// The first [`ServerError::Ledger`] encountered.
    pub fn verify_all(&self) -> Result<usize> {
        let mut verified = 0;
        for index in 0..self.shards.len() {
            let shard = self.lock_shard(index);
            for ledger in shard.ledgers.values() {
                ledger.verify_chain()?;
                verified += 1;
            }
        }
        Ok(verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_data::DataError;
    use dp_mechanisms::wal::MemSink;
    use dp_mechanisms::SvtBudget;
    use proptest::prelude::*;

    fn config(c: usize) -> StandardSvtConfig {
        StandardSvtConfig {
            budget: SvtBudget::halves(0.5).unwrap(),
            sensitivity: 1.0,
            c,
            monotonic: true,
        }
    }

    fn one_shard(server: ServerConfig) -> ServerConfig {
        ServerConfig {
            shards: 1,
            ..server
        }
    }

    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionStore>();
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let shards = |n| ServerConfig {
            shards: n,
            ..Default::default()
        };
        assert_eq!(SessionStore::new(shards(0)).num_shards(), 1);
        assert_eq!(SessionStore::new(shards(5)).num_shards(), 8);
        assert_eq!(SessionStore::new(shards(16)).num_shards(), 16);
    }

    #[test]
    fn tenants_spread_across_shards() {
        let store = SessionStore::new(ServerConfig {
            shards: 8,
            ..Default::default()
        });
        let mut seen = std::collections::HashSet::new();
        for t in 0..64 {
            seen.insert(store.shard_of(TenantId(t)));
        }
        // Sequential ids must not pile onto one shard.
        assert!(seen.len() >= 4, "only {} shards used", seen.len());
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let store = SessionStore::new(ServerConfig::default());
        let tenant = TenantId(9);
        assert_eq!(
            store.open_session(tenant, config(1), 0).unwrap_err(),
            ServerError::UnknownTenant(tenant)
        );
        assert_eq!(
            store.ledger_view(tenant).unwrap_err(),
            ServerError::UnknownTenant(tenant)
        );
        let ghost = SessionId { tenant, nonce: 0 };
        assert_eq!(
            store.submit(ghost, 0.0, 0.0).unwrap_err(),
            ServerError::UnknownSession(ghost)
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let store = SessionStore::new(ServerConfig::default());
        store.register_tenant(TenantId(1), 1.0).unwrap();
        assert_eq!(
            store.register_tenant(TenantId(1), 5.0).unwrap_err(),
            ServerError::TenantAlreadyRegistered(TenantId(1))
        );
    }

    #[test]
    fn open_session_charges_and_receipts() {
        let store = SessionStore::new(ServerConfig::default());
        let tenant = TenantId(2);
        store.register_tenant(tenant, 1.0).unwrap();
        let s1 = store.open_session(tenant, config(2), 7).unwrap();
        let view = store.ledger_view(tenant).unwrap();
        assert_eq!(view.receipts.len(), 1);
        assert_eq!(view.receipts[0].session, s1.nonce);
        assert!((view.spent - 0.5).abs() < 1e-12);
        // Second session fits exactly; third does not.
        store.open_session(tenant, config(2), 8).unwrap();
        let err = store.open_session(tenant, config(2), 9).unwrap_err();
        assert!(matches!(err, ServerError::Ledger(_)));
        // The failed open leaves no receipt and no session.
        let view = store.ledger_view(tenant).unwrap();
        assert_eq!(view.receipts.len(), 2);
        assert!(view.remaining < 1e-9);
        store.verify_tenant(tenant).unwrap();
    }

    #[test]
    fn invalid_config_charges_nothing() {
        let store = SessionStore::new(ServerConfig::default());
        let tenant = TenantId(3);
        store.register_tenant(tenant, 1.0).unwrap();
        let mut bad = config(1);
        bad.sensitivity = -1.0;
        assert!(matches!(
            store.open_session(tenant, bad, 0).unwrap_err(),
            ServerError::Svt(_)
        ));
        assert!(store.ledger_view(tenant).unwrap().receipts.is_empty());
    }

    #[test]
    fn close_session_reports_final_state_and_frees_the_slot() {
        let store = SessionStore::new(ServerConfig::default());
        let tenant = TenantId(4);
        store.register_tenant(tenant, 1.0).unwrap();
        let session = store.open_session(tenant, config(2), 11).unwrap();
        store.submit(session, 1e9, 0.0).unwrap();
        let status = store.close_session(session).unwrap();
        assert_eq!(status.queries_asked, 1);
        assert_eq!(status.positives, 1);
        assert!(!status.exhausted);
        assert_eq!(
            store.submit(session, 0.0, 0.0).unwrap_err(),
            ServerError::UnknownSession(session)
        );
        // The spend survives the close.
        assert!((store.ledger_view(tenant).unwrap().spent - 0.5).abs() < 1e-12);
    }

    #[test]
    fn double_close_is_unknown_session_deterministically() {
        let store = SessionStore::new(ServerConfig::default());
        let tenant = TenantId(21);
        store.register_tenant(tenant, 1.0).unwrap();
        let session = store.open_session(tenant, config(1), 3).unwrap();
        store.close_session(session).unwrap();
        for _ in 0..3 {
            assert_eq!(
                store.close_session(session).unwrap_err(),
                ServerError::UnknownSession(session)
            );
        }
    }

    #[test]
    fn batch_mixes_errors_and_answers_in_input_order() {
        let store = SessionStore::new(ServerConfig {
            shards: 2,
            ..Default::default()
        });
        let tenant = TenantId(5);
        store.register_tenant(tenant, 1.0).unwrap();
        let session = store.open_session(tenant, config(10), 13).unwrap();
        let ghost = SessionId { tenant, nonce: 999 };
        let batch = vec![
            BatchQuery {
                session,
                query_answer: -1e9,
                threshold: 0.0,
            },
            BatchQuery {
                session: ghost,
                query_answer: 0.0,
                threshold: 0.0,
            },
            BatchQuery {
                session,
                query_answer: f64::NAN,
                threshold: 0.0,
            },
            BatchQuery {
                session,
                query_answer: 1e9,
                threshold: 0.0,
            },
        ];
        let results = store.submit_batch(&batch);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap(), &SvtAnswer::Below);
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &ServerError::UnknownSession(ghost)
        );
        assert!(matches!(results[2], Err(ServerError::Svt(_))));
        assert_eq!(results[3].as_ref().unwrap(), &SvtAnswer::Above);
        // Only the two valid queries were counted.
        assert_eq!(store.session_status(session).unwrap().queries_asked, 2);
    }

    // ----- lifecycle: TTL + LRU cap -------------------------------------

    #[test]
    fn idle_session_expires_and_reports_eviction() {
        let store = SessionStore::new(one_shard(ServerConfig {
            session_ttl: Some(3),
            ..Default::default()
        }));
        let tenant = TenantId(30);
        store.register_tenant(tenant, 10.0).unwrap();
        let idle = store.open_session(tenant, config(1), 1).unwrap();
        let busy = store.open_session(tenant, config(9), 2).unwrap();
        // Three ops on the shard without touching `idle` push it past
        // the TTL of 3 ticks.
        for _ in 0..3 {
            store.submit(busy, -1e9, 0.0).unwrap();
        }
        let err = store.submit(idle, 0.0, 0.0).unwrap_err();
        assert_eq!(
            err,
            ServerError::SessionEvicted {
                session: idle,
                reason: EvictionReason::Expired
            }
        );
        assert!(!err.is_retryable());
        // The tombstone persists: same answer again, and for status.
        assert!(matches!(
            store.session_status(idle).unwrap_err(),
            ServerError::SessionEvicted { .. }
        ));
        // The busy session is untouched.
        store.submit(busy, -1e9, 0.0).unwrap();
        // Closing a session and reading its pinned epoch are lookups
        // too: past the TTL each reports (and enacts) the expiry.
        let closed = store.open_session(tenant, config(1), 3).unwrap();
        store.submit(busy, -1e9, 0.0).unwrap();
        let pinned = store.open_session(tenant, config(1), 4).unwrap();
        for _ in 0..3 {
            store.submit(busy, -1e9, 0.0).unwrap();
        }
        let expired = |session| ServerError::SessionEvicted {
            session,
            reason: EvictionReason::Expired,
        };
        assert_eq!(store.close_session(closed).unwrap_err(), expired(closed));
        assert_eq!(
            store.session_dataset_epoch(pinned).unwrap_err(),
            expired(pinned)
        );
        assert_eq!(store.session_status(closed).unwrap_err(), expired(closed));
        assert_eq!(store.session_status(pinned).unwrap_err(), expired(pinned));
    }

    #[test]
    fn open_sweeps_expired_sessions_lazily() {
        let store = SessionStore::new(one_shard(ServerConfig {
            session_ttl: Some(2),
            ..Default::default()
        }));
        let tenant = TenantId(31);
        store.register_tenant(tenant, 10.0).unwrap();
        let old = store.open_session(tenant, config(1), 1).unwrap();
        // Two more opens tick the clock past old's TTL and sweep it.
        store.open_session(tenant, config(1), 2).unwrap();
        store.open_session(tenant, config(1), 3).unwrap();
        assert!(matches!(
            store.session_status(old).unwrap_err(),
            ServerError::SessionEvicted {
                reason: EvictionReason::Expired,
                ..
            }
        ));
    }

    #[test]
    fn session_cap_reclaims_least_recently_used() {
        let store = SessionStore::new(one_shard(ServerConfig {
            session_cap: Some(2),
            ..Default::default()
        }));
        let tenant = TenantId(32);
        store.register_tenant(tenant, 100.0).unwrap();
        let a = store.open_session(tenant, config(9), 1).unwrap();
        let b = store.open_session(tenant, config(9), 2).unwrap();
        // Touch `a` so `b` is the LRU victim.
        store.submit(a, -1e9, 0.0).unwrap();
        let c = store.open_session(tenant, config(9), 3).unwrap();
        assert_eq!(
            store.submit(b, 0.0, 0.0).unwrap_err(),
            ServerError::SessionEvicted {
                session: b,
                reason: EvictionReason::Capacity
            }
        );
        store.submit(a, -1e9, 0.0).unwrap();
        store.submit(c, -1e9, 0.0).unwrap();
    }

    #[test]
    fn closing_releases_the_lru_slot() {
        let store = SessionStore::new(one_shard(ServerConfig {
            session_cap: Some(2),
            ..Default::default()
        }));
        let tenant = TenantId(33);
        store.register_tenant(tenant, 100.0).unwrap();
        let a = store.open_session(tenant, config(9), 1).unwrap();
        let b = store.open_session(tenant, config(9), 2).unwrap();
        store.close_session(a).unwrap();
        // The freed slot means this open evicts nothing.
        let c = store.open_session(tenant, config(9), 3).unwrap();
        store.submit(b, -1e9, 0.0).unwrap();
        store.submit(c, -1e9, 0.0).unwrap();
        // And the closed id stays UnknownSession, not Evicted.
        assert_eq!(
            store.submit(a, 0.0, 0.0).unwrap_err(),
            ServerError::UnknownSession(a)
        );
    }

    #[test]
    fn eviction_keeps_the_newest_tombstones_per_shard() {
        // Under a cap of 1 every open evicts the one before it: 10,000
        // opens evict 9,999 sessions, and only the newest 4,096 of them
        // keep a tombstone.
        let store = SessionStore::new(one_shard(ServerConfig {
            session_cap: Some(1),
            ..Default::default()
        }));
        let tenant = TenantId(34);
        store.register_tenant(tenant, 1e4).unwrap();
        let opened: Vec<SessionId> = (0..10_000)
            .map(|seed| store.open_session(tenant, config(1), seed).unwrap())
            .collect();
        assert_eq!(store.lock_shard(0).evicted.len(), TOMBSTONES_PER_SHARD);
        let evicted = |session| ServerError::SessionEvicted {
            session,
            reason: EvictionReason::Capacity,
        };
        let oldest_kept = opened.len() - 1 - TOMBSTONES_PER_SHARD;
        for session in [opened[opened.len() - 2], opened[oldest_kept]] {
            assert_eq!(store.session_status(session), Err(evicted(session)));
        }
        for session in [opened[0], opened[oldest_kept - 1]] {
            let err = store.session_status(session).unwrap_err();
            assert_eq!(err, ServerError::UnknownSession(session));
            assert!(!err.is_retryable());
        }
        store.session_status(opened[opened.len() - 1]).unwrap();
    }

    // ----- admission: rate limiting + shedding --------------------------

    #[test]
    fn token_bucket_limits_a_tenant_deterministically() {
        let store = SessionStore::new(one_shard(ServerConfig {
            rate_limit: Some(RateLimit {
                rate_per_tick: 0.0,
                burst: 5.0,
            }),
            ..Default::default()
        }));
        let tenant = TenantId(40);
        store.register_tenant(tenant, 100.0).unwrap();
        let session = store.open_session(tenant, config(9), 1).unwrap();
        // The open consumed one token; exactly four submits remain.
        let mut admitted = 0;
        let mut shed = 0;
        for _ in 0..30 {
            match store.submit(session, -1e9, 0.0) {
                Ok(_) => admitted += 1,
                Err(e) => {
                    assert!(e.is_retryable(), "{e}");
                    assert_eq!(
                        e,
                        ServerError::Overloaded(OverloadCause::TenantRateLimited(tenant))
                    );
                    shed += 1;
                }
            }
        }
        assert_eq!(admitted, 4);
        assert_eq!(shed, 26);
    }

    #[test]
    fn token_bucket_refills_on_the_logical_clock() {
        let store = SessionStore::new(one_shard(ServerConfig {
            rate_limit: Some(RateLimit {
                rate_per_tick: 0.25,
                burst: 1.0,
            }),
            ..Default::default()
        }));
        let quiet = TenantId(41);
        let noisy = TenantId(42);
        store.register_tenant(quiet, 100.0).unwrap();
        store.register_tenant(noisy, 100.0).unwrap();
        let qs = store.open_session(quiet, config(9), 1).unwrap();
        let ns = store.open_session(noisy, config(9), 2).unwrap();
        // quiet's bucket is empty now; each loop advances the shard
        // clock two ticks (half a token at 0.25/tick), so alternating
        // traffic admits quiet every second attempt.
        let mut quiet_ok = 0;
        for _ in 0..8 {
            let _ = store.submit(ns, -1e9, 0.0);
            if store.submit(qs, -1e9, 0.0).is_ok() {
                quiet_ok += 1;
            }
        }
        assert!(
            (3..=5).contains(&quiet_ok),
            "expected ~every-other admit, got {quiet_ok}/8"
        );
    }

    #[test]
    fn saturated_shard_sheds_with_a_retryable_error() {
        // threshold 0 sheds everything: the gate trips before the lock.
        let store = SessionStore::new(one_shard(ServerConfig {
            shed_threshold: Some(0),
            ..Default::default()
        }));
        let tenant = TenantId(43);
        store.register_tenant(tenant, 100.0).unwrap();
        let err = store.open_session(tenant, config(1), 1).unwrap_err();
        assert_eq!(
            err,
            ServerError::Overloaded(OverloadCause::ShardSaturated { shard: 0 })
        );
        assert!(err.is_retryable());
        let ghost = SessionId { tenant, nonce: 0 };
        assert!(store.submit(ghost, 0.0, 0.0).unwrap_err().is_retryable());
        let shed_batch = store.submit_batch(&[BatchQuery {
            session: ghost,
            query_answer: 0.0,
            threshold: 0.0,
        }]);
        assert!(shed_batch[0].as_ref().unwrap_err().is_retryable());
        // Registration and audits are not load-bearing: still served.
        store.verify_all().unwrap();
    }

    #[test]
    fn shed_gate_releases_its_slot_after_every_operation() {
        let store = SessionStore::new(one_shard(ServerConfig {
            shed_threshold: Some(1),
            ..Default::default()
        }));
        let tenant = TenantId(44);
        store.register_tenant(tenant, 100.0).unwrap();
        let session = store.open_session(tenant, config(9), 1).unwrap();
        // Sequential ops each hold the single slot and release it; none
        // shed — including ops that end in an error.
        for _ in 0..50 {
            store.submit(session, -1e9, 0.0).unwrap();
        }
        let ghost = SessionId { tenant, nonce: 77 };
        for _ in 0..5 {
            assert_eq!(
                store.submit(ghost, 0.0, 0.0).unwrap_err(),
                ServerError::UnknownSession(ghost)
            );
        }
        store.submit(session, -1e9, 0.0).unwrap();
    }

    #[test]
    fn unregistered_tenants_keep_no_bucket_and_are_never_rate_limited() {
        // Calls on a tenant with no ledger tick the clock and fail their
        // lookup, but take no token: they leave no bucket behind, and a
        // burst of one never turns their errors into `Overloaded`.
        let store = SessionStore::new(one_shard(ServerConfig {
            rate_limit: Some(RateLimit {
                rate_per_tick: 0.0,
                burst: 1.0,
            }),
            ..Default::default()
        }));
        store.register_tenant(TenantId(0), 10.0).unwrap();
        let tenants = 500;
        for t in 1..=tenants {
            let tenant = TenantId(t);
            let ghost = SessionId { tenant, nonce: 0 };
            let unknown = ServerError::UnknownSession(ghost);
            for _ in 0..2 {
                assert_eq!(store.submit(ghost, 0.0, 0.0), Err(unknown.clone()));
                assert_eq!(store.submit_item(ghost, 0, 0.0), Err(unknown.clone()));
                let query = BatchQuery {
                    session: ghost,
                    query_answer: 0.0,
                    threshold: 0.0,
                };
                assert_eq!(store.submit_batch(&[query]), [Err(unknown.clone())]);
                assert_eq!(
                    store.open_session(tenant, config(1), 0),
                    Err(ServerError::UnknownTenant(tenant))
                );
            }
        }
        {
            let shard = store.lock_shard(0);
            assert!(shard.buckets.is_empty());
            assert_eq!(shard.clock, 8 * tenants);
        }
        // The registered tenant keeps its limit: its open takes the one
        // token, and its next call is shed.
        let session = store.open_session(TenantId(0), config(1), 0).unwrap();
        assert_eq!(
            store.submit(session, 0.0, 0.0),
            Err(ServerError::Overloaded(OverloadCause::TenantRateLimited(
                TenantId(0)
            )))
        );
    }

    /// One step of the store script that
    /// `submit_paths_admit_and_answer_alike` and
    /// `batched_runs_answer_like_submit` drive.
    #[derive(Clone, Copy)]
    enum Step {
        /// Open a session of the tenant with the seed.
        Open(TenantId, u64),
        /// Ask the `session`-th id opened so far about `item`.
        Ask { session: usize, item: usize },
    }

    /// The scores of both script tenants' datasets, and the script's
    /// true answers.
    const SCRIPT_SCORES: [f64; 4] = [1e9, -1e9, 0.5, -0.5];
    const SCRIPT_TENANTS: [TenantId; 2] = [TenantId(60), TenantId(61)];

    /// 240 opens and asks on two tenants, from a fixed stream.
    fn script() -> Vec<Step> {
        let mut mix = Mix(17);
        let mut opened = 0;
        (0..240u64)
            .map(|step| {
                let tenant = SCRIPT_TENANTS[mix.below(2) as usize];
                if opened == 0 || mix.below(6) == 0 {
                    opened += 1;
                    Step::Open(tenant, step)
                } else {
                    let session = mix.below(opened) as usize;
                    let item = mix.below(SCRIPT_SCORES.len() as u64) as usize;
                    Step::Ask { session, item }
                }
            })
            .collect()
    }

    /// The one-shard store the script runs on: a rate limit, a session
    /// cap of 3 and the TTL `ttl`.
    fn script_store(ttl: u64) -> SessionStore {
        let store = SessionStore::new(one_shard(ServerConfig {
            session_ttl: Some(ttl),
            session_cap: Some(3),
            rate_limit: Some(RateLimit {
                rate_per_tick: 0.75,
                burst: 2.0,
            }),
            ..Default::default()
        }));
        for tenant in SCRIPT_TENANTS {
            store.register_tenant(tenant, 100.0).unwrap();
            store.register_dataset(tenant, &SCRIPT_SCORES).unwrap();
        }
        store
    }

    /// Runs a script open, recording the id later steps ask: a shed open
    /// leaves an id that no session has.
    fn script_open(
        store: &SessionStore,
        sessions: &mut Vec<SessionId>,
        tenant: TenantId,
        seed: u64,
    ) -> Result<SessionId> {
        let opened = store.open_session(tenant, config(3), seed);
        sessions.push(*opened.as_ref().unwrap_or(&SessionId {
            tenant,
            nonce: u64::MAX - seed,
        }));
        opened
    }

    #[test]
    fn submit_paths_admit_and_answer_alike() {
        // One script of opens and asks under a rate limit, a session cap
        // and a TTL, driven through `submit`, through `submit_item` (the
        // dataset's scores are the script's answers) and through
        // one-query `submit_batch` calls: every step must give the same
        // answer or error and leave every session in the same state.
        #[derive(Clone, Copy)]
        enum Path {
            Submit,
            Item,
            Batch,
        }
        let drive = |path: Path| {
            let store = script_store(8);
            let mut sessions: Vec<SessionId> = Vec::new();
            let mut trace = Vec::new();
            for step in script() {
                let outcome = match step {
                    Step::Open(tenant, seed) => {
                        script_open(&store, &mut sessions, tenant, seed).map(|_| None)
                    }
                    Step::Ask { session, item } => {
                        let session = sessions[session];
                        let answer = match path {
                            Path::Submit => store.submit(session, SCRIPT_SCORES[item], 0.0),
                            Path::Item => store.submit_item(session, item, 0.0),
                            Path::Batch => store
                                .submit_batch(&[BatchQuery {
                                    session,
                                    query_answer: SCRIPT_SCORES[item],
                                    threshold: 0.0,
                                }])
                                .remove(0),
                        };
                        answer.map(Some)
                    }
                };
                let statuses: Vec<_> = sessions.iter().map(|&s| store.session_status(s)).collect();
                trace.push((outcome, statuses));
            }
            trace
        };
        let submitted = drive(Path::Submit);
        for path in [Path::Item, Path::Batch] {
            for (step, (want, got)) in submitted.iter().zip(&drive(path)).enumerate() {
                assert_eq!(want, got, "step {step}");
            }
        }
        // The script reaches every admission and lifecycle outcome.
        let outcomes: Vec<_> = submitted.iter().map(|(outcome, _)| outcome).collect();
        let evicted = |why| {
            outcomes.iter().any(
                |o| matches!(o, Err(ServerError::SessionEvicted { reason, .. }) if *reason == why),
            )
        };
        assert!(evicted(EvictionReason::Capacity) && evicted(EvictionReason::Expired));
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, Err(ServerError::Overloaded(_)))));
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, Err(ServerError::Svt(_)))));
        for answer in [SvtAnswer::Above, SvtAnswer::Below] {
            assert!(outcomes.iter().any(|o| o.as_ref() == Ok(&Some(answer))));
        }
    }

    #[test]
    fn a_batch_answers_each_query_as_submit_would() {
        // Under a TTL of 3 the batch [s, u, u, s] answers s, then leaves
        // it idle for three ticks: its second query finds it expired, as
        // the last of four `submit` calls does, and its first query
        // still gets its answer.
        let drive = |batched: bool| {
            let store = SessionStore::new(one_shard(ServerConfig {
                session_ttl: Some(3),
                ..Default::default()
            }));
            let tenant = TenantId(62);
            store.register_tenant(tenant, 10.0).unwrap();
            let s = store.open_session(tenant, config(9), 1).unwrap();
            let u = store.open_session(tenant, config(9), 2).unwrap();
            let batch = [s, u, u, s].map(|session| BatchQuery {
                session,
                query_answer: -1e9,
                threshold: 0.0,
            });
            let results = if batched {
                store.submit_batch(&batch)
            } else {
                batch
                    .iter()
                    .map(|q| store.submit(q.session, q.query_answer, q.threshold))
                    .collect()
            };
            (s, results)
        };
        let (s, submitted) = drive(false);
        let expired = ServerError::SessionEvicted {
            session: s,
            reason: EvictionReason::Expired,
        };
        let below = Ok(SvtAnswer::Below);
        assert_eq!(
            submitted,
            [below.clone(), below.clone(), below, Err(expired)]
        );
        assert_eq!(drive(true).1, submitted);
    }

    #[test]
    fn batched_runs_answer_like_submit() {
        // The script of `submit_paths_admit_and_answer_alike`, under a
        // TTL short enough for a session to expire between two of its
        // queries in one batch. Each run of consecutive asks (1–8 of
        // them, cut short at every open) goes out as one `submit_batch`,
        // or as one `submit` per query: each query must get the same
        // result, and every session the same status after each run.
        type Answered = (SessionId, Result<Option<SvtAnswer>>);
        let expires_mid_run = |results: &[Answered]| {
            results.iter().enumerate().any(|(i, (session, first))| {
                first.is_ok()
                    && results[i + 1..].iter().any(|(later, result)| {
                        let expired = ServerError::SessionEvicted {
                            session: *session,
                            reason: EvictionReason::Expired,
                        };
                        later == session && *result == Err(expired)
                    })
            })
        };
        let mut mid_run_expiries = 0;
        for seed in 0..4 {
            let mut lengths = Mix(seed);
            let mut visits: Vec<Vec<Step>> = Vec::new();
            let mut room = 0;
            for step in script() {
                if matches!(step, Step::Open(..)) {
                    visits.push(vec![step]);
                    room = 0;
                    continue;
                }
                if room == 0 {
                    visits.push(Vec::new());
                    room = 1 + lengths.below(8);
                }
                visits.last_mut().unwrap().push(step);
                room -= 1;
            }
            let drive = |batched: bool| {
                let store = script_store(3);
                let mut sessions: Vec<SessionId> = Vec::new();
                let mut trace = Vec::new();
                for visit in &visits {
                    let results: Vec<Answered> = match visit[..] {
                        [Step::Open(tenant, seed)] => {
                            let opened = script_open(&store, &mut sessions, tenant, seed);
                            vec![(*sessions.last().unwrap(), opened.map(|_| None))]
                        }
                        _ => {
                            let queries: Vec<BatchQuery> = visit
                                .iter()
                                .map(|step| match *step {
                                    Step::Ask { session, item } => BatchQuery {
                                        session: sessions[session],
                                        query_answer: SCRIPT_SCORES[item],
                                        threshold: 0.0,
                                    },
                                    Step::Open(..) => unreachable!("opens run alone"),
                                })
                                .collect();
                            let answers = if batched {
                                store.submit_batch(&queries)
                            } else {
                                queries
                                    .iter()
                                    .map(|q| store.submit(q.session, q.query_answer, q.threshold))
                                    .collect()
                            };
                            let ids = queries.iter().map(|q| q.session);
                            ids.zip(answers.into_iter().map(|a| a.map(Some))).collect()
                        }
                    };
                    let statuses: Vec<_> =
                        sessions.iter().map(|&s| store.session_status(s)).collect();
                    trace.push((results, statuses));
                }
                trace
            };
            let submitted = drive(false);
            for (visit, (want, got)) in submitted.iter().zip(&drive(true)).enumerate() {
                assert_eq!(want, got, "seed {seed}, visit {visit}");
            }
            mid_run_expiries += submitted
                .iter()
                .filter(|(results, _)| expires_mid_run(results))
                .count();
        }
        // The runs reach what a batch can get wrong: one run answers a
        // session, and a later query of the same run finds it expired.
        assert!(mid_run_expiries > 0);
    }

    // ----- durability: WAL write-through + recovery ---------------------

    #[test]
    fn durable_store_round_trips_through_recovery() {
        let server = one_shard(ServerConfig::default());
        let sink = MemSink::new();
        let store =
            SessionStore::with_wal_sinks(server, vec![Box::new(sink.clone())], FsyncPolicy::Always);
        let t1 = TenantId(50);
        let t2 = TenantId(51);
        store.register_tenant(t1, 4.0).unwrap();
        store.register_tenant(t2, 2.0).unwrap();
        let s = store.open_session(t1, config(9), 1).unwrap();
        store.open_session(t1, config(9), 2).unwrap();
        store.open_session(t2, config(9), 3).unwrap();
        store.submit(s, -1e9, 0.0).unwrap();
        let spent_t1 = store.ledger_view(t1).unwrap().spent;
        let spent_t2 = store.ledger_view(t2).unwrap().spent;

        let (recovered, report) = SessionStore::recover_with_sinks(
            server,
            &[sink.bytes()],
            vec![Box::new(MemSink::new())],
            FsyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(report.tenants, 2);
        assert_eq!(report.records, 5); // 2 registrations + 3 charges
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(recovered.verify_all().unwrap(), 2);
        assert_eq!(
            recovered.ledger_view(t1).unwrap().spent.to_bits(),
            spent_t1.to_bits()
        );
        assert_eq!(
            recovered.ledger_view(t2).unwrap().spent.to_bits(),
            spent_t2.to_bits()
        );
        // Sessions are memory-only: gone after recovery.
        assert_eq!(
            recovered.submit(s, 0.0, 0.0).unwrap_err(),
            ServerError::UnknownSession(s)
        );
        // But the store keeps serving: nonces resume past the log.
        let s2 = recovered.open_session(t1, config(9), 9).unwrap();
        assert!(s2.nonce > s.nonce);
        recovered.verify_all().unwrap();
    }

    #[test]
    fn recovered_nonces_never_collide_with_logged_sessions() {
        let server = one_shard(ServerConfig::default());
        let sink = MemSink::new();
        let store =
            SessionStore::with_wal_sinks(server, vec![Box::new(sink.clone())], FsyncPolicy::Always);
        let tenant = TenantId(52);
        store.register_tenant(tenant, 100.0).unwrap();
        let mut last = 0;
        for seed in 0..5 {
            last = store.open_session(tenant, config(1), seed).unwrap().nonce;
        }
        let (recovered, _) = SessionStore::recover_with_sinks(
            server,
            &[sink.bytes()],
            vec![Box::new(MemSink::new())],
            FsyncPolicy::Always,
        )
        .unwrap();
        let next = recovered.open_session(tenant, config(1), 9).unwrap();
        assert_eq!(next.nonce, last + 1);
    }

    #[test]
    fn shard_routing_matches_the_splitmix64_finalizer_it_was_defined_by() {
        // Recovery refuses a tenant found in another shard's log, so a
        // store written before the routing moved could not reopen: pin
        // `home_shard` against the formula the logs were written under.
        fn old_mix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        }
        for tenant in (0..5000).chain([u64::MAX - 1, u64::MAX]) {
            for mask in [0, 1, 15, 255] {
                assert_eq!(
                    home_shard(tenant, mask),
                    (old_mix64(tenant) & mask) as usize
                );
            }
        }
    }

    #[test]
    fn recovery_rejects_a_wrong_shard_count() {
        let sink = MemSink::new();
        let store = SessionStore::with_wal_sinks(
            one_shard(ServerConfig::default()),
            vec![Box::new(sink.clone())],
            FsyncPolicy::Always,
        );
        // Tenant 3 hashes to shard 1 of a 2-shard store, so its record
        // in shard 0's log betrays the count mismatch.
        let tenant = (0..64)
            .map(TenantId)
            .find(|t| home_shard(t.0, 1) == 1)
            .expect("some tenant hashes to shard 1");
        store.register_tenant(tenant, 1.0).unwrap();
        let two_shards = ServerConfig {
            shards: 2,
            ..Default::default()
        };
        let err = SessionStore::recover_with_sinks(
            two_shards,
            &[sink.bytes(), Vec::new()],
            vec![Box::new(MemSink::new()), Box::new(MemSink::new())],
            FsyncPolicy::Always,
        )
        .unwrap_err();
        assert!(matches!(err, ServerError::Durability(_)), "{err}");
    }

    #[test]
    fn wal_failure_refuses_the_charge_and_poisons_the_store() {
        use dp_mechanisms::{FaultMode, FaultPlan, FaultySink};
        let server = one_shard(ServerConfig::default());
        let mem = MemSink::new();
        // Third append (the second session open) fails outright.
        let faulty = FaultySink::new(
            mem.clone(),
            FaultPlan {
                fail_op: 2,
                mode: FaultMode::WriteError,
            },
        );
        let store =
            SessionStore::with_wal_sinks(server, vec![Box::new(faulty)], FsyncPolicy::Always);
        let tenant = TenantId(53);
        store.register_tenant(tenant, 100.0).unwrap();
        let s1 = store.open_session(tenant, config(9), 1).unwrap();
        let err = store.open_session(tenant, config(9), 2).unwrap_err();
        assert!(matches!(err, ServerError::Durability(_)), "{err}");
        assert!(!err.is_retryable());
        assert!(store.durability_poisoned());
        // The refused charge never reached the in-memory ledger.
        assert!((store.ledger_view(tenant).unwrap().spent - 0.5).abs() < 1e-12);
        // Budget-bearing ops now fail fast; reads and queries survive.
        assert!(matches!(
            store.open_session(tenant, config(9), 3).unwrap_err(),
            ServerError::Durability(WalError::Poisoned)
        ));
        assert!(matches!(
            store.register_tenant(TenantId(54), 1.0).unwrap_err(),
            ServerError::Durability(WalError::Poisoned)
        ));
        store.submit(s1, -1e9, 0.0).unwrap();
        store.verify_all().unwrap();
        // And what *was* acknowledged is all on disk and replayable.
        let (recovered, _) = SessionStore::recover_with_sinks(
            server,
            &[mem.bytes()],
            vec![Box::new(MemSink::new())],
            FsyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(
            recovered.ledger_view(tenant).unwrap().spent.to_bits(),
            store.ledger_view(tenant).unwrap().spent.to_bits()
        );
    }

    /// SplitMix64 stream for the hostile-update proptest.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// Mostly in `0..2n` (half of them out of range), sometimes
        /// `usize::MAX`.
        fn item(&mut self, n: usize) -> usize {
            match self.below(8) {
                0 => usize::MAX,
                _ => self.below(2 * n as u64) as usize,
            }
        }

        /// NaN, ±∞, ±0, ±`f64::MAX` or a small integer.
        fn value(&mut self) -> f64 {
            match self.below(10) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f64::MAX,
                6 => -f64::MAX,
                _ => self.below(7) as f64 - 3.0,
            }
        }
    }

    /// One shard's session lifecycle without a rate limit, for
    /// `sessions_live_and_die_as_a_reference_shard_says`: the lookup
    /// reads the tombstones first, and every query re-files its session
    /// under its exact last touch whatever the knobs, so the front of
    /// `lru` is always the least recently used session.
    #[derive(Default)]
    struct ReferenceShard {
        clock: u64,
        next_nonce: u64,
        /// Each live session's driver and last touch.
        sessions: HashMap<SessionId, (SessionDriver, u64)>,
        lru: BTreeMap<u64, SessionId>,
        evicted: HashMap<SessionId, EvictionReason>,
    }

    impl ReferenceShard {
        fn evict(&mut self, session: SessionId, reason: EvictionReason) {
            let (_, touch) = self.sessions.remove(&session).expect("live");
            self.lru.remove(&touch);
            self.evicted.insert(session, reason);
        }

        /// The lookup every session operation makes at tick `now`.
        fn live(&mut self, session: SessionId, ttl: Option<u64>, now: u64) -> Result<()> {
            if let Some(&reason) = self.evicted.get(&session) {
                return Err(ServerError::SessionEvicted { session, reason });
            }
            match self.sessions.get(&session) {
                None => Err(ServerError::UnknownSession(session)),
                Some(&(_, touch)) if ttl.is_some_and(|ttl| now - touch >= ttl) => {
                    self.evict(session, EvictionReason::Expired);
                    Err(ServerError::SessionEvicted {
                        session,
                        reason: EvictionReason::Expired,
                    })
                }
                Some(_) => Ok(()),
            }
        }

        fn open(
            &mut self,
            tenant: TenantId,
            seed: u64,
            ttl: Option<u64>,
            cap: Option<usize>,
        ) -> SessionId {
            self.clock += 1;
            while let Some((&touch, &session)) = self.lru.first_key_value() {
                if ttl.is_none_or(|ttl| self.clock - touch < ttl) {
                    break;
                }
                self.evict(session, EvictionReason::Expired);
            }
            while cap.is_some_and(|cap| self.sessions.len() >= cap) {
                let (_, &session) = self.lru.first_key_value().expect("nonempty");
                self.evict(session, EvictionReason::Capacity);
            }
            let driver = SessionDriver::open(config(2), &mut DpRng::seed_from_u64(seed)).unwrap();
            let id = SessionId {
                tenant,
                nonce: self.next_nonce,
            };
            self.next_nonce += 1;
            self.sessions.insert(id, (driver, self.clock));
            self.lru.insert(self.clock, id);
            id
        }

        fn ask(
            &mut self,
            session: SessionId,
            answer: Result<f64>,
            ttl: Option<u64>,
        ) -> Result<SvtAnswer> {
            self.clock += 1;
            self.live(session, ttl, self.clock)?;
            let (driver, touch) = self.sessions.get_mut(&session).expect("live");
            self.lru.remove(touch);
            *touch = self.clock;
            self.lru.insert(self.clock, session);
            Ok(driver.ask(answer?, 0.0)?)
        }

        fn status(&mut self, session: SessionId, ttl: Option<u64>) -> Result<SessionStatus> {
            self.live(session, ttl, self.clock)?;
            let (driver, _) = &self.sessions[&session];
            Ok(SessionStatus {
                queries_asked: driver.queries_asked(),
                positives: driver.state().positives(),
                exhausted: driver.is_exhausted(),
            })
        }

        fn close(&mut self, session: SessionId, ttl: Option<u64>) -> Result<SessionStatus> {
            let status = self.status(session, ttl)?;
            let (_, touch) = self.sessions.remove(&session).expect("live");
            self.lru.remove(&touch);
            Ok(status)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sessions_live_and_die_as_a_reference_shard_says(seed in any::<u64>()) {
            // Random opens, asks by every path, status reads and closes
            // on one shard with a small TTL, a small cap, both or
            // neither: every result, its error kind and eviction reason
            // included, must match the reference, and so must the
            // number of sessions and tombstones the shard holds and
            // every session's final status. With neither knob the store
            // keeps no LRU index, which must change nothing.
            let mut mix = Mix(seed);
            let (ttl, cap) = match mix.below(4) {
                0 => (None, Some(1 + mix.below(4) as usize)),
                1 => (Some(2 + mix.below(14)), None),
                2 => (Some(2 + mix.below(14)), Some(1 + mix.below(4) as usize)),
                _ => (None, None),
            };
            let recent = 2 * cap.unwrap_or(3) + 2;
            let store = SessionStore::new(one_shard(ServerConfig {
                session_ttl: ttl,
                session_cap: cap,
                ..Default::default()
            }));
            for tenant in SCRIPT_TENANTS {
                store.register_tenant(tenant, 1e6).unwrap();
                store.register_dataset(tenant, &SCRIPT_SCORES).unwrap();
            }
            let mut reference = ReferenceShard::default();
            let mut ids: Vec<SessionId> = Vec::new();
            let len = SCRIPT_SCORES.len();
            // Live sessions and tombstones held: an expired session
            // nobody asks for again must still be swept at an open.
            let held = |store: &SessionStore| {
                let shard = store.lock_shard(0);
                (shard.sessions.len(), shard.evicted.len())
            };
            for op in 0..300 {
                prop_assert_eq!(
                    held(&store),
                    (reference.sessions.len(), reference.evicted.len()),
                    "seed {}, before op {}", seed, op
                );
                // Mostly a recent id, sometimes any id or a forged one.
                let pick = |mix: &mut Mix| match mix.below(16) {
                    _ if ids.is_empty() => SessionId { tenant: SCRIPT_TENANTS[0], nonce: u64::MAX },
                    0 => SessionId { tenant: SCRIPT_TENANTS[1], nonce: u64::MAX - mix.below(4) },
                    1..=4 => ids[mix.below(ids.len() as u64) as usize],
                    _ => ids[ids.len() - 1 - mix.below(ids.len().min(recent) as u64) as usize],
                };
                let (got, want) = match mix.below(12) {
                    0 | 1 => {
                        let tenant = SCRIPT_TENANTS[mix.below(2) as usize];
                        let id = store.open_session(tenant, config(2), op).unwrap();
                        ids.push(id);
                        let want = reference.open(tenant, op, ttl, cap);
                        prop_assert_eq!(id, want, "seed {}, op {}", seed, op);
                        continue;
                    }
                    2..=4 => {
                        let (session, answer) = (pick(&mut mix), mix.below(len as u64) as usize);
                        let got = store.submit(session, SCRIPT_SCORES[answer], 0.0);
                        (vec![got], vec![reference.ask(session, Ok(SCRIPT_SCORES[answer]), ttl)])
                    }
                    5 | 6 => {
                        let (session, item) = (pick(&mut mix), mix.below(len as u64 + 1) as usize);
                        let answer = SCRIPT_SCORES
                            .get(item)
                            .copied()
                            .ok_or(ServerError::ItemOutOfRange { item, len });
                        let got = store.submit_item(session, item, 0.0);
                        (vec![got], vec![reference.ask(session, answer, ttl)])
                    }
                    7 | 8 => {
                        let queries: Vec<BatchQuery> = (0..1 + mix.below(8))
                            .map(|_| BatchQuery {
                                session: pick(&mut mix),
                                query_answer: SCRIPT_SCORES[mix.below(len as u64) as usize],
                                threshold: 0.0,
                            })
                            .collect();
                        let want = queries
                            .iter()
                            .map(|q| reference.ask(q.session, Ok(q.query_answer), ttl))
                            .collect();
                        (store.submit_batch(&queries), want)
                    }
                    9 | 10 => {
                        let session = pick(&mut mix);
                        prop_assert_eq!(
                            store.session_status(session),
                            reference.status(session, ttl),
                            "seed {}, op {}", seed, op
                        );
                        continue;
                    }
                    _ => {
                        let session = pick(&mut mix);
                        prop_assert_eq!(
                            store.close_session(session),
                            reference.close(session, ttl),
                            "seed {}, op {}", seed, op
                        );
                        continue;
                    }
                };
                prop_assert_eq!(got, want, "seed {}, op {}", seed, op);
            }
            for &session in &ids {
                prop_assert_eq!(
                    store.session_status(session),
                    reference.status(session, ttl),
                    "seed {}, final status of {:?}", seed, session
                );
            }
        }

        #[test]
        fn hostile_update_batches_are_rejected_without_changing_anything(
            seed in any::<u64>(),
            n in 1usize..12,
            batches in 1usize..40,
        ) {
            // Every batch returns; an accepted one is applied to the
            // mirror in order, a rejected one (its first bad update
            // named) leaves the published snapshot, the epoch and the
            // scores exactly as they were.
            let mut mix = Mix(seed);
            let store = SessionStore::new(ServerConfig::default());
            let tenant = TenantId(1);
            store.register_tenant(tenant, 1.0).unwrap();
            let mut mirror: Vec<f64> = (0..n).map(|_| mix.below(5) as f64).collect();
            store.register_dataset(tenant, &mirror).unwrap();
            for batch in 0..batches {
                let updates: Vec<ScoreUpdate> = (0..1 + mix.below(3))
                    .map(|_| {
                        let item = mix.item(n);
                        let x = mix.value();
                        if mix.below(2) == 0 {
                            ScoreUpdate::Set { item, score: x }
                        } else {
                            ScoreUpdate::Increment { item, delta: x }
                        }
                    })
                    .collect();
                let published = store.datasets.snapshot(tenant).unwrap();
                let epoch = store.dataset_epoch(tenant).unwrap();
                let mut staged = mirror.clone();
                let mut want = Ok(());
                for &update in &updates {
                    let (item, next) = match update {
                        ScoreUpdate::Set { item, score } => (item, score),
                        ScoreUpdate::Increment { item, delta } => {
                            (item, staged.get(item).map_or(f64::NAN, |&s| s + delta))
                        }
                    };
                    if item >= n {
                        want = Err(ServerError::ItemOutOfRange { item, len: n });
                        break;
                    }
                    if !next.is_finite() {
                        want = Err(ServerError::Dataset(DataError::NonFiniteScore {
                            index: item,
                            value: next,
                        }));
                        break;
                    }
                    staged[item] = next;
                }
                match (store.update_scores(tenant, &updates), want) {
                    (Ok(got), Ok(())) => {
                        let changed = staged.iter().zip(&mirror).any(|(a, b)| a != b);
                        prop_assert_eq!(got, epoch + u64::from(changed), "batch {}", batch);
                        mirror = staged;
                    }
                    (Err(got), Err(want)) => {
                        // NaN payloads never compare equal: match on the index.
                        if let (
                            ServerError::Dataset(DataError::NonFiniteScore { index: a, .. }),
                            ServerError::Dataset(DataError::NonFiniteScore { index: b, .. }),
                        ) = (&got, &want)
                        {
                            prop_assert_eq!(a, b, "batch {}", batch);
                        } else {
                            prop_assert_eq!(&got, &want, "batch {}", batch);
                        }
                        let after = store.datasets.snapshot(tenant).unwrap();
                        prop_assert!(Arc::ptr_eq(&published, &after), "batch {}", batch);
                        prop_assert_eq!(store.dataset_epoch(tenant).unwrap(), epoch);
                    }
                    (got, want) => prop_assert!(
                        false,
                        "batch {}: got {:?}, want {:?}",
                        batch,
                        got,
                        want
                    ),
                }
                let now = store.datasets.snapshot(tenant).unwrap();
                for (item, &score) in mirror.iter().enumerate() {
                    prop_assert_eq!(now.score_of_item(item), score, "batch {}", batch);
                }
            }
        }
    }
}
