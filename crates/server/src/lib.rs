//! # svt-server
//!
//! Multi-tenant serving layer over the interactive Sparse Vector
//! Technique of *Understanding the Sparse Vector Technique for
//! Differential Privacy* (Lyu, Su, Li; VLDB 2017).
//!
//! The paper's interactive setting is exactly a serving problem: many
//! analysts (tenants) stream queries against shared data, ⊥ answers
//! are free, and each tenant's ⊤ allowance is bounded by a privacy
//! budget. This crate provides the store that makes that concurrent:
//!
//! - [`SessionStore`] — a fixed array of mutex-guarded shards, each
//!   owning the sessions *and* the budget ledger of the tenants hashed
//!   to it. Sessions are `svt-core`'s pure
//!   [`SessionState`](svt_core::session::SessionState) machines wrapped
//!   in their noise [`SessionDriver`](svt_core::session::SessionDriver),
//!   so parking them in shared maps is safe by construction.
//! - [`SessionStore::submit_batch`] — answers a mixed-tenant batch with
//!   one lock acquisition per shard, each query asked in input order
//!   exactly as [`SessionStore::submit`] asks it (one scalar `ν` draw
//!   per query), so the answers are bit-identical to submitting the
//!   queries one at a time (pinned by test).
//! - Per-tenant [`BudgetLedger`](dp_mechanisms::BudgetLedger)s — every
//!   session open appends a hash-chained charge receipt;
//!   [`SessionStore::verify_tenant`] / [`SessionStore::verify_all`]
//!   re-derive the chains, and [`SessionStore::ledger_view`] hands an
//!   auditor a self-contained copy.
//!
//! The store is also **durable** and **self-defending**:
//!
//! - [`SessionStore::with_wal_dir`] writes every budget-bearing
//!   operation through a per-shard
//!   [`LedgerWal`](dp_mechanisms::LedgerWal) *before* acknowledging it
//!   (acknowledged ⇒ persisted under `FsyncPolicy::Always`), and
//!   [`SessionStore::recover_wal_dir`] rebuilds every tenant's
//!   chain-verified ledger after a crash — recovered spent `ε` is never
//!   an undercount of what clients were told.
//! - [`ServerConfig`] carries optional session expiry (logical-clock
//!   TTL), a per-shard LRU session cap, per-tenant token-bucket rate
//!   limits, and per-shard load shedding. Shed requests report the
//!   retryable [`ServerError::Overloaded`]; reclaimed sessions report
//!   [`ServerError::SessionEvicted`] (see
//!   [`ServerError::is_retryable`]).
//!
//! **Datasets are served too.** [`SessionStore::register_dataset`]
//! gives a tenant a live score table ([`dp_data::LiveScores`], copied
//! unsorted) behind an epoch-swapped [`dp_data::ScoreSnapshot`];
//! [`SessionStore::update_scores`] applies atomic batches of score
//! changes to the table's copy-on-write overlay and publishes a new
//! epoch;
//! [`SessionStore::open_session`] pins the snapshot current at open
//! time, so every session answers item-level queries
//! ([`SessionStore::submit_item`]) against one immutable epoch,
//! bit-identical to a sequential run over those scores, regardless of
//! concurrent updates.
//!
//! The `serve_smoke` driver in `svt-experiments` exercises this crate
//! under N tenants × M worker threads — including a kill-and-recover
//! phase — and reports qps / p99 latency / shed / evicted /
//! recovery-time into the benchmark schema.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod error;
pub mod store;

pub use dataset::ScoreUpdate;
pub use error::{EvictionReason, OverloadCause, ServerError};
pub use store::{
    BatchQuery, LedgerView, RateLimit, RecoveryReport, Result, ServerConfig, SessionId,
    SessionStatus, SessionStore, TenantId,
};
