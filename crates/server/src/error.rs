//! Error surface of the serving layer.
//!
//! The server distinguishes routing failures (unknown tenant/session),
//! ledger failures (budget, chain integrity), protocol failures (the
//! SVT session itself rejecting a query), lifecycle failures (the store
//! evicted the session), admission failures (the store refused the
//! work), and durability failures (the write-ahead log could not
//! persist a charge), so callers can map each to the right
//! client-facing status.
//!
//! The one classification clients actually branch on is
//! [`ServerError::is_retryable`]: **only** [`ServerError::Overloaded`]
//! is retryable. Everything else is either a permanent fact about the
//! request (unknown ids, exhausted budget, halted session), a permanent
//! fact about the session's lifecycle ([`ServerError::SessionEvicted`]
//! — the noise state is gone; retrying the same id can never succeed;
//! open a new session), or a stop-the-world fault
//! ([`ServerError::Durability`] — the store refuses to acknowledge
//! charges it cannot persist).

use std::fmt;

use crate::store::{SessionId, TenantId};
use dp_data::DataError;
use dp_mechanisms::{LedgerError, WalError};
use svt_core::SvtError;

/// Why the store removed a session before the client closed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionReason {
    /// The session sat idle past the shard's logical-clock TTL.
    Expired,
    /// The shard hit its live-session cap and reclaimed the
    /// least-recently-used session.
    Capacity,
}

impl fmt::Display for EvictionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Expired => write!(f, "idle past TTL"),
            Self::Capacity => write!(f, "LRU-reclaimed at the session cap"),
        }
    }
}

/// Why the store refused to admit work right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadCause {
    /// The tenant drained its token bucket; tokens refill on the
    /// shard's logical clock.
    TenantRateLimited(TenantId),
    /// The shard's in-flight operation count crossed its shed
    /// threshold.
    ShardSaturated {
        /// The saturated shard's index.
        shard: usize,
    },
}

impl fmt::Display for OverloadCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TenantRateLimited(t) => write!(f, "tenant {} is rate-limited", t.0),
            Self::ShardSaturated { shard } => write!(f, "shard {shard} is saturated"),
        }
    }
}

/// Errors produced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The tenant was never registered on this store.
    UnknownTenant(TenantId),
    /// The tenant is already registered; budgets cannot be silently
    /// replaced.
    TenantAlreadyRegistered(TenantId),
    /// No live session with this id: never opened, already closed, or
    /// evicted before the shard's newest 4,096 evictions.
    UnknownSession(SessionId),
    /// The store evicted this session (TTL or capacity). Its noise
    /// state is gone. The id reports this error while its tombstone is
    /// among the shard's newest 4,096, and [`ServerError::UnknownSession`]
    /// after that. Neither is retryable — open a new session.
    SessionEvicted {
        /// The evicted session.
        session: SessionId,
        /// Why the store removed it.
        reason: EvictionReason,
    },
    /// The store refused to admit the work right now. Retryable: the
    /// request was not processed and nothing was charged.
    Overloaded(OverloadCause),
    /// The tenant's budget ledger rejected the operation (exhausted
    /// budget, invalid charge, or a failed chain audit).
    Ledger(LedgerError),
    /// The SVT session rejected the query (halted, non-finite input, or
    /// an invalid configuration at open).
    Svt(SvtError),
    /// The write-ahead log could not persist the operation. The charge
    /// was **not** acknowledged and the WAL is poisoned: the store
    /// stops accepting budget-bearing work until recovered from the
    /// log.
    Durability(WalError),
    /// The tenant has no registered dataset, so item-level queries
    /// cannot resolve scores.
    NoDataset(TenantId),
    /// The tenant already has a dataset; datasets evolve through
    /// `update_scores`, never by silent replacement.
    DatasetAlreadyRegistered(TenantId),
    /// The queried item does not exist in the session's pinned dataset
    /// snapshot.
    ItemOutOfRange {
        /// The offending item.
        item: usize,
        /// Items in the pinned snapshot.
        len: usize,
    },
    /// A dataset registration or score update was rejected by the data
    /// layer (non-finite score, unknown item).
    Dataset(DataError),
}

impl ServerError {
    /// Whether retrying the same request can succeed. `true` only for
    /// [`ServerError::Overloaded`]: the request was shed before any
    /// state changed, and admission pressure is transient. Every other
    /// variant is deterministic for the same request — retrying
    /// reproduces it.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::Overloaded(_))
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTenant(t) => write!(f, "unknown tenant {}", t.0),
            Self::TenantAlreadyRegistered(t) => {
                write!(f, "tenant {} is already registered", t.0)
            }
            Self::UnknownSession(s) => {
                write!(f, "unknown session {} of tenant {}", s.nonce, s.tenant.0)
            }
            Self::SessionEvicted { session, reason } => write!(
                f,
                "session {} of tenant {} was evicted ({reason})",
                session.nonce, session.tenant.0
            ),
            Self::Overloaded(cause) => write!(f, "overloaded: {cause}; retry later"),
            Self::Ledger(e) => write!(f, "ledger: {e}"),
            Self::Svt(e) => write!(f, "session: {e}"),
            Self::Durability(e) => write!(f, "durability: {e}"),
            Self::NoDataset(t) => write!(f, "tenant {} has no registered dataset", t.0),
            Self::DatasetAlreadyRegistered(t) => {
                write!(f, "tenant {} already has a dataset", t.0)
            }
            Self::ItemOutOfRange { item, len } => {
                write!(f, "item {item} out of range for dataset of {len} items")
            }
            Self::Dataset(e) => write!(f, "dataset: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Ledger(e) => Some(e),
            Self::Svt(e) => Some(e),
            Self::Durability(e) => Some(e),
            Self::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LedgerError> for ServerError {
    fn from(e: LedgerError) -> Self {
        Self::Ledger(e)
    }
}

impl From<SvtError> for ServerError {
    fn from(e: SvtError) -> Self {
        Self::Svt(e)
    }
}

impl From<WalError> for ServerError {
    fn from(e: WalError) -> Self {
        Self::Durability(e)
    }
}

impl From<DataError> for ServerError {
    fn from(e: DataError) -> Self {
        Self::Dataset(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid() -> SessionId {
        SessionId {
            tenant: TenantId(7),
            nonce: 3,
        }
    }

    /// The full retry-classification matrix: one arm per variant, so
    /// adding a variant without classifying it fails to compile here.
    #[test]
    fn retry_classification_covers_every_variant() {
        let cases: Vec<(ServerError, bool)> = vec![
            (ServerError::UnknownTenant(TenantId(1)), false),
            (ServerError::TenantAlreadyRegistered(TenantId(1)), false),
            (ServerError::UnknownSession(sid()), false),
            (
                ServerError::SessionEvicted {
                    session: sid(),
                    reason: EvictionReason::Expired,
                },
                false,
            ),
            (
                ServerError::SessionEvicted {
                    session: sid(),
                    reason: EvictionReason::Capacity,
                },
                false,
            ),
            (
                ServerError::Overloaded(OverloadCause::TenantRateLimited(TenantId(1))),
                true,
            ),
            (
                ServerError::Overloaded(OverloadCause::ShardSaturated { shard: 4 }),
                true,
            ),
            (
                ServerError::Ledger(LedgerError::BudgetExhausted {
                    requested: 1.0,
                    remaining: 0.0,
                }),
                false,
            ),
            (ServerError::Svt(svt_core::SvtError::Halted), false),
            (ServerError::Durability(WalError::Poisoned), false),
            (ServerError::NoDataset(TenantId(1)), false),
            (ServerError::DatasetAlreadyRegistered(TenantId(1)), false),
            (ServerError::ItemOutOfRange { item: 9, len: 4 }, false),
            (
                ServerError::Dataset(DataError::NonFiniteScore {
                    index: 0,
                    value: f64::NAN,
                }),
                false,
            ),
        ];
        for (err, want) in cases {
            // Exhaustiveness guard: every variant must appear above.
            match &err {
                ServerError::UnknownTenant(_)
                | ServerError::TenantAlreadyRegistered(_)
                | ServerError::UnknownSession(_)
                | ServerError::SessionEvicted { .. }
                | ServerError::Overloaded(_)
                | ServerError::Ledger(_)
                | ServerError::Svt(_)
                | ServerError::Durability(_)
                | ServerError::NoDataset(_)
                | ServerError::DatasetAlreadyRegistered(_)
                | ServerError::ItemOutOfRange { .. }
                | ServerError::Dataset(_) => {}
            }
            assert_eq!(err.is_retryable(), want, "{err}");
        }
    }

    #[test]
    fn displays_are_informative() {
        let evicted = ServerError::SessionEvicted {
            session: sid(),
            reason: EvictionReason::Capacity,
        };
        assert!(evicted.to_string().contains("evicted"));
        assert!(evicted.to_string().contains("cap"));
        let shed = ServerError::Overloaded(OverloadCause::ShardSaturated { shard: 2 });
        assert!(shed.to_string().contains("retry"));
        let wal = ServerError::Durability(WalError::Poisoned);
        assert!(wal.to_string().contains("durability"));
    }
}
