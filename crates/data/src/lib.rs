//! # dp-data
//!
//! Workload substrate for the `sparse-vector` workspace: the datasets,
//! queries, and score vectors on which the paper's evaluation (Section 6)
//! runs.
//!
//! The paper evaluates on item frequencies from three real transaction
//! datasets (BMS-POS, Kosarak, AOL) plus a synthetic Zipf distribution
//! (Table 1). The real datasets are not redistributable in this offline
//! environment, so [`generators`] provides Zipf–Mandelbrot stand-ins
//! calibrated to Table 1's record/item counts and Figure 3's head
//! supports — see the README's *Regenerating the paper's tables and
//! figures* section for why this preserves the behaviour that drives
//! the experiments (head separability and tail mass).
//!
//! Contents:
//!
//! - [`ScoreVector`] — a vector of query scores with the paper's
//!   threshold convention (average of the `c`-th and `(c+1)`-th highest
//!   scores) and deterministic top-`c`.
//! - [`GroupedSnapshot`] — the engines' immutable index-preserving
//!   grouped form (runs of tied scores in decreasing order plus the
//!   inverse item → rank table), which grouped selection samplers
//!   consume to stay `O(#groups)` instead of `O(#items)`, and whose
//!   [`rank_cut`](GroupedSnapshot::rank_cut) query resolves any cutoff
//!   `c` to its threshold / top-sum in `O(1)` ([`RankCut`]). [`persist`]
//!   gives it a fixed-width on-disk form with a CRC-guarded header for
//!   warm-start context caches.
//! - [`LiveScores`] — the mutable owner of a served score vector: raw
//!   scores behind a copy-on-write overlay, with no sort anywhere.
//!   `set_score` / `increment` write the overlay and `snapshot()`
//!   publishes a cheap `Arc`-shared [`ScoreSnapshot`] (epoch, length,
//!   per-item score) with a monotonically increasing epoch, so serving
//!   layers can evolve a dataset under traffic while open sessions keep
//!   a pinned, consistent view.
//! - [`TransactionDataset`] — a concrete market-basket dataset with
//!   support counting and neighbor construction (add/remove one record),
//!   used by the examples and the privacy auditor.
//! - [`queries`] — the counting-query abstraction (`Δ = 1`, monotonic)
//!   that SVT consumes.
//! - [`generators`] — the four evaluation workloads plus the reusable
//!   Zipf and Zipf–Mandelbrot machinery behind them.
//! - [`io`] — FIMI-format transaction file reading/writing, so users
//!   with the original datasets can run the harness on the real data.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod error;
pub mod generators;
pub mod groups;
pub mod io;
pub mod live;
pub mod persist;
pub mod queries;
pub mod scores;

pub use dataset::{ItemId, TransactionDataset};
pub use error::DataError;
pub use generators::catalog::DatasetSpec;
pub use groups::{GroupedSnapshot, RankCut};
pub use live::{LiveScores, ScoreSnapshot};
pub use persist::{scores_digest, SnapshotCodecError};
pub use scores::ScoreVector;

/// Result alias for the data substrate.
pub type Result<T> = std::result::Result<T, DataError>;
