//! # svt-core
//!
//! The primary contribution of *Understanding the Sparse Vector
//! Technique for Differential Privacy* (Lyu, Su, Li; VLDB 2017),
//! implemented as a library:
//!
//! - [`alg`] — faithful, line-by-line implementations of the six SVT
//!   variants of the paper's Figure 1 (Alg. 1 is the paper's improved
//!   SVT; Alg. 2 the Dwork–Roth textbook version; Alg. 3–6 the published
//!   variants that are **not** `ε`-DP) behind one streaming
//!   [`alg::SparseVector`] trait, plus the generalized
//!   standard SVT of Algorithm 7 ([`alg::StandardSvt`]) with monotonic
//!   mode (Theorem 5) and the optional `ε₃` numeric-output phase
//!   (Theorem 4), and the post-2017 generations: [`alg::SvtRevisited`]
//!   (arXiv:2010.00917 — `ε/c` charged per ⊤ answer, ⊥s free) and
//!   [`alg::ExpNoiseSvt`] (arXiv:2407.20068 — one-sided exponential
//!   noise at the Laplace scales, half the variance).
//! - [`allocation`] — the §4.2 privacy-budget allocation optimization:
//!   `ε₁ : ε₂ = 1 : (2c)^{2/3}` in general, `1 : c^{2/3}` for monotonic
//!   queries (Eq. 12), with the comparison-variance objective it
//!   minimizes.
//! - [`noninteractive`] — top-`c` selection wrappers for the
//!   non-interactive setting (SVT-S and SVT-DPBook over a score vector).
//! - [`streaming`] — the zero-copy evaluation path: reusable
//!   [`RunScratch`] buffers, the sparse lazy Fisher–Yates traversal
//!   ([`SparseOrder`]), batched block-wise query noise, and the one
//!   pipelined item walk that SVT-S, the exponential-noise SVT,
//!   SVT-DPBook and every SVT-ReTr pass run; same output distributions,
//!   `O(examined)` per run, built for the experiment harness's hot loop.
//! - [`skip_ahead`] — SVT-Revisited over grouped score runs: the next ⊤
//!   is drawn per score group instead of per item (⊥s are free and
//!   tied members exchangeable), `O(c·G)` per run with the item-level
//!   walk's exact output distribution.
//! - [`retraversal`] — SVT-ReTr (§5): raise the threshold by multiples
//!   of the query-noise standard deviation and retraverse unselected
//!   queries until `c` are found (streamed by the same walk as SVT-S).
//! - [`em_select`] — the Exponential Mechanism alternative: `c` peeled
//!   selections with budget `ε/c` each (§5).
//! - [`session`] — the pure/impure split underneath every interactive
//!   surface: [`SessionState`], the `Send`-able Algorithm 7 state
//!   machine (no RNG, no ledger, no charge rule — SVT-Revisited keeps
//!   its ⊤-only rule itself), and [`SessionDriver`], the one
//!   interactive session: the thin I/O layer that feeds the state
//!   batched noise — what the multi-tenant `svt-server` crate parks in
//!   its sharded session store.
//! - [`interactive`] — the *corrected* answer-from-history mediator of
//!   §3.4 (`|q̃ − q(D)| + ν ≥ T + ρ`), run on a [`SessionDriver`].
//! - [`analysis`] — the §5 closed-form utility bounds `α_SVT` and
//!   `α_EM` and their comparison.
//! - [`approx`] — the §3.4 `(ε, δ)`-DP regime: `c` composed cutoff-1
//!   copies of the standard SVT, with per-copy budgets solved from the
//!   advanced composition theorem (extension beyond the paper's
//!   evaluation).
//! - [`catalog`] — the machine-readable version of Figure 2 (what
//!   differs across Alg. 1–6 and which are private).
//!
//! ## Safety disclaimer
//!
//! Algorithms 3, 4, 5 and 6 are implemented **because the paper is
//! about their flaws**. Their types are explicitly documented and
//! cataloged as non-private; do not deploy them. Use
//! [`alg::StandardSvt`] (or [`alg::Alg1`]) for real workloads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alg;
pub mod allocation;
pub mod analysis;
pub mod approx;
pub mod catalog;
pub mod em_select;
pub mod error;
#[cfg(test)]
mod gate;
pub mod interactive;
pub mod noninteractive;
pub mod response;
pub mod retraversal;
pub mod session;
pub mod skip_ahead;
pub mod streaming;
pub mod threshold;

pub use alg::{
    Alg1, Alg2, Alg3, Alg4, Alg5, Alg6, ExpNoiseSvt, SparseVector, StandardSvt, StandardSvtConfig,
    SvtRevisited,
};
pub use allocation::BudgetRatio;
pub use approx::{ApproxSvt, ApproxSvtConfig, ApproxSvtPlan};
pub use error::SvtError;
pub use response::{SvtAnswer, SvtRun};
pub use session::{SessionDriver, SessionState};
pub use streaming::{svt_select_from, RunScratch, ScoreSource, SparseOrder};
pub use threshold::Thresholds;

/// Result alias for SVT operations.
pub type Result<T> = std::result::Result<T, SvtError>;
