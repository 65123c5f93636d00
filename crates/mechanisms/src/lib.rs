//! # dp-mechanisms
//!
//! Differential-privacy primitive substrate for the `sparse-vector`
//! workspace, which reproduces *Understanding the Sparse Vector Technique
//! for Differential Privacy* (Lyu, Su, Li; VLDB 2017).
//!
//! This crate provides everything the Sparse Vector Technique and the
//! Exponential Mechanism are built from:
//!
//! - [`Laplace`] — the Laplace distribution with exact sampling, density,
//!   distribution function, survival function and quantiles, plus the
//!   classic [`laplace_mechanism`] for releasing numeric query answers.
//! - [`Gumbel`] — the Gumbel distribution, used for the Gumbel-max trick
//!   that samples top-`c` Exponential Mechanism selection without
//!   peeling, and
//!   [`GumbelMax`] — lazy descending order statistics of `m` i.i.d.
//!   Gumbel keys (the max in `O(1)` via the `ln m` location shift),
//!   which makes EM selection over tied-score groups `O(#groups + c)`.
//! - [`Exponential`] — the one-sided exponential distribution on
//!   `[0, ∞)` used by the accuracy-enhanced exponential-noise SVT
//!   (arXiv:2407.20068): same batched `sample_into` contract as
//!   [`Laplace`], half the variance at equal scale.
//! - [`ExponentialMechanism`] — McSherry–Talwar selection with both the
//!   general `exp(εq/2Δ)` and the one-sided/monotonic `exp(εq/Δ)` scoring
//!   described in Section 2 of the paper.
//! - [`SvtBudget`] — the `ε₁/ε₂/ε₃` split used by the standard SVT.
//! - [`BudgetLedger`] — sequential-composition bookkeeping as an
//!   auditable, append-only chain of hash-linked [`ChargeReceipt`]s with
//!   a `verify_chain()` entry point for regulators.
//! - [`LedgerWal`] — the ledger's durability story: an append-only
//!   binary write-ahead log of receipts (fixed-width CRC'd records,
//!   pluggable fsync policy) whose [`wal::replay_records`] rebuilds and
//!   re-verifies every tenant's chain after a crash, treating a torn
//!   tail as a clean end of log and any mid-log damage as a hard,
//!   attributable error. [`fault`] provides the deterministic
//!   seed-driven crash/torn-write injection harness the recovery tests
//!   are built on.
//! - [`DpRng`] — a seedable, forkable random source so every experiment
//!   in the workspace is reproducible from a single `u64` seed, with
//!   block-wise batched fills (`fill_u64s`/`fill_uniform`/
//!   `fill_open_uniform`) that are bit-identical to the scalar draws.
//! - [`NoiseBuffer`] — reusable prefetched-noise scratch feeding the
//!   simulation engines from any [`BatchSample`] distribution
//!   ([`Laplace::sample_into`], [`Gumbel::sample_into`]).
//! - [`Binomial`] — an exact binomial sampler (inversion for small
//!   means, Hörmann's BTRS otherwise; no normal approximation), which
//!   the skip-ahead SVT-Revisited sampler draws its examined counts from.
//! - [`fastmath`] + [`NoiseKernel`] — the vectorized noise-kernel
//!   layer: a batched polynomial `ln` (relative error ≤ 1e-12,
//!   platform- and thread-count-deterministic) and the two-kernel
//!   policy (`Reference` = libm, bit-identical to scalar;
//!   `Vectorized` = fast path, same uniforms and distribution).
//! - [`TwoSidedGeometric`] — the discrete companion of the Laplace
//!   mechanism for integer counting queries (an extension beyond the
//!   paper).
//! - [`composition`] — basic and advanced (`(ε, δ)`, §3.4) composition
//!   bounds, with the inverse "per-instance budget" solver.
//!
//! All mechanisms are deterministic functions of their inputs and the
//! supplied [`DpRng`]; nothing reads ambient randomness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binomial;
pub mod budget;
pub mod composition;
pub mod error;
pub mod exp_noise;
pub mod exponential;
pub mod fastmath;
pub mod fault;
pub mod geometric;
pub mod gumbel;
pub mod laplace;
pub mod ledger;
pub mod rng;
pub mod sample;
pub mod wal;

pub use binomial::Binomial;
pub use budget::SvtBudget;
pub use composition::ApproxDp;
pub use error::MechanismError;
pub use exp_noise::Exponential;
pub use exponential::ExponentialMechanism;
pub use fault::{FaultMode, FaultPlan, FaultySink};
pub use geometric::{geometric_mechanism, TwoSidedGeometric};
pub use gumbel::{Gumbel, GumbelMax};
pub use laplace::{laplace_mechanism, Laplace, NoiseBuffer};
pub use ledger::{BudgetLedger, ChargeReceipt, LedgerError};
pub use rng::{counter_seed, DpRng};
pub use sample::{BatchSample, NoiseKernel};
pub use wal::{FsyncPolicy, LedgerWal, MemSink, WalError, WalReplay, WalSink};

/// Result alias used across the mechanism substrate.
pub type Result<T> = std::result::Result<T, MechanismError>;
