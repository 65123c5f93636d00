//! # svt-experiments
//!
//! The evaluation harness that regenerates every table and figure of
//! *Understanding the Sparse Vector Technique for Differential Privacy*
//! (Section 6 plus the appendix experiments):
//!
//! - [`metrics`] — False Negative Rate and Score Error Rate (§6,
//!   "Utility Measures") and streaming mean/std accumulation;
//! - [`spec`] — algorithm and experiment configuration (the paper's
//!   grid: ε = 0.1, c ∈ {25, …, 300}, 100 runs, random item order);
//! - [`simulate`] — the per-dataset [`simulate::SweepContext`] (one
//!   shared score sort + rank table) and the faithful per-query
//!   [`simulate::exact`] engine on top of it, which reads scores from
//!   the raw slice or, as a bit-identical cross-check, through the
//!   grouped runs;
//! - [`runner`] — a deterministic multi-threaded sweep driver;
//! - [`serving`] — the `serve_smoke` multi-tenant workload over
//!   `svt-server` (N tenants × M worker threads, qps and batch-latency
//!   percentiles, ledger audit);
//! - [`figures`] — builders for Table 1/2, Figure 2/3/4/5, the §5 α
//!   analysis, and the non-privacy audits;
//! - [`report`] — plain-text table rendering and CSV export.
//!
//! Binaries (`cargo run -p svt-experiments --bin <name> --release`):
//! `table1`, `table2`, `figure2`, `figure3`, `figure4`, `figure5`,
//! `alpha`, `nonprivacy`, the extension sweeps `ablation` and
//! `epsilon_sweep`, and `all`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod serving;
pub mod simulate;
pub mod spec;

pub use metrics::{false_negative_rate, score_error_rate, MetricSummary};
pub use report::Table;
pub use spec::{AlgorithmSpec, ExperimentConfig};
