//! # sparse-vector
//!
//! A production-quality Rust reproduction of **“Understanding the
//! Sparse Vector Technique for Differential Privacy”** (Min Lyu,
//! Dong Su, Ninghui Li; VLDB 2017, arXiv:1603.01699).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`mechanisms`] — DP primitives: Laplace/Gumbel distributions,
//!   the Exponential Mechanism, the budget ledger, and the seedable
//!   [`DpRng`](mechanisms::DpRng).
//! * [`data`] — workloads: score vectors, transaction datasets,
//!   counting queries, and the four Table-1 dataset generators.
//! * [`svt`] — the paper's contribution: Algorithms 1–7, budget
//!   allocation optimization, SVT-ReTr, EM top-`c` selection, the
//!   interactive session/mediator, and the Figure-2 catalog.
//! * [`server`] — multi-tenant serving: the sharded session store,
//!   batched query submission, and the auditable budget ledger views.
//! * [`auditor`] — empirical privacy auditing and the paper's
//!   non-privacy counterexamples.
//! * [`experiments`] — the harness that regenerates every table and
//!   figure.
//!
//! ## Quickstart
//!
//! ```
//! use sparse_vector::prelude::*;
//!
//! // Private top-20 selection from item supports under ε = 0.1.
//! let scores = DatasetSpec::zipf().scores();
//! let mut rng = DpRng::seed_from_u64(7);
//!
//! // The paper's recommendation for the non-interactive setting: EM.
//! let em = EmTopC::new(0.1, 20, 1.0, true).unwrap();
//! let selected = em.select(scores.as_slice(), &mut rng).unwrap();
//! assert_eq!(selected.len(), 20);
//!
//! // The paper's recommendation for the interactive setting: SVT-S
//! // with the optimized 1:c^(2/3) budget split.
//! let cfg = SvtSelectConfig::counting(0.1, 20, BudgetRatio::OneToCTwoThirds);
//! let threshold = scores.paper_threshold(20);
//! let svt_selected = svt_select(scores.as_slice(), threshold, &cfg, &mut rng).unwrap();
//! assert!(svt_selected.len() <= 20);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dp_auditor as auditor;
pub use dp_data as data;
pub use dp_mechanisms as mechanisms;
pub use svt_core as svt;
pub use svt_experiments as experiments;
pub use svt_server as server;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use dp_auditor::{audit_event, audit_output_grid, GridAudit, RatioAudit};
    pub use dp_data::{
        DatasetSpec, GroupedSnapshot, LiveScores, ScoreSnapshot, ScoreVector, TransactionDataset,
    };
    pub use dp_mechanisms::{
        geometric_mechanism, ApproxDp, BudgetLedger, DpRng, ExponentialMechanism, Laplace,
        SvtBudget, TwoSidedGeometric,
    };
    pub use svt_core::alg::{run_svt, SparseVector, StandardSvt, StandardSvtConfig};
    pub use svt_core::allocation::BudgetRatio;
    pub use svt_core::approx::{ApproxSvt, ApproxSvtConfig, ApproxSvtPlan};
    pub use svt_core::em_select::EmTopC;
    pub use svt_core::interactive::HistoryMediator;
    pub use svt_core::noninteractive::{dpbook_select, svt_select, SvtSelectConfig};
    pub use svt_core::retraversal::{svt_retraversal, RetraversalConfig};
    pub use svt_core::session::SessionDriver;
    pub use svt_core::{Alg1, Alg2, Alg3, Alg4, Alg5, Alg6, SvtAnswer, Thresholds};
}
