//! The run engine: the exact per-query traversal over one of two score
//! sources.
//!
//! [`exact::ExactContext`] executes one draw protocol over the
//! per-dataset [`SweepContext`], reading scores either from the raw
//! slice or through the shared
//! [`GroupedSnapshot`](dp_data::GroupedSnapshot) runs; for every
//! algorithm the two sources emit *bit-identical* index streams from
//! the same generator state. The equivalence argument lives in
//! [`exact`]; the runner's sweep-level tests pin it selection by
//! selection.

pub mod context;
pub mod exact;

pub use context::SweepContext;

use svt_core::noninteractive::SvtSelectConfig;
use svt_core::retraversal::RetraversalConfig;

/// The two §6 utility metrics for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// False Negative Rate of this run's selection.
    pub fnr: f64,
    /// Score Error Rate of this run's selection.
    pub ser: f64,
}

/// The SVT-ReTr configuration the harness runs for a `(ε, c, ratio,
/// increment)` cell — one definition shared by the scalar and streaming
/// paths, so their retraversal runs are parameterized identically by
/// construction.
pub(crate) fn retraversal_config(
    epsilon: f64,
    c: usize,
    ratio: svt_core::allocation::BudgetRatio,
    increment_d: f64,
) -> RetraversalConfig {
    RetraversalConfig {
        select: SvtSelectConfig::counting(epsilon, c, ratio),
        increment: increment_d,
        max_passes: 64,
    }
}
