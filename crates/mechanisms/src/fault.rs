//! Deterministic fault injection for the ledger WAL.
//!
//! The durability claims in [`crate::wal`] are only worth what the
//! kill-and-recover tests behind them can show, and those tests need
//! crashes that are *reproducible*: the same seed must tear the same
//! write at the same byte on every run. [`FaultySink`] wraps any
//! [`WalSink`] and executes a [`FaultPlan`] — a single injected fault
//! at a chosen append, in one of four modes spanning the interesting
//! crash points of the append-then-acknowledge protocol:
//!
//! - [`FaultMode::WriteError`] — the append fails with nothing
//!   persisted (a full write rejection);
//! - [`FaultMode::TornWrite`] — a strict prefix of the record reaches
//!   the log before the failure (the classic torn write; recovery must
//!   drop exactly this tail);
//! - [`FaultMode::CrashAfterWrite`] — the record is fully persisted
//!   but the writer dies before it can report success (so the caller
//!   never acknowledges a charge that *is* on disk);
//! - [`FaultMode::CrashAfterSync`] — the record is persisted *and*
//!   synced, and the crash lands between the sync and the
//!   acknowledgement — the tightest window of "acknowledged ⇒
//!   persisted".
//!
//! All four modes leave the durable state carrying **at least** every
//! acknowledged charge and **at most** one unacknowledged one — the
//! privacy-safe direction (recovered spent `ε` can exceed, never
//! undercut, what clients were told). After the fault fires the sink
//! stays dead: every later operation fails, exactly like a crashed
//! process that stops accepting work.
//!
//! Plans are derived from a seed via SplitMix64, so a test matrix is
//! just a seed range — and distinct seeds land on distinct
//! `(append index, mode, torn byte)` injection points.

use std::fmt;

use crate::rng::counter_seed;
use crate::wal::{WalError, WalSink, RECORD_SIZE};

/// What the injected fault does at the chosen append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail the append outright; no bytes reach the log.
    WriteError,
    /// Persist exactly `keep` bytes of the record, then fail.
    TornWrite {
        /// Bytes of the record that survive (`< RECORD_SIZE`).
        keep: usize,
    },
    /// Persist the whole record, then fail the append call.
    CrashAfterWrite,
    /// Persist and sync the whole record, then fail the sync call —
    /// the crash sits between durability and acknowledgement.
    CrashAfterSync,
}

/// One deterministic fault: `mode` fires on append number `fail_op`
/// (zero-based), after which the sink is dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Zero-based index of the append the fault hits.
    pub fail_op: u64,
    /// What happens at that append.
    pub mode: FaultMode,
}

impl FaultPlan {
    /// Derives a plan from `seed`: the fault hits one of the first
    /// `max_op` appends, in a mode (and torn byte) chosen by the seed's
    /// first three [`counter_seed`] draws.
    #[must_use]
    pub fn from_seed(seed: u64, max_op: u64) -> Self {
        let fail_op = counter_seed(seed, 0) % max_op.max(1);
        let mode = match counter_seed(seed, 1) % 4 {
            0 => FaultMode::WriteError,
            1 => FaultMode::TornWrite {
                // A strict, nonempty prefix: 1..RECORD_SIZE.
                keep: 1 + (counter_seed(seed, 2) as usize % (RECORD_SIZE - 1)),
            },
            2 => FaultMode::CrashAfterWrite,
            _ => FaultMode::CrashAfterSync,
        };
        Self { fail_op, mode }
    }
}

/// The error every faulted operation reports. A distinct message keeps
/// injected failures distinguishable from real I/O errors in test
/// output.
fn crash_error() -> WalError {
    WalError::Io {
        op: "append",
        message: "injected fault: writer crashed".to_owned(),
    }
}

/// A [`WalSink`] that executes a [`FaultPlan`] over an inner sink.
#[derive(Debug)]
pub struct FaultySink<S> {
    inner: S,
    plan: FaultPlan,
    appends: u64,
    /// Once the fault has fired, everything fails.
    dead: bool,
    /// Set when the plan is `CrashAfterSync` and the fatal sync is next.
    sync_bomb: bool,
}

impl<S: WalSink> FaultySink<S> {
    /// Arms `plan` over `inner`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            appends: 0,
            dead: false,
            sync_bomb: false,
        }
    }

    /// Whether the fault has fired yet.
    pub fn crashed(&self) -> bool {
        self.dead
    }
}

impl<S: WalSink> fmt::Display for FaultySink<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "faulty sink (plan {:?})", self.plan)
    }
}

impl<S: WalSink> WalSink for FaultySink<S> {
    fn append(&mut self, record: &[u8]) -> Result<(), WalError> {
        if self.dead {
            return Err(crash_error());
        }
        let op = self.appends;
        self.appends += 1;
        if op != self.plan.fail_op {
            return self.inner.append(record);
        }
        match self.plan.mode {
            FaultMode::WriteError => {
                self.dead = true;
                Err(crash_error())
            }
            FaultMode::TornWrite { keep } => {
                let keep = keep.min(record.len().saturating_sub(1));
                self.inner.append(&record[..keep])?;
                self.dead = true;
                Err(crash_error())
            }
            FaultMode::CrashAfterWrite => {
                self.inner.append(record)?;
                self.dead = true;
                Err(crash_error())
            }
            FaultMode::CrashAfterSync => {
                self.inner.append(record)?;
                self.sync_bomb = true;
                Ok(())
            }
        }
    }

    fn sync(&mut self) -> Result<(), WalError> {
        if self.dead {
            return Err(crash_error());
        }
        if self.sync_bomb {
            // The data *is* durable — sync through, then die before
            // success can be reported.
            self.inner.sync()?;
            self.dead = true;
            return Err(crash_error());
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::BudgetLedger;
    use crate::wal::{replay_records, FsyncPolicy, LedgerWal, MemSink};

    /// Drives a WAL through `FaultySink` until the crash, tracking what
    /// was acknowledged; returns (bytes on disk, acked ε).
    fn run_until_crash(plan: FaultPlan) -> (Vec<u8>, f64) {
        let mem = MemSink::new();
        let sink = FaultySink::new(mem.clone(), plan);
        let mut wal = LedgerWal::with_sink(Box::new(sink), FsyncPolicy::Always);
        let mut ledger = BudgetLedger::new(1, 100.0).unwrap();
        let mut acked = 0.0;
        if wal.append_tenant(1, 100.0).is_err() {
            return (mem.bytes(), acked);
        }
        for s in 0..12u64 {
            let prepared = ledger.prepare_charge(s, "svt session open", 0.5).unwrap();
            if wal.append_charge(&prepared).is_err() {
                break; // not acknowledged
            }
            ledger.apply_prepared(prepared).unwrap();
            acked += 0.5;
        }
        (mem.bytes(), acked)
    }

    #[test]
    fn every_mode_preserves_acknowledged_implies_persisted() {
        for seed in 0..64u64 {
            let plan = FaultPlan::from_seed(seed, 10);
            let (bytes, acked) = run_until_crash(plan);
            let replay = replay_records(&bytes)
                .unwrap_or_else(|e| panic!("seed {seed} plan {plan:?}: replay failed: {e}"));
            let recovered = replay.ledgers.get(&1).map_or(0.0, BudgetLedger::spent);
            assert!(
                recovered >= acked - 1e-12,
                "seed {seed} plan {plan:?}: recovered {recovered} < acked {acked}"
            );
            // And the overshoot is at most the single in-flight charge.
            assert!(
                recovered <= acked + 0.5 + 1e-12,
                "seed {seed} plan {plan:?}: recovered {recovered} overshoots acked {acked}"
            );
        }
    }

    #[test]
    fn plans_cover_distinct_injection_points() {
        let mut points = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let plan = FaultPlan::from_seed(seed, 10);
            let (tag, keep) = match plan.mode {
                FaultMode::WriteError => (0, 0),
                FaultMode::TornWrite { keep } => (1, keep),
                FaultMode::CrashAfterWrite => (2, 0),
                FaultMode::CrashAfterSync => (3, 0),
            };
            points.insert((plan.fail_op, tag, keep));
        }
        assert!(points.len() >= 25, "only {} distinct plans", points.len());
    }

    #[test]
    fn plans_match_the_splitmix64_draws_they_were_defined_by() {
        // The seeded matrices (here and in the server's recovery tests)
        // must keep injecting the same faults: pin `from_seed` against
        // the SplitMix64 stream it was first written as.
        fn old_plan(seed: u64, max_op: u64) -> FaultPlan {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let fail_op = next() % max_op.max(1);
            let mode = match next() % 4 {
                0 => FaultMode::WriteError,
                1 => FaultMode::TornWrite {
                    keep: 1 + (next() as usize % (RECORD_SIZE - 1)),
                },
                2 => FaultMode::CrashAfterWrite,
                _ => FaultMode::CrashAfterSync,
            };
            FaultPlan { fail_op, mode }
        }
        for seed in (0..300).chain([u64::MAX - 1, u64::MAX]) {
            for max_op in [0, 1, 10, 97] {
                assert_eq!(FaultPlan::from_seed(seed, max_op), old_plan(seed, max_op));
            }
        }
    }

    #[test]
    fn sink_stays_dead_after_the_fault() {
        let plan = FaultPlan {
            fail_op: 0,
            mode: FaultMode::WriteError,
        };
        let mem = MemSink::new();
        let mut sink = FaultySink::new(mem.clone(), plan);
        assert!(sink.append(&[0u8; RECORD_SIZE]).is_err());
        assert!(sink.crashed());
        assert!(sink.append(&[0u8; RECORD_SIZE]).is_err());
        assert!(sink.sync().is_err());
        assert!(mem.bytes().is_empty());
    }
}
