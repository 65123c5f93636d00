//! Auditable, hash-chained privacy-budget ledger.
//!
//! A [`BudgetLedger`] answers "does this charge fit?" (the
//! [`charge_fits`] rule) and "prove to an auditor that what was spent is
//! exactly what was recorded": every accepted charge appends a
//! [`ChargeReceipt`] carrying the tenant id, session
//! id, the `ε` charged, a monotonically increasing sequence number, and
//! a hash chained to the previous receipt. The chain starts from a
//! genesis hash bound to the tenant id and total budget, so a receipt
//! run cannot be transplanted between tenants or replayed against a
//! different total.
//!
//! [`BudgetLedger::verify_chain`] (and the free function
//! [`audit_receipts`] for externally supplied receipt runs) re-derives
//! every hash and rejects tampering with a *distinct* error per failure
//! mode — replayed receipts, out-of-order sequence numbers, edited
//! fields, and broken chain links are all distinguishable, which is what
//! lets an auditor report *what* went wrong rather than just "invalid".
//!
//! One receipt rule serves every path that accepts a receipt: appending
//! ([`BudgetLedger::apply_prepared`]), auditing ([`audit_receipts`]) and
//! write-ahead-log replay ([`replay_records`](crate::wal::replay_records),
//! which appends each logged receipt). A receipt therefore gets the same
//! verdict, and the same error, on all three.
//!
//! The hash is a 128-bit FNV-1a over a canonical field encoding. It is
//! **not cryptographic** — the workspace is dependency-free by design —
//! so the chain is tamper-*evident* against accidental corruption and
//! honest-but-buggy writers, not against an adversary who can recompute
//! hashes. Swapping in a keyed cryptographic hash only changes
//! [`chain_hash`]; the chain layout and audit logic are hash-agnostic.

use std::fmt;

use crate::budget::charge_fits;
use crate::error::MechanismError;

/// One append-only entry in a [`BudgetLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeReceipt {
    /// Tenant whose budget was charged.
    pub tenant: u64,
    /// Session (within the tenant) that triggered the charge.
    pub session: u64,
    /// Monotonic sequence number: the genesis charge is `0`, each
    /// accepted charge increments by exactly one.
    pub seq: u64,
    /// Human-readable description of what consumed the budget.
    pub label: String,
    /// The `ε` consumed.
    pub epsilon: f64,
    /// Hash of the previous receipt (the genesis hash for `seq == 0`).
    pub prev_hash: u128,
    /// Chain hash over this receipt's fields and `prev_hash`.
    pub hash: u128,
}

/// Why a ledger charge or audit was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// A charge parameter was invalid (non-positive `ε`, bad total).
    InvalidCharge(MechanismError),
    /// The charge does not fit in the tenant's remaining budget.
    BudgetExhausted {
        /// The `ε` that was requested.
        requested: f64,
        /// The `ε` still available.
        remaining: f64,
    },
    /// A receipt's sequence number was already seen — the receipt was
    /// replayed into the run.
    ReplayedReceipt {
        /// The repeated sequence number.
        seq: u64,
    },
    /// A receipt's sequence number skips ahead of the expected value —
    /// receipts were dropped or reordered.
    OutOfOrderSequence {
        /// The sequence number the chain required next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// A receipt's stored hash does not match its re-derived hash — a
    /// field (tenant, session, label, `ε`, …) was edited after the fact.
    TamperedReceipt {
        /// Sequence number of the offending receipt.
        seq: u64,
    },
    /// A receipt's `prev_hash` does not match its predecessor's hash —
    /// the chain linkage was severed (e.g. a consistently re-hashed
    /// forgery was spliced in without rewriting the rest of the run).
    BrokenChain {
        /// Sequence number of the receipt whose back-link is wrong.
        seq: u64,
    },
    /// A receipt names a tenant other than the ledger's tenant.
    WrongTenant {
        /// The tenant the ledger belongs to.
        expected: u64,
        /// The tenant named by the receipt.
        found: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidCharge(e) => write!(f, "invalid ledger charge: {e}"),
            Self::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "tenant budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            Self::ReplayedReceipt { seq } => {
                write!(f, "replayed receipt: sequence number {seq} repeated")
            }
            Self::OutOfOrderSequence { expected, found } => write!(
                f,
                "out-of-order receipt: expected sequence {expected}, found {found}"
            ),
            Self::TamperedReceipt { seq } => {
                write!(f, "tampered receipt at sequence {seq}: hash mismatch")
            }
            Self::BrokenChain { seq } => write!(
                f,
                "broken chain at sequence {seq}: prev_hash does not match predecessor"
            ),
            Self::WrongTenant { expected, found } => write!(
                f,
                "receipt names tenant {found}, ledger belongs to tenant {expected}"
            ),
        }
    }
}

impl std::error::Error for LedgerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidCharge(e) => Some(e),
            _ => None,
        }
    }
}

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a hasher over a canonical byte stream.
#[derive(Debug, Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Length-prefixed so `("ab", "c")` and `("a", "bc")` differ.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn finish(self) -> u128 {
        self.0
    }
}

/// The genesis hash a tenant's chain is anchored to.
///
/// Binding the tenant id and the total budget into the anchor means a
/// receipt run verified against one tenant/total cannot be replayed
/// against another.
#[must_use]
pub fn genesis_hash(tenant: u64, total_epsilon: f64) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("svt-ledger-genesis-v1");
    h.write_u64(tenant);
    h.write_u64(total_epsilon.to_bits());
    h.finish()
}

/// The chain hash of one receipt given its predecessor's hash.
///
/// Covers every receipt field; `ε` is hashed via its IEEE-754 bit
/// pattern so audit equality is exact, not tolerance-based.
#[must_use]
pub fn chain_hash(
    prev_hash: u128,
    tenant: u64,
    session: u64,
    seq: u64,
    label: &str,
    epsilon: f64,
) -> u128 {
    let mut h = Fnv128::new();
    h.write_str("svt-ledger-receipt-v1");
    h.write_u128(prev_hash);
    h.write_u64(tenant);
    h.write_u64(session);
    h.write_u64(seq);
    h.write_str(label);
    h.write_u64(epsilon.to_bits());
    h.finish()
}

/// Append-only, hash-chained budget ledger for one tenant: sequential
/// composition against a fixed total under the [`charge_fits`] rule,
/// with a verifiable receipt chain as its history.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    tenant: u64,
    total: f64,
    spent: f64,
    receipts: Vec<ChargeReceipt>,
}

impl BudgetLedger {
    /// Creates an empty ledger for `tenant` with the given total budget.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite totals.
    pub fn new(tenant: u64, total_epsilon: f64) -> Result<Self, LedgerError> {
        crate::error::check_epsilon(total_epsilon).map_err(LedgerError::InvalidCharge)?;
        Ok(Self {
            tenant,
            total: total_epsilon,
            spent: 0.0,
            receipts: Vec::new(),
        })
    }

    /// The tenant this ledger belongs to.
    #[inline]
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// The configured total budget.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The budget consumed so far.
    #[inline]
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// The budget still available (never negative).
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// The full receipt chain, in sequence order.
    pub fn receipts(&self) -> &[ChargeReceipt] {
        &self.receipts
    }

    /// Where the chain stands: what the next receipt must extend.
    fn head(&self) -> ChainHead {
        ChainHead {
            tenant: self.tenant,
            total: self.total,
            spent: self.spent,
            seq: self.receipts.len() as u64,
            prev_hash: self
                .receipts
                .last()
                .map_or_else(|| genesis_hash(self.tenant, self.total), |prev| prev.hash),
        }
    }

    /// Derives the receipt the next [`charge`](Self::charge) with these
    /// arguments would append, **without** appending it.
    ///
    /// This is the first half of the write-ahead protocol: a durable
    /// caller prepares the receipt, persists it (e.g. through a
    /// [`LedgerWal`](crate::wal::LedgerWal)), and only then commits it
    /// in memory via [`apply_prepared`](Self::apply_prepared) — so an
    /// I/O failure between the two leaves the in-memory ledger exactly
    /// where the durable log says it is.
    ///
    /// # Errors
    /// [`LedgerError::BudgetExhausted`] if the charge does not fit
    /// (within the [`charge_fits`] floating-point tolerance);
    /// [`LedgerError::InvalidCharge`] on a non-positive `ε`.
    pub fn prepare_charge(
        &self,
        session: u64,
        label: &str,
        epsilon: f64,
    ) -> Result<ChargeReceipt, LedgerError> {
        let head = self.head();
        head.admit(epsilon)?;
        let ChainHead { seq, prev_hash, .. } = head;
        let hash = chain_hash(prev_hash, self.tenant, session, seq, label, epsilon);
        Ok(ChargeReceipt {
            tenant: self.tenant,
            session,
            seq,
            label: label.to_owned(),
            epsilon,
            prev_hash,
            hash,
        })
    }

    /// Appends a receipt previously produced by
    /// [`prepare_charge`](Self::prepare_charge) (or replayed from a
    /// durable log), re-validating it against the current chain head
    /// under the same rule [`audit_receipts`] applies to each receipt.
    ///
    /// # Errors
    /// The first failure of [`audit_receipts`]'s taxonomy, checked in its
    /// order; a rejected receipt appends nothing.
    pub fn apply_prepared(
        &mut self,
        receipt: ChargeReceipt,
    ) -> Result<&ChargeReceipt, LedgerError> {
        self.head().check(&receipt)?;
        self.spent += receipt.epsilon;
        self.receipts.push(receipt);
        Ok(self.receipts.last().expect("receipt just pushed"))
    }

    /// Charges `epsilon` against the tenant's budget on behalf of
    /// `session`, appending a chained receipt.
    ///
    /// # Errors
    /// [`LedgerError::BudgetExhausted`] if the charge does not fit
    /// (within the [`charge_fits`] floating-point tolerance);
    /// [`LedgerError::InvalidCharge`] on a non-positive `ε`. A rejected
    /// charge appends nothing.
    pub fn charge(
        &mut self,
        session: u64,
        label: &str,
        epsilon: f64,
    ) -> Result<&ChargeReceipt, LedgerError> {
        let receipt = self.prepare_charge(session, label, epsilon)?;
        self.apply_prepared(receipt)
    }

    /// Re-derives the whole chain and checks it against the tenant id,
    /// the total budget, and the recorded spend.
    ///
    /// # Errors
    /// The first [`LedgerError`] encountered walking the chain; see
    /// [`audit_receipts`] for the failure taxonomy.
    pub fn verify_chain(&self) -> Result<(), LedgerError> {
        let audited = audit_receipts(self.tenant, self.total, &self.receipts)?;
        // The in-memory running total must agree with the chain's sum.
        if (audited - self.spent).abs() > 1e-9 {
            return Err(LedgerError::TamperedReceipt {
                seq: self.receipts.len().saturating_sub(1) as u64,
            });
        }
        Ok(())
    }
}

/// Audits an externally supplied receipt run against a tenant and total
/// budget, returning the total `ε` the chain accounts for.
///
/// This is the regulator's entry point: it takes the receipts alone (no
/// live ledger required) and re-derives every link from the genesis
/// hash, holding each receipt to the rule
/// [`BudgetLedger::apply_prepared`] holds an appended one to.
///
/// # Errors
/// The first failure, checking each receipt in this order:
/// - [`LedgerError::WrongTenant`] — a receipt names another tenant.
/// - [`LedgerError::ReplayedReceipt`] — a sequence number repeats or
///   goes backwards (a receipt was injected twice).
/// - [`LedgerError::OutOfOrderSequence`] — a sequence number skips
///   ahead (receipts dropped or reordered).
/// - [`LedgerError::BrokenChain`] — a receipt's `prev_hash` does not
///   match its predecessor's hash.
/// - [`LedgerError::TamperedReceipt`] — a receipt's stored hash does
///   not match the hash re-derived from its fields.
/// - [`LedgerError::InvalidCharge`] — a receipt charges a non-positive
///   or non-finite `ε`.
/// - [`LedgerError::BudgetExhausted`] — the chain sums past the total.
pub fn audit_receipts(
    tenant: u64,
    total_epsilon: f64,
    receipts: &[ChargeReceipt],
) -> Result<f64, LedgerError> {
    let mut head = ChainHead {
        tenant,
        total: total_epsilon,
        spent: 0.0,
        seq: 0,
        prev_hash: genesis_hash(tenant, total_epsilon),
    };
    for r in receipts {
        head.check(r)?;
        head.spent += r.epsilon;
        head.seq += 1;
        head.prev_hash = r.hash;
    }
    Ok(head.spent)
}

/// The chain state a receipt must extend: the tenant and total the
/// chain is anchored to, the spend so far, and the sequence number and
/// back-link the next receipt must carry.
struct ChainHead {
    tenant: u64,
    total: f64,
    spent: f64,
    seq: u64,
    prev_hash: u128,
}

impl ChainHead {
    /// Whether a charge of `epsilon` is a valid `ε` that fits what is
    /// left (within the [`charge_fits`] tolerance).
    fn admit(&self, epsilon: f64) -> Result<(), LedgerError> {
        crate::error::check_epsilon(epsilon).map_err(LedgerError::InvalidCharge)?;
        if !charge_fits(self.total, self.spent, epsilon) {
            return Err(LedgerError::BudgetExhausted {
                requested: epsilon,
                remaining: (self.total - self.spent).max(0.0),
            });
        }
        Ok(())
    }

    /// The receipt rule, for appending, auditing and replaying alike.
    /// Checks, in this order: tenant, sequence number, back-link, hash
    /// re-derivation, then [`admit`](Self::admit) — so a receipt both
    /// mis-linked and mis-hashed reports the broken link.
    fn check(&self, r: &ChargeReceipt) -> Result<(), LedgerError> {
        if r.tenant != self.tenant {
            return Err(LedgerError::WrongTenant {
                expected: self.tenant,
                found: r.tenant,
            });
        }
        if r.seq < self.seq {
            return Err(LedgerError::ReplayedReceipt { seq: r.seq });
        }
        if r.seq > self.seq {
            return Err(LedgerError::OutOfOrderSequence {
                expected: self.seq,
                found: r.seq,
            });
        }
        if r.prev_hash != self.prev_hash {
            return Err(LedgerError::BrokenChain { seq: r.seq });
        }
        if chain_hash(r.prev_hash, r.tenant, r.session, r.seq, &r.label, r.epsilon) != r.hash {
            return Err(LedgerError::TamperedReceipt { seq: r.seq });
        }
        self.admit(r.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_with_charges() -> BudgetLedger {
        let mut ledger = BudgetLedger::new(7, 1.0).unwrap();
        ledger.charge(100, "svt session open", 0.3).unwrap();
        ledger.charge(101, "svt session open", 0.2).unwrap();
        ledger.charge(100, "numeric refresh", 0.1).unwrap();
        ledger
    }

    #[test]
    fn honest_chain_verifies() {
        let ledger = ledger_with_charges();
        ledger.verify_chain().unwrap();
        assert_eq!(ledger.receipts().len(), 3);
        assert!((ledger.spent() - 0.6).abs() < 1e-12);
        let spent = audit_receipts(7, 1.0, ledger.receipts()).unwrap();
        assert!((spent - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_chain_verifies() {
        let ledger = BudgetLedger::new(1, 0.5).unwrap();
        ledger.verify_chain().unwrap();
        assert_eq!(audit_receipts(1, 0.5, &[]).unwrap(), 0.0);
    }

    #[test]
    fn receipts_carry_monotonic_sequence_and_chain() {
        let ledger = ledger_with_charges();
        let receipts = ledger.receipts();
        let want = ["svt session open", "svt session open", "numeric refresh"];
        let labels: Vec<&str> = receipts.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, want, "receipts keep their labels in charge order");
        assert_eq!(receipts[0].prev_hash, genesis_hash(7, 1.0));
        for (i, r) in receipts.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            if i > 0 {
                assert_eq!(r.prev_hash, receipts[i - 1].hash);
            }
        }
    }

    // --- Adversarial matrix (SNIPPETS.md snippet 2 style): each attack
    // is rejected with its own distinct error. ---

    #[test]
    fn replayed_receipt_rejected() {
        let ledger = ledger_with_charges();
        let mut run = ledger.receipts().to_vec();
        // Inject a copy of receipt 1 after itself: a replay attack to
        // double-collect an already-spent charge.
        let replay = run[1].clone();
        run.insert(2, replay);
        let err = audit_receipts(7, 1.0, &run).unwrap_err();
        assert_eq!(err, LedgerError::ReplayedReceipt { seq: 1 });
    }

    #[test]
    fn tampered_epsilon_mid_chain_rejected() {
        let ledger = ledger_with_charges();
        let mut run = ledger.receipts().to_vec();
        // Understate the spend of the middle receipt without re-hashing.
        run[1].epsilon = 0.01;
        let err = audit_receipts(7, 1.0, &run).unwrap_err();
        assert_eq!(err, LedgerError::TamperedReceipt { seq: 1 });
    }

    #[test]
    fn rehash_after_tamper_breaks_the_chain_instead() {
        let ledger = ledger_with_charges();
        let mut run = ledger.receipts().to_vec();
        // A smarter forger re-derives the tampered receipt's hash too —
        // then the *next* receipt's back-link exposes the splice.
        run[1].epsilon = 0.01;
        run[1].hash = chain_hash(run[1].prev_hash, 7, run[1].session, 1, &run[1].label, 0.01);
        let err = audit_receipts(7, 1.0, &run).unwrap_err();
        assert_eq!(err, LedgerError::BrokenChain { seq: 2 });
    }

    #[test]
    fn out_of_order_sequence_rejected() {
        let ledger = ledger_with_charges();
        let mut run = ledger.receipts().to_vec();
        // Drop receipt 1: the run jumps 0 → 2.
        run.remove(1);
        let err = audit_receipts(7, 1.0, &run).unwrap_err();
        assert_eq!(
            err,
            LedgerError::OutOfOrderSequence {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn charging_an_exhausted_ledger_rejected() {
        let mut ledger = BudgetLedger::new(3, 0.5).unwrap();
        ledger.charge(1, "svt session open", 0.5).unwrap();
        let err = ledger.charge(2, "svt session open", 0.25).unwrap_err();
        assert!(matches!(err, LedgerError::BudgetExhausted { .. }));
        // The rejected charge must leave no receipt behind.
        assert_eq!(ledger.receipts().len(), 1);
        ledger.verify_chain().unwrap();
    }

    #[test]
    fn wrong_tenant_rejected() {
        let ledger = ledger_with_charges();
        let err = audit_receipts(8, 1.0, ledger.receipts()).unwrap_err();
        // Receipt 0 names tenant 7, the auditor expected tenant 8.
        assert_eq!(
            err,
            LedgerError::WrongTenant {
                expected: 8,
                found: 7
            }
        );
    }

    #[test]
    fn chain_is_anchored_to_total_budget() {
        // Same tenant, same charges, different total: the genesis anchor
        // differs, so the run cannot be replayed against another total.
        let ledger = ledger_with_charges();
        let err = audit_receipts(7, 2.0, ledger.receipts()).unwrap_err();
        assert_eq!(err, LedgerError::BrokenChain { seq: 0 });
    }

    #[test]
    fn invalid_charges_rejected() {
        let mut ledger = BudgetLedger::new(0, 1.0).unwrap();
        assert!(matches!(
            ledger.charge(0, "zero", 0.0),
            Err(LedgerError::InvalidCharge(_))
        ));
        assert!(matches!(
            ledger.charge(0, "nan", f64::NAN),
            Err(LedgerError::InvalidCharge(_))
        ));
        assert!(BudgetLedger::new(0, -1.0).is_err());
    }

    #[test]
    fn ledger_tolerates_floating_point_exact_fill() {
        // The tolerance of `charge_fits`: 0.1 × 3 ≠ 0.3 in binary.
        let mut ledger = BudgetLedger::new(0, 0.3).unwrap();
        for s in 0..3 {
            ledger.charge(s, "third", 0.1).unwrap();
        }
        ledger.verify_chain().unwrap();
    }

    #[test]
    fn prepare_without_apply_changes_nothing() {
        let mut ledger = BudgetLedger::new(5, 1.0).unwrap();
        let prepared = ledger.prepare_charge(9, "svt session open", 0.4).unwrap();
        assert_eq!(ledger.receipts().len(), 0);
        assert_eq!(ledger.spent(), 0.0);
        // Committing the prepared receipt is exactly `charge`.
        ledger.apply_prepared(prepared.clone()).unwrap();
        let mut reference = BudgetLedger::new(5, 1.0).unwrap();
        let charged = reference.charge(9, "svt session open", 0.4).unwrap();
        assert_eq!(&prepared, charged);
        ledger.verify_chain().unwrap();
    }

    #[test]
    fn stale_prepared_receipt_is_rejected() {
        let mut ledger = BudgetLedger::new(5, 1.0).unwrap();
        let stale = ledger.prepare_charge(1, "svt session open", 0.1).unwrap();
        ledger.charge(2, "svt session open", 0.2).unwrap();
        // The chain head moved: the stale receipt's seq now replays.
        assert_eq!(
            ledger.apply_prepared(stale).unwrap_err(),
            LedgerError::ReplayedReceipt { seq: 0 }
        );
        // A receipt with the right seq but a stale back-link breaks the
        // chain instead of silently forking it.
        let fork = BudgetLedger::new(5, 1.0).unwrap();
        let wrong_prev = fork.prepare_charge(1, "svt session open", 0.1).unwrap();
        let mut forged = wrong_prev;
        forged.seq = 1;
        assert_eq!(
            ledger.apply_prepared(forged).unwrap_err(),
            LedgerError::BrokenChain { seq: 1 }
        );
        ledger.verify_chain().unwrap();
    }

    /// A ledger holding one 0.5 charge, and a receipt that links and
    /// hashes consistently onto it but charges `epsilon`.
    fn ledger_and_next_receipt(epsilon: f64) -> (BudgetLedger, ChargeReceipt) {
        let mut ledger = BudgetLedger::new(7, 1.0).unwrap();
        let prev_hash = ledger.charge(100, "svt session open", 0.5).unwrap().hash;
        let next = ChargeReceipt {
            tenant: 7,
            session: 101,
            seq: 1,
            label: "svt session open".to_owned(),
            epsilon,
            prev_hash,
            hash: chain_hash(prev_hash, 7, 101, 1, "svt session open", epsilon),
        };
        (ledger, next)
    }

    #[test]
    fn audit_rejects_an_invalid_epsilon_like_append() {
        for eps in [-0.5, 0.0, f64::NEG_INFINITY, f64::NAN, f64::INFINITY] {
            let (mut ledger, next) = ledger_and_next_receipt(eps);
            let mut run = ledger.receipts().to_vec();
            run.push(next.clone());
            assert!(
                matches!(
                    audit_receipts(7, 1.0, &run),
                    Err(LedgerError::InvalidCharge(_))
                ),
                "audit of ε = {eps}"
            );
            assert!(
                matches!(
                    ledger.apply_prepared(next),
                    Err(LedgerError::InvalidCharge(_))
                ),
                "append of ε = {eps}"
            );
        }
    }

    #[test]
    fn append_and_audit_agree_on_a_mislinked_and_mishashed_receipt() {
        let (mut ledger, mut next) = ledger_and_next_receipt(0.25);
        next.prev_hash ^= 1;
        let rehash = chain_hash(next.prev_hash, 7, 101, 1, &next.label, 0.25);
        assert_ne!(rehash, next.hash, "the stored hash no longer re-derives");
        let mut run = ledger.receipts().to_vec();
        run.push(next.clone());
        let audited = audit_receipts(7, 1.0, &run).unwrap_err();
        assert_eq!(audited, LedgerError::BrokenChain { seq: 1 });
        assert_eq!(ledger.apply_prepared(next).unwrap_err(), audited);
    }

    #[test]
    fn labels_are_length_prefixed_in_the_hash() {
        // ("ab" then "c") vs ("a" then "bc") must not collide.
        let h1 = chain_hash(0, 0, 0, 0, "ab", 0.1);
        let h2 = chain_hash(0, 0, 0, 0, "a", 0.1);
        assert_ne!(h1, h2);
    }
}
