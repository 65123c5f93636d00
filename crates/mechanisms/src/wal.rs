//! Write-ahead log for [`BudgetLedger`] receipt chains.
//!
//! The privacy guarantee of every mechanism in this workspace reduces
//! to one bookkeeping invariant: the cumulative `ε` a tenant has been
//! charged is never forgotten. An in-memory ledger loses that history
//! the moment the process dies, and a server that recovers with a
//! smaller `spent` than it acknowledged silently over-spends the budget
//! — the classic way "SVT variants" degrade into non-private
//! algorithms. [`LedgerWal`] closes that hole: every tenant
//! registration and every accepted charge is appended to an append-only
//! binary log **before** the caller acknowledges it, and
//! [`replay`](replay_records) reconstructs the per-tenant
//! [`BudgetLedger`]s from the log alone, appending each logged receipt
//! under the same rule that accepted it the first time.
//!
//! ## Record format
//!
//! Fixed-width little-endian records of [`RECORD_SIZE`] bytes:
//!
//! ```text
//! offset  size  field
//!      0     1  record tag (1 = tenant registration, 2 = charge)
//!      1     1  label length (0 for tenant records)
//!      2     6  reserved, must be zero
//!      8     8  tenant id                (u64 LE)
//!     16     8  session id               (u64 LE, 0 for tenant records)
//!     24     8  sequence number          (u64 LE, 0 for tenant records)
//!     32     8  ε charged / total budget (f64 bits LE)
//!     40    16  prev_hash                (u128 LE)
//!     56    16  chain hash               (u128 LE)
//!     72    40  label bytes, zero padded
//!    112     4  CRC-32 (IEEE) over bytes [0, 112)
//! ```
//!
//! Fixed width makes the torn-write story trivial: a record boundary is
//! `offset % RECORD_SIZE == 0`, so after a crash the log is a run of
//! whole records followed by at most one partial (or CRC-failing) tail
//! record. Replay treats exactly that tail as a clean end of log — a
//! torn write is what an interrupted append *looks like* — while any
//! corruption **before** the tail (a CRC-failing record with complete
//! records after it, an un-decodable field, a chain that does not
//! re-derive) is a hard, attributable [`WalError`]: it cannot be
//! produced by a crash, only by bit rot or tampering, and silently
//! skipping it would under-count spent `ε`.
//!
//! ## Fsync policy and the acknowledgement invariant
//!
//! [`FsyncPolicy`] decides when an append reaches stable storage:
//! [`FsyncPolicy::Always`] syncs inside every append (the durable
//! server's choice — an `Ok` append *is* the persistence guarantee, so
//! "acknowledged ⇒ persisted" holds by construction), and [`Manual`]
//! leaves syncing entirely to the caller, who must defer
//! acknowledgement to the next [`LedgerWal::sync`].
//!
//! [`Manual`]: FsyncPolicy::Manual

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use crate::ledger::{BudgetLedger, ChargeReceipt, LedgerError};

/// Width of every WAL record, in bytes.
pub const RECORD_SIZE: usize = 116;
/// Longest label a charge record can carry.
pub const MAX_LABEL: usize = 40;

const TAG_TENANT: u8 = 1;
const TAG_CHARGE: u8 = 2;
const CRC_OFFSET: usize = RECORD_SIZE - 4;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected). Table-free bitwise form: the log is
// written once per charge, not per query, so simplicity wins over a
// lookup table.
// ---------------------------------------------------------------------

/// CRC-32 (IEEE) of `bytes`, as stored in each record's trailer.
#[must_use]
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a WAL record mid-log could not be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The stored CRC does not match the record bytes.
    BadCrc,
    /// The record tag names no known record type.
    UnknownTag(u8),
    /// The label length exceeds [`MAX_LABEL`] or the label bytes are
    /// not valid UTF-8 / not zero padded.
    BadLabel,
    /// A reserved field holds a nonzero value.
    NonCanonical,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadCrc => write!(f, "CRC mismatch"),
            Self::UnknownTag(t) => write!(f, "unknown record tag {t}"),
            Self::BadLabel => write!(f, "invalid label encoding"),
            Self::NonCanonical => write!(f, "nonzero reserved bytes"),
        }
    }
}

/// Why a WAL operation failed. Every variant is attributable: it names
/// the record index (and tenant where known), so an operator can say
/// *which* entry of *whose* chain is bad, not just "log corrupt".
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// An I/O operation failed. The message carries the OS error; the
    /// `op` names which WAL step was executing.
    Io {
        /// The WAL step that failed (`"append"`, `"sync"`, …).
        op: &'static str,
        /// Stringified OS error.
        message: String,
    },
    /// A record **before** the log tail failed validation — bit rot or
    /// tampering, never a torn write (those only reach the tail).
    CorruptRecord {
        /// Zero-based record index.
        index: usize,
        /// Byte offset of the record.
        offset: u64,
        /// What failed.
        kind: CorruptKind,
    },
    /// A charge label exceeds [`MAX_LABEL`] bytes and cannot be encoded.
    LabelTooLong {
        /// The label's length in bytes.
        len: usize,
    },
    /// A tenant-registration record repeats a tenant already registered
    /// earlier in the log.
    DuplicateTenant {
        /// The repeated tenant.
        tenant: u64,
        /// Record index of the duplicate.
        index: usize,
    },
    /// A charge record names a tenant with no prior registration record.
    UnknownTenant {
        /// The unregistered tenant.
        tenant: u64,
        /// Record index of the orphan charge.
        index: usize,
    },
    /// A CRC-valid charge record disagrees with the chain re-derived
    /// from the records before it (wrong seq, prev_hash, or hash).
    ChainMismatch {
        /// The tenant whose chain broke.
        tenant: u64,
        /// The sequence number the record claims.
        seq: u64,
        /// Record index of the mismatch.
        index: usize,
    },
    /// Replaying a record was rejected by the ledger itself: an invalid
    /// total or `ε`, or charges that overflow the registered total budget.
    Ledger {
        /// The tenant whose ledger rejected the record.
        tenant: u64,
        /// Record index of the rejected charge.
        index: usize,
        /// The ledger's verdict.
        error: LedgerError,
    },
    /// The WAL saw an earlier append/sync failure; to preserve
    /// "acknowledged ⇒ persisted" it refuses all further writes until
    /// the log is recovered.
    Poisoned,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { op, message } => write!(f, "wal {op} failed: {message}"),
            Self::CorruptRecord {
                index,
                offset,
                kind,
            } => write!(
                f,
                "corrupt wal record {index} at byte {offset}: {kind} (mid-log, not a torn tail)"
            ),
            Self::LabelTooLong { len } => {
                write!(f, "charge label of {len} bytes exceeds the {MAX_LABEL}-byte record field")
            }
            Self::DuplicateTenant { tenant, index } => {
                write!(f, "wal record {index} re-registers tenant {tenant}")
            }
            Self::UnknownTenant { tenant, index } => write!(
                f,
                "wal record {index} charges tenant {tenant} with no registration record"
            ),
            Self::ChainMismatch { tenant, seq, index } => write!(
                f,
                "wal record {index} (tenant {tenant}, seq {seq}) disagrees with the re-derived receipt chain"
            ),
            Self::Ledger {
                tenant,
                index,
                error,
            } => write!(f, "wal record {index} rejected by tenant {tenant}'s ledger: {error}"),
            Self::Poisoned => write!(
                f,
                "wal is poisoned by an earlier write failure; recover from the log before writing"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Ledger { error, .. } => Some(error),
            _ => None,
        }
    }
}

fn io_err(op: &'static str, e: &std::io::Error) -> WalError {
    WalError::Io {
        op,
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A tenant registration: opens an empty ledger with this total.
    RegisterTenant {
        /// The tenant registered.
        tenant: u64,
        /// The tenant's total `ε` budget.
        total_epsilon: f64,
    },
    /// One accepted charge, exactly as receipted.
    Charge(ChargeReceipt),
}

/// Encodes a tenant-registration record.
#[must_use]
pub fn encode_tenant(tenant: u64, total_epsilon: f64) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    rec[0] = TAG_TENANT;
    rec[8..16].copy_from_slice(&tenant.to_le_bytes());
    rec[32..40].copy_from_slice(&total_epsilon.to_bits().to_le_bytes());
    seal(&mut rec);
    rec
}

/// Encodes a charge receipt.
///
/// # Errors
/// [`WalError::LabelTooLong`] when the label exceeds [`MAX_LABEL`]
/// bytes (receipts are produced by this workspace with short static
/// labels; a long label is a caller bug, not a runtime condition).
pub fn encode_charge(receipt: &ChargeReceipt) -> Result<[u8; RECORD_SIZE], WalError> {
    let label = receipt.label.as_bytes();
    if label.len() > MAX_LABEL {
        return Err(WalError::LabelTooLong { len: label.len() });
    }
    let mut rec = [0u8; RECORD_SIZE];
    rec[0] = TAG_CHARGE;
    rec[1] = label.len() as u8;
    rec[8..16].copy_from_slice(&receipt.tenant.to_le_bytes());
    rec[16..24].copy_from_slice(&receipt.session.to_le_bytes());
    rec[24..32].copy_from_slice(&receipt.seq.to_le_bytes());
    rec[32..40].copy_from_slice(&receipt.epsilon.to_bits().to_le_bytes());
    rec[40..56].copy_from_slice(&receipt.prev_hash.to_le_bytes());
    rec[56..72].copy_from_slice(&receipt.hash.to_le_bytes());
    rec[72..72 + label.len()].copy_from_slice(label);
    seal(&mut rec);
    Ok(rec)
}

fn seal(rec: &mut [u8; RECORD_SIZE]) {
    let crc = crc32(&rec[..CRC_OFFSET]);
    rec[CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
}

fn read_u64(rec: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(rec[at..at + 8].try_into().expect("8-byte slice"))
}

fn read_u128(rec: &[u8], at: usize) -> u128 {
    u128::from_le_bytes(rec[at..at + 16].try_into().expect("16-byte slice"))
}

/// Decodes one full-width record. `Err` carries only the [`CorruptKind`]
/// — the caller supplies index/offset context.
fn decode(rec: &[u8]) -> Result<WalRecord, CorruptKind> {
    debug_assert_eq!(rec.len(), RECORD_SIZE);
    let stored = u32::from_le_bytes(rec[CRC_OFFSET..].try_into().expect("4-byte slice"));
    if crc32(&rec[..CRC_OFFSET]) != stored {
        return Err(CorruptKind::BadCrc);
    }
    if rec[2..8].iter().any(|&b| b != 0) {
        return Err(CorruptKind::NonCanonical);
    }
    let label_len = rec[1] as usize;
    if label_len > MAX_LABEL || rec[72 + label_len..CRC_OFFSET].iter().any(|&b| b != 0) {
        return Err(CorruptKind::BadLabel);
    }
    let tenant = read_u64(rec, 8);
    let epsilon = f64::from_bits(read_u64(rec, 32));
    match rec[0] {
        TAG_TENANT => {
            if label_len != 0 || rec[16..32].iter().any(|&b| b != 0) {
                return Err(CorruptKind::NonCanonical);
            }
            Ok(WalRecord::RegisterTenant {
                tenant,
                total_epsilon: epsilon,
            })
        }
        TAG_CHARGE => {
            let label = std::str::from_utf8(&rec[72..72 + label_len])
                .map_err(|_| CorruptKind::BadLabel)?
                .to_owned();
            Ok(WalRecord::Charge(ChargeReceipt {
                tenant,
                session: read_u64(rec, 16),
                seq: read_u64(rec, 24),
                label,
                epsilon,
                prev_hash: read_u128(rec, 40),
                hash: read_u128(rec, 56),
            }))
        }
        tag => Err(CorruptKind::UnknownTag(tag)),
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Where WAL bytes go. The production sink is a [`FileSink`];
/// [`MemSink`] backs tests and the fault-injection harness
/// ([`crate::fault`]), which wraps any sink to inject torn writes and
/// crash points.
pub trait WalSink: fmt::Debug + Send {
    /// Appends one encoded record. An `Err` may leave a *prefix* of the
    /// record persisted (a torn write) — replay handles that tail.
    fn append(&mut self, record: &[u8]) -> Result<(), WalError>;
    /// Flushes everything appended so far to stable storage.
    fn sync(&mut self) -> Result<(), WalError>;
}

/// File-backed sink (append mode).
#[derive(Debug)]
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Opens (creating if absent) `path` for appending.
    ///
    /// # Errors
    /// [`WalError::Io`] on open failure.
    pub fn open(path: &Path) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open", &e))?;
        Ok(Self { file })
    }

    /// Opens `path`, first truncating it to `valid_len` bytes — the
    /// recovery step that drops a torn tail before appending resumes.
    ///
    /// # Errors
    /// [`WalError::Io`] on open/truncate failure.
    pub fn open_truncated(path: &Path, valid_len: u64) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            // Not truncate(true): the valid prefix must survive; only
            // the torn tail is dropped, via the explicit set_len below.
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", &e))?;
        file.set_len(valid_len)
            .map_err(|e| io_err("truncate", &e))?;
        let mut sink = Self { file };
        // Position at the new end for subsequent appends.
        use std::io::Seek as _;
        sink.file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err("seek", &e))?;
        Ok(sink)
    }
}

impl WalSink for FileSink {
    fn append(&mut self, record: &[u8]) -> Result<(), WalError> {
        self.file
            .write_all(record)
            .map_err(|e| io_err("append", &e))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data().map_err(|e| io_err("sync", &e))
    }
}

/// In-memory sink over a shared buffer, so a test can "crash" a writer
/// and hand the surviving bytes to [`replay_records`].
#[derive(Debug, Clone, Default)]
pub struct MemSink {
    buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
}

impl MemSink {
    /// A fresh, empty shared buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the bytes persisted so far.
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().expect("mem sink lock").clone()
    }
}

impl WalSink for MemSink {
    fn append(&mut self, record: &[u8]) -> Result<(), WalError> {
        self.buf
            .lock()
            .expect("mem sink lock")
            .extend_from_slice(record);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The WAL writer
// ---------------------------------------------------------------------

/// When appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync inside every append: an `Ok` append is durable, so the
    /// caller may acknowledge immediately ("acknowledged ⇒ persisted").
    Always,
    /// Never sync implicitly; the caller drives [`LedgerWal::sync`].
    Manual,
}

/// Append-only writer of ledger records. See the module docs for the
/// format and the durability contract.
#[derive(Debug)]
pub struct LedgerWal {
    sink: Box<dyn WalSink>,
    policy: FsyncPolicy,
    poisoned: bool,
}

impl LedgerWal {
    /// Wraps an arbitrary sink (tests, fault injection).
    #[must_use]
    pub fn with_sink(sink: Box<dyn WalSink>, policy: FsyncPolicy) -> Self {
        Self {
            sink,
            policy,
            poisoned: false,
        }
    }

    /// Opens (creating if absent) a file-backed WAL for appending.
    ///
    /// # Errors
    /// [`WalError::Io`] on open failure.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<Self, WalError> {
        Ok(Self::with_sink(Box::new(FileSink::open(path)?), policy))
    }

    /// Opens a file-backed WAL after recovery, truncating the torn tail
    /// reported by replay so appends resume at a record boundary.
    ///
    /// # Errors
    /// [`WalError::Io`] on open/truncate failure.
    pub fn open_truncated(
        path: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
    ) -> Result<Self, WalError> {
        Ok(Self::with_sink(
            Box::new(FileSink::open_truncated(path, valid_len)?),
            policy,
        ))
    }

    /// Whether an earlier write failure has poisoned this WAL.
    #[inline]
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends a tenant-registration record.
    ///
    /// # Errors
    /// [`WalError::Io`] from the sink, [`WalError::Poisoned`] after any
    /// earlier failure. On failure the WAL poisons itself: the on-disk
    /// state is unknown (possibly a torn record), so further appends
    /// would risk an inconsistent log.
    pub fn append_tenant(&mut self, tenant: u64, total_epsilon: f64) -> Result<(), WalError> {
        let rec = encode_tenant(tenant, total_epsilon);
        self.append_record(&rec)
    }

    /// Appends a charge record.
    ///
    /// # Errors
    /// [`WalError::LabelTooLong`] (nothing written);  [`WalError::Io`]
    /// / [`WalError::Poisoned`] as for
    /// [`append_tenant`](Self::append_tenant).
    pub fn append_charge(&mut self, receipt: &ChargeReceipt) -> Result<(), WalError> {
        let rec = encode_charge(receipt)?;
        self.append_record(&rec)
    }

    fn append_record(&mut self, rec: &[u8; RECORD_SIZE]) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        if let Err(e) = self.sink.append(rec) {
            self.poisoned = true;
            return Err(e);
        }
        match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Manual => Ok(()),
        }
    }

    /// Flushes appended records to stable storage.
    ///
    /// # Errors
    /// [`WalError::Io`] from the sink (the WAL poisons itself),
    /// [`WalError::Poisoned`] after any earlier failure.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        if let Err(e) = self.sink.sync() {
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What [`replay_records`] reconstructed.
#[derive(Debug)]
pub struct WalReplay {
    /// Every tenant's rebuilt, chain-verified ledger.
    pub ledgers: BTreeMap<u64, BudgetLedger>,
    /// Whole records accepted.
    pub records: usize,
    /// Byte length of the valid log prefix — reopen the file truncated
    /// to this length to resume appending.
    pub valid_len: u64,
    /// Bytes of torn tail dropped (0 for a cleanly closed log).
    pub torn_tail_bytes: usize,
}

/// Replays an encoded log, rebuilding every tenant's [`BudgetLedger`].
///
/// Each charge record is appended once through
/// [`BudgetLedger::apply_prepared`], which holds it to the receipt rule
/// [`audit_receipts`](crate::ledger::audit_receipts) applies, so a log
/// that replays is by construction a log whose chains re-derive; a
/// final [`BudgetLedger::verify_chain`] over every ledger re-checks the
/// invariant end-to-end. A torn tail — a trailing partial record, or a
/// trailing CRC-failing region shorter than two records — is dropped
/// and reported, not an error (see the module docs for why this is the
/// crash-safe reading).
///
/// # Errors
/// [`WalError::CorruptRecord`] (mid-log damage, with the exact record
/// index and byte offset), [`WalError::DuplicateTenant`],
/// [`WalError::UnknownTenant`], [`WalError::ChainMismatch`] (a record
/// whose sequence number, back-link or hash breaks its tenant's chain),
/// [`WalError::Ledger`] (an invalid `ε`, or a charge past the total) —
/// all hard: recovery must not guess around them, because every guess
/// risks under-counting spent `ε`.
pub fn replay_records(bytes: &[u8]) -> Result<WalReplay, WalError> {
    let mut ledgers: BTreeMap<u64, BudgetLedger> = BTreeMap::new();
    let mut index = 0usize;
    let mut offset = 0usize;
    let mut torn_tail_bytes = 0usize;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_SIZE {
            // Partial trailing record: a torn write, clean end of log.
            torn_tail_bytes = remaining;
            break;
        }
        let rec = &bytes[offset..offset + RECORD_SIZE];
        let decoded = match decode(rec) {
            Ok(d) => d,
            Err(kind) => {
                // A damaged record is a torn tail only if no complete
                // record begins after it; otherwise the log has mid-log
                // corruption a crash cannot explain.
                if remaining < 2 * RECORD_SIZE {
                    torn_tail_bytes = remaining;
                    break;
                }
                return Err(WalError::CorruptRecord {
                    index,
                    offset: offset as u64,
                    kind,
                });
            }
        };
        match decoded {
            WalRecord::RegisterTenant {
                tenant,
                total_epsilon,
            } => {
                if ledgers.contains_key(&tenant) {
                    return Err(WalError::DuplicateTenant { tenant, index });
                }
                let ledger =
                    BudgetLedger::new(tenant, total_epsilon).map_err(|error| WalError::Ledger {
                        tenant,
                        index,
                        error,
                    })?;
                ledgers.insert(tenant, ledger);
            }
            WalRecord::Charge(logged) => {
                let tenant = logged.tenant;
                let Some(ledger) = ledgers.get_mut(&tenant) else {
                    return Err(WalError::UnknownTenant { tenant, index });
                };
                let seq = logged.seq;
                ledger.apply_prepared(logged).map_err(|error| match error {
                    LedgerError::InvalidCharge(_) | LedgerError::BudgetExhausted { .. } => {
                        WalError::Ledger {
                            tenant,
                            index,
                            error,
                        }
                    }
                    _ => WalError::ChainMismatch { tenant, seq, index },
                })?;
            }
        }
        index += 1;
        offset += RECORD_SIZE;
    }
    // Belt and braces: re-verify every reconstructed chain end-to-end.
    for (tenant, ledger) in &ledgers {
        ledger.verify_chain().map_err(|error| WalError::Ledger {
            tenant: *tenant,
            index,
            error,
        })?;
    }
    Ok(WalReplay {
        ledgers,
        records: index,
        valid_len: (index * RECORD_SIZE) as u64,
        torn_tail_bytes,
    })
}

/// Replays a file-backed log; see [`replay_records`].
///
/// # Errors
/// [`WalError::Io`] on read failure, plus everything
/// [`replay_records`] reports.
pub fn replay_file(path: &Path) -> Result<WalReplay, WalError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read", &e))?;
    replay_records(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_log(charges: &[(u64, u64, f64)]) -> (Vec<u8>, BTreeMap<u64, BudgetLedger>) {
        let sink = MemSink::new();
        let mut wal = LedgerWal::with_sink(Box::new(sink.clone()), FsyncPolicy::Manual);
        let mut ledgers: BTreeMap<u64, BudgetLedger> = BTreeMap::new();
        for &(tenant, session, eps) in charges {
            let ledger = ledgers.entry(tenant).or_insert_with(|| {
                wal.append_tenant(tenant, 100.0).unwrap();
                BudgetLedger::new(tenant, 100.0).unwrap()
            });
            let receipt = ledger.charge(session, "svt session open", eps).unwrap();
            wal.append_charge(receipt).unwrap();
        }
        wal.sync().unwrap();
        (sink.bytes(), ledgers)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_reconstructs_ledgers_exactly() {
        let charges = [(7, 0, 0.5), (7, 1, 0.25), (3, 0, 1.0), (7, 2, 0.125)];
        let (bytes, live) = build_log(&charges);
        assert_eq!(bytes.len(), 6 * RECORD_SIZE); // 2 tenants + 4 charges
        let replay = replay_records(&bytes).unwrap();
        assert_eq!(replay.records, 6);
        assert_eq!(replay.torn_tail_bytes, 0);
        assert_eq!(replay.valid_len, bytes.len() as u64);
        assert_eq!(replay.ledgers.len(), 2);
        for (tenant, ledger) in &replay.ledgers {
            let want = &live[tenant];
            assert_eq!(ledger.receipts(), want.receipts());
            assert_eq!(ledger.spent().to_bits(), want.spent().to_bits());
            ledger.verify_chain().unwrap();
        }
    }

    #[test]
    fn torn_tail_is_a_clean_end() {
        let (bytes, _) = build_log(&[(1, 0, 0.5), (1, 1, 0.25)]);
        // Cut mid-way through the final record.
        for cut in [1, RECORD_SIZE / 2, RECORD_SIZE - 1] {
            let torn = &bytes[..bytes.len() - cut];
            let replay = replay_records(torn).unwrap();
            assert_eq!(replay.records, 2);
            assert_eq!(replay.torn_tail_bytes, RECORD_SIZE - cut);
            assert_eq!(replay.valid_len, (2 * RECORD_SIZE) as u64);
        }
    }

    #[test]
    fn trailing_garbage_shorter_than_a_record_is_a_torn_tail() {
        let (mut bytes, _) = build_log(&[(1, 0, 0.5)]);
        bytes.extend_from_slice(&[0xab; 17]);
        let replay = replay_records(&bytes).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.torn_tail_bytes, 17);
    }

    #[test]
    fn corrupt_final_record_is_a_torn_tail() {
        let (mut bytes, _) = build_log(&[(1, 0, 0.5), (1, 1, 0.25)]);
        let last = bytes.len() - RECORD_SIZE / 2;
        bytes[last] ^= 0xff;
        let replay = replay_records(&bytes).unwrap();
        // The damaged final record is dropped; the prefix survives.
        assert_eq!(replay.records, 2);
        assert_eq!(replay.torn_tail_bytes, RECORD_SIZE);
        assert!((replay.ledgers[&1].spent() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mid_log_corruption_is_a_hard_attributable_error() {
        let (mut bytes, _) = build_log(&[(1, 0, 0.5), (1, 1, 0.25), (1, 2, 0.125)]);
        // Damage record 2 (the first charge); records 3 and 4 follow.
        bytes[2 * RECORD_SIZE + 20] ^= 0x01;
        let err = replay_records(&bytes).unwrap_err();
        assert_eq!(
            err,
            WalError::CorruptRecord {
                index: 2,
                offset: (2 * RECORD_SIZE) as u64,
                kind: CorruptKind::BadCrc,
            }
        );
    }

    #[test]
    fn consistently_rehashed_forgery_is_a_chain_mismatch() {
        // Forge a record that passes CRC but was never on the chain:
        // re-encode a receipt with a smaller ε and a re-derived hash.
        let sink = MemSink::new();
        let mut wal = LedgerWal::with_sink(Box::new(sink.clone()), FsyncPolicy::Manual);
        let mut ledger = BudgetLedger::new(9, 10.0).unwrap();
        wal.append_tenant(9, 10.0).unwrap();
        let r0 = ledger.charge(0, "svt session open", 1.0).unwrap().clone();
        wal.append_charge(&r0).unwrap();
        let mut forged = ledger.charge(1, "svt session open", 2.0).unwrap().clone();
        forged.epsilon = 0.5; // understate the spend
        forged.hash = crate::ledger::chain_hash(
            forged.prev_hash,
            forged.tenant,
            forged.session,
            forged.seq,
            &forged.label,
            forged.epsilon,
        );
        wal.append_charge(&forged).unwrap();
        // Another *honest* record after it: its back-link still points
        // at the original receipt's hash, so the splice surfaces there
        // (the same one-record-late detection as the in-memory audit).
        let r2 = ledger.charge(2, "svt session open", 0.25).unwrap().clone();
        wal.append_charge(&r2).unwrap();
        let err = replay_records(&sink.bytes()).unwrap_err();
        assert_eq!(
            err,
            WalError::ChainMismatch {
                tenant: 9,
                seq: 2,
                index: 3,
            }
        );
    }

    #[test]
    fn orphan_charge_and_duplicate_tenant_are_attributable() {
        let mut ledger = BudgetLedger::new(4, 1.0).unwrap();
        let receipt = ledger.charge(0, "svt session open", 0.5).unwrap().clone();
        let sink = MemSink::new();
        let mut wal = LedgerWal::with_sink(Box::new(sink.clone()), FsyncPolicy::Manual);
        wal.append_charge(&receipt).unwrap();
        assert_eq!(
            replay_records(&sink.bytes()).unwrap_err(),
            WalError::UnknownTenant {
                tenant: 4,
                index: 0
            }
        );

        let sink = MemSink::new();
        let mut wal = LedgerWal::with_sink(Box::new(sink.clone()), FsyncPolicy::Manual);
        wal.append_tenant(4, 1.0).unwrap();
        wal.append_tenant(4, 2.0).unwrap();
        assert_eq!(
            replay_records(&sink.bytes()).unwrap_err(),
            WalError::DuplicateTenant {
                tenant: 4,
                index: 1
            }
        );
    }

    #[test]
    fn overdrawn_log_is_rejected() {
        // Hand-build a log whose chain is internally consistent but
        // sums past the registered total.
        let sink = MemSink::new();
        let mut wal = LedgerWal::with_sink(Box::new(sink.clone()), FsyncPolicy::Manual);
        wal.append_tenant(2, 10.0).unwrap();
        let mut ledger = BudgetLedger::new(2, 10.0).unwrap();
        for s in 0..2 {
            let r = ledger.charge(s, "svt session open", 4.0).unwrap().clone();
            wal.append_charge(&r).unwrap();
        }
        // 3 × 4.0 > 10.0: the in-memory ledger refuses a third charge,
        // so forge it onto the chain manually.
        let bytes = sink.bytes();
        assert_eq!(bytes.len(), 3 * RECORD_SIZE); // tenant + 2 charges
        assert!(ledger.charge(3, "svt session open", 4.0).is_err());
        // Splice a consistent-but-overdrawn receipt after the chain head.
        let head = ledger.receipts().last().unwrap();
        let over = ChargeReceipt {
            tenant: 2,
            session: 3,
            seq: head.seq + 1,
            label: "svt session open".to_owned(),
            epsilon: 4.0,
            prev_hash: head.hash,
            hash: crate::ledger::chain_hash(head.hash, 2, 3, head.seq + 1, "svt session open", 4.0),
        };
        let mut bytes = bytes;
        bytes.extend_from_slice(&encode_charge(&over).unwrap());
        // Pad with one more valid-looking copy so the forgery is
        // mid-log (otherwise a lone bad tail record could be read as
        // torn — it is not, because its CRC is valid, but keep the
        // stronger case).
        bytes.extend_from_slice(&encode_tenant(99, 1.0));
        let err = replay_records(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                WalError::Ledger {
                    tenant: 2,
                    index: 3,
                    error: LedgerError::BudgetExhausted { .. },
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn negative_charge_record_is_a_ledger_error() {
        // A CRC-valid record that links and hashes onto the chain but
        // charges a negative ε (a refund) is the ledger's to reject.
        let sink = MemSink::new();
        let mut wal = LedgerWal::with_sink(Box::new(sink.clone()), FsyncPolicy::Manual);
        wal.append_tenant(2, 10.0).unwrap();
        let mut ledger = BudgetLedger::new(2, 10.0).unwrap();
        let head = ledger.charge(0, "svt session open", 4.0).unwrap().clone();
        wal.append_charge(&head).unwrap();
        let refund = ChargeReceipt {
            tenant: 2,
            session: 1,
            seq: 1,
            label: "svt session open".to_owned(),
            epsilon: -0.5,
            prev_hash: head.hash,
            hash: crate::ledger::chain_hash(head.hash, 2, 1, 1, "svt session open", -0.5),
        };
        wal.append_charge(&refund).unwrap();
        let err = replay_records(&sink.bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                WalError::Ledger {
                    tenant: 2,
                    index: 2,
                    error: LedgerError::InvalidCharge(_),
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn label_too_long_rejected_before_writing() {
        let mut ledger = BudgetLedger::new(1, 1.0).unwrap();
        let long = "x".repeat(MAX_LABEL + 1);
        let receipt = ledger.charge(0, &long, 0.5).unwrap().clone();
        let sink = MemSink::new();
        let mut wal = LedgerWal::with_sink(Box::new(sink.clone()), FsyncPolicy::Manual);
        assert_eq!(
            wal.append_charge(&receipt).unwrap_err(),
            WalError::LabelTooLong { len: MAX_LABEL + 1 }
        );
        assert!(sink.bytes().is_empty());
        assert!(!wal.is_poisoned(), "a rejected encode is not an I/O fault");
    }

    #[test]
    fn file_wal_round_trips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("svt-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = LedgerWal::open(&path, FsyncPolicy::Always).unwrap();
            let mut ledger = BudgetLedger::new(11, 5.0).unwrap();
            wal.append_tenant(11, 5.0).unwrap();
            for s in 0..4 {
                let r = ledger.charge(s, "svt session open", 0.5).unwrap().clone();
                wal.append_charge(&r).unwrap();
            }
        }
        // Simulate a torn write.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x77; 31]).unwrap();
        }
        let replay = replay_file(&path).unwrap();
        assert_eq!(replay.records, 5);
        assert_eq!(replay.torn_tail_bytes, 31);
        assert!((replay.ledgers[&11].spent() - 2.0).abs() < 1e-12);
        // Recovery reopen: truncate the tail, append one more charge,
        // replay again — the log is whole.
        {
            let mut wal =
                LedgerWal::open_truncated(&path, replay.valid_len, FsyncPolicy::Always).unwrap();
            let mut ledger = replay.ledgers.into_iter().next().unwrap().1;
            let r = ledger.charge(9, "svt session open", 0.5).unwrap().clone();
            wal.append_charge(&r).unwrap();
        }
        let replay = replay_file(&path).unwrap();
        assert_eq!(replay.records, 6);
        assert_eq!(replay.torn_tail_bytes, 0);
        assert!((replay.ledgers[&11].spent() - 2.5).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }
}
