//! Reading and writing transaction data in the FIMI text format.
//!
//! The paper's real datasets (BMS-POS, Kosarak; Table 1) are
//! conventionally distributed in the FIMI repository format: one
//! transaction per line, items as whitespace-separated non-negative
//! integers. This environment has no copy of those files, so the
//! evaluation harness runs on the calibrated generators of
//! [`crate::generators`] — but a downstream user who *does* have the
//! originals can load them here and reproduce the figures on the real
//! data, which is exactly the substitution contract the README's
//! *Regenerating the paper's tables and figures* section states.
//!
//! Parsing rules:
//!
//! * items are separated by any run of spaces or tabs;
//! * blank lines and lines starting with `#` or `%` are skipped
//!   (some mirrors prepend comment headers);
//! * the item universe is `0..=max_item` unless a larger universe is
//!   requested explicitly;
//! * malformed tokens are hard errors with a 1-based line number —
//!   silently dropping records would silently change every support.

use crate::dataset::{ItemId, TransactionDataset};
use crate::error::DataError;
use crate::Result;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Reads FIMI-format transactions from any reader.
///
/// The item universe is inferred as `max item + 1`. Use
/// [`read_transactions_with_universe`] to pin a larger universe (e.g.
/// to keep zero-support items addressable).
///
/// ```
/// let data = dp_data::io::read_transactions("0 1 2\n1 2\n2\n".as_bytes())?;
/// assert_eq!(data.n_records(), 3);
/// assert_eq!(data.item_supports(), vec![1, 2, 3]);
/// # Ok::<(), dp_data::DataError>(())
/// ```
///
/// # Errors
/// [`DataError::Io`] on read failures; [`DataError::Parse`] on
/// malformed tokens; [`DataError::Empty`] when no transactions are
/// present.
pub fn read_transactions<R: Read>(reader: R) -> Result<TransactionDataset> {
    read_impl(reader, None)
}

/// Reads FIMI-format transactions with an explicit item universe size.
///
/// # Errors
/// As [`read_transactions`], plus [`DataError::ItemOutOfRange`] if any
/// transaction mentions an item `≥ n_items`.
pub fn read_transactions_with_universe<R: Read>(
    reader: R,
    n_items: usize,
) -> Result<TransactionDataset> {
    read_impl(reader, Some(n_items))
}

/// Reads FIMI-format transactions from a file path.
///
/// # Errors
/// As [`read_transactions`].
pub fn read_transactions_file<P: AsRef<Path>>(path: P) -> Result<TransactionDataset> {
    let file = std::fs::File::open(path)?;
    read_transactions(BufReader::new(file))
}

fn read_impl<R: Read>(reader: R, n_items: Option<usize>) -> Result<TransactionDataset> {
    let reader = BufReader::new(reader);
    let mut transactions: Vec<Vec<ItemId>> = Vec::new();
    let mut max_item: Option<ItemId> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut record: Vec<ItemId> = Vec::new();
        for token in trimmed.split_ascii_whitespace() {
            let item: ItemId = token.parse().map_err(|_| DataError::Parse {
                line: idx + 1,
                reason: format!("`{token}` is not a non-negative integer item id"),
            })?;
            max_item = Some(max_item.map_or(item, |m: ItemId| m.max(item)));
            record.push(item);
        }
        transactions.push(record);
    }
    if transactions.is_empty() {
        return Err(DataError::Empty);
    }
    let inferred = max_item.map_or(0, |m| m as usize + 1);
    let universe = match n_items {
        Some(n) => n,
        None => inferred,
    };
    TransactionDataset::new(transactions, universe)
}

/// Writes a dataset in FIMI format (one line per transaction, items
/// space-separated, in sorted order as stored).
///
/// Empty transactions are skipped: the FIMI line format cannot
/// represent them (an empty line is indistinguishable from formatting),
/// and they carry no support information. A write→read round trip
/// therefore preserves every item support but may shrink the record
/// count.
///
/// # Errors
/// [`DataError::Io`] on write failures.
pub fn write_transactions<W: Write>(dataset: &TransactionDataset, mut writer: W) -> Result<()> {
    let mut line = String::new();
    for t in dataset.transactions() {
        if t.is_empty() {
            continue;
        }
        line.clear();
        for (i, item) in t.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(&item.to_string());
        }
        line.push('\n');
        writer.write_all(line.as_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

/// Writes a dataset to a file in FIMI format.
///
/// # Errors
/// [`DataError::Io`] on create/write failures.
pub fn write_transactions_file<P: AsRef<Path>>(
    dataset: &TransactionDataset,
    path: P,
) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_transactions(dataset, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mechanisms::DpRng;

    const SAMPLE: &str = "# header comment\n0 1 2\n\n1 2\n% another comment\n2\n";

    #[test]
    fn parses_comments_blanks_and_records() {
        let d = read_transactions(SAMPLE.as_bytes()).unwrap();
        assert_eq!(d.n_records(), 3);
        assert_eq!(d.n_items(), 3);
        assert_eq!(d.item_supports(), vec![1, 2, 3]);
    }

    #[test]
    fn explicit_universe_keeps_zero_support_items() {
        let d = read_transactions_with_universe(SAMPLE.as_bytes(), 10).unwrap();
        assert_eq!(d.n_items(), 10);
        assert_eq!(d.item_supports()[3..], [0; 7]);
    }

    #[test]
    fn explicit_universe_too_small_is_an_error() {
        let err = read_transactions_with_universe(SAMPLE.as_bytes(), 2).unwrap_err();
        assert!(matches!(err, DataError::ItemOutOfRange { item: 2, .. }));
    }

    #[test]
    fn malformed_token_reports_line_number() {
        let err = read_transactions("0 1\n2 x 3\n".as_bytes()).unwrap_err();
        match err {
            DataError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains('x'), "{reason}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn negative_item_is_a_parse_error() {
        assert!(matches!(
            read_transactions("0 -1\n".as_bytes()),
            Err(DataError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(
            read_transactions("".as_bytes()),
            Err(DataError::Empty)
        ));
        assert!(matches!(
            read_transactions("# only comments\n\n".as_bytes()),
            Err(DataError::Empty)
        ));
    }

    #[test]
    fn roundtrip_preserves_supports() {
        let mut rng = DpRng::seed_from_u64(277);
        let original = TransactionDataset::from_target_supports(&[40, 25, 10, 0, 3], 50, &mut rng);
        let mut buf = Vec::new();
        write_transactions(&original, &mut buf).unwrap();
        // Universe must be pinned: item 3 has zero support and item 4
        // may otherwise define the inferred max.
        let reread = read_transactions_with_universe(buf.as_slice(), 5).unwrap();
        assert_eq!(reread.item_supports(), original.item_supports());
        // Empty transactions are unrepresentable in FIMI and dropped on
        // write; only non-empty records survive the round trip.
        let non_empty = original
            .transactions()
            .iter()
            .filter(|t| !t.is_empty())
            .count();
        assert_eq!(reread.n_records(), non_empty);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("svt-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.dat");
        let d = TransactionDataset::new(vec![vec![0, 2], vec![1]], 3).unwrap();
        write_transactions_file(&d, &path).unwrap();
        let reread = read_transactions_file(&path).unwrap();
        assert_eq!(reread.item_supports(), d.item_supports());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_transactions_file("/nonexistent/definitely/missing.dat").unwrap_err();
        assert!(matches!(err, DataError::Io(_)));
    }

    #[test]
    fn duplicate_items_within_a_line_are_deduplicated() {
        let d = read_transactions("5 5 5\n".as_bytes()).unwrap();
        assert_eq!(d.item_supports()[5], 1);
    }
}
