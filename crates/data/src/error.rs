//! Error type for the data substrate.

use std::fmt;

/// Errors raised while building or querying workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A score vector contained a non-finite entry.
    NonFiniteScore {
        /// Index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Every score is finite but their absolute sum `Σ|score|`
    /// overflows `f64`, so cumulative score mass would not be finite.
    ScoreMassOverflow,
    /// An operation required a nonempty score vector or dataset.
    Empty,
    /// An item identifier was out of range.
    ItemOutOfRange {
        /// The offending item.
        item: usize,
        /// The number of items in the universe.
        n_items: usize,
    },
    /// A record index was out of range.
    RecordOutOfRange {
        /// The offending record index.
        index: usize,
        /// The number of records.
        n_records: usize,
    },
    /// A generator was configured with invalid parameters.
    InvalidGenerator(&'static str),
    /// A transaction file could not be read or written.
    Io(String),
    /// A transaction file line could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteScore { index, value } => {
                write!(f, "score {index} is not finite: {value}")
            }
            Self::ScoreMassOverflow => write!(f, "the absolute sum of the scores overflows f64"),
            Self::Empty => write!(f, "operation requires nonempty data"),
            Self::ItemOutOfRange { item, n_items } => {
                write!(
                    f,
                    "item {item} out of range for universe of {n_items} items"
                )
            }
            Self::RecordOutOfRange { index, n_records } => {
                write!(f, "record {index} out of range for {n_records} records")
            }
            Self::InvalidGenerator(reason) => write!(f, "invalid generator: {reason}"),
            Self::Io(reason) => write!(f, "i/o error: {reason}"),
            Self::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DataError::ItemOutOfRange {
            item: 9,
            n_items: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('5'));
    }
}
