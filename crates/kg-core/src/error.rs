//! Error type shared by the storage substrate.

use std::fmt;
use std::io;

/// Result alias used across `kg-core`.
pub type KgResult<T> = Result<T, KgError>;

/// Errors produced while building, loading or querying a knowledge graph.
#[derive(Debug)]
pub enum KgError {
    /// An entity name was looked up but does not exist in the graph.
    UnknownEntity(String),
    /// An entity id is out of range for this graph.
    InvalidEntityId(u32),
    /// A predicate name was looked up but does not exist.
    UnknownPredicate(String),
    /// A type name was looked up but does not exist.
    UnknownType(String),
    /// An attribute name was looked up but does not exist.
    UnknownAttribute(String),
    /// A duplicate entity name was inserted where uniqueness is required.
    DuplicateEntity(String),
    /// A line of a serialized graph file could not be parsed.
    Parse {
        /// 1-based line number in the input file.
        line: usize,
        /// What was wrong with the line.
        message: String,
    },
    /// A sampling weight was NaN, infinite or negative, so no draw
    /// distribution can be built from the answer set. Raised at *prepare*
    /// time (sampler preparation / query planning) so the draw hot path
    /// never has to compare against a NaN cumulative weight.
    DegenerateWeights {
        /// Index of the offending weight within the answer distribution.
        index: usize,
        /// The offending weight value.
        weight: f64,
    },
    /// A binary snapshot failed validation or (de)serialization: truncated
    /// file, checksum mismatch, format version skew, misaligned or
    /// out-of-bounds section, or structurally inconsistent content. The
    /// loader fails closed with this error — a bad snapshot never panics
    /// and never produces a partially-initialised graph.
    Snapshot {
        /// The failing section (`"header"`, `"toc"`, or a section name such
        /// as `"triples"` — see `snapshot::section_kind::name`).
        section: String,
        /// What failed, with stored-vs-computed detail where applicable.
        message: String,
    },
    /// Underlying I/O failure while loading or saving.
    Io(io::Error),
}

impl fmt::Display for KgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgError::UnknownEntity(name) => write!(f, "unknown entity: {name:?}"),
            KgError::InvalidEntityId(id) => write!(f, "entity id out of range: {id}"),
            KgError::UnknownPredicate(name) => write!(f, "unknown predicate: {name:?}"),
            KgError::UnknownType(name) => write!(f, "unknown type: {name:?}"),
            KgError::UnknownAttribute(name) => write!(f, "unknown attribute: {name:?}"),
            KgError::DuplicateEntity(name) => write!(f, "duplicate entity name: {name:?}"),
            KgError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            KgError::DegenerateWeights { index, weight } => write!(
                f,
                "degenerate sampling weight at answer index {index}: {weight} \
                 (weights must be finite and non-negative)"
            ),
            KgError::Snapshot { section, message } => {
                write!(f, "snapshot section {section:?}: {message}")
            }
            KgError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for KgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KgError {
    fn from(e: io::Error) -> Self {
        KgError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = KgError::UnknownEntity("Germany".into());
        assert!(e.to_string().contains("Germany"));
        let e = KgError::Parse {
            line: 12,
            message: "bad triple".into(),
        };
        assert!(e.to_string().contains("line 12"));
        let e = KgError::DegenerateWeights {
            index: 3,
            weight: f64::NAN,
        };
        assert!(e.to_string().contains("index 3"), "{e}");
        assert!(e.to_string().contains("NaN"), "{e}");
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        use std::error::Error;
        let e: KgError = io::Error::new(io::ErrorKind::NotFound, "nope").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("nope"));
    }
}
