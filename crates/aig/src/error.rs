use std::fmt;

/// Errors reported by AIG construction, validation and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AigError {
    /// The structural invariant checker found a violation.
    InvariantViolation(String),
    /// The requested arena capacity does not fit the packed node-id space
    /// (or overflows `usize` during sizing).
    CapacityOverflow {
        /// Number of live nodes the capacity was computed from.
        live: usize,
    },
    /// A rewriting worker panicked; the panic was contained at the operator
    /// boundary and converted into this error instead of unwinding through
    /// the scheduler.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An AIGER file could not be parsed.
    ParseAiger(String),
    /// An I/O error occurred while reading or writing a file.
    Io(String),
}

impl fmt::Display for AigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AigError::InvariantViolation(msg) => write!(f, "aig invariant violation: {msg}"),
            AigError::CapacityOverflow { live } => write!(
                f,
                "required arena capacity for {live} live nodes does not fit \
                 the node-id space"
            ),
            AigError::WorkerPanicked { message } => {
                write!(f, "a rewriting worker panicked: {message}")
            }
            AigError::ParseAiger(msg) => write!(f, "invalid aiger input: {msg}"),
            AigError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for AigError {}

impl From<std::io::Error> for AigError {
    fn from(e: std::io::Error) -> Self {
        AigError::Io(e.to_string())
    }
}
