//! Error types for the query layer.

use pg_graph::{GraphError, MAX_NESTING};
use std::fmt;

/// Errors from lexing, parsing, or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum CypherError {
    /// Lexical error at a byte offset.
    Lex { pos: usize, msg: String },
    /// Parse error at a byte offset.
    Parse { pos: usize, msg: String },
    /// Runtime type error or misuse (e.g. property access on an integer).
    Type(String),
    /// Reference to an unbound variable.
    UnboundVariable(String),
    /// A write clause was executed against a read-only target (condition
    /// evaluation, pre-state views).
    ReadOnly(&'static str),
    /// Explicit `ABORT` raised by a query or trigger statement.
    Aborted(String),
    /// Arithmetic failure (division by zero, invalid operand types).
    Arithmetic(String),
    /// Unknown function.
    UnknownFunction(String),
    /// A list or map built at run time would nest deeper than
    /// [`pg_graph::MAX_NESTING`] levels.
    TooDeep,
    /// An underlying store error (constraint violations, write-policy
    /// rejections, …).
    Store(GraphError),
}

impl CypherError {
    pub fn lex(pos: usize, msg: impl Into<String>) -> Self {
        CypherError::Lex {
            pos,
            msg: msg.into(),
        }
    }

    pub fn parse(pos: usize, msg: impl Into<String>) -> Self {
        CypherError::Parse {
            pos,
            msg: msg.into(),
        }
    }

    pub fn type_err(msg: impl Into<String>) -> Self {
        CypherError::Type(msg.into())
    }
}

impl fmt::Display for CypherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CypherError::Lex { pos, msg } => write!(f, "lex error at {pos}: {msg}"),
            CypherError::Parse { pos, msg } => write!(f, "parse error at {pos}: {msg}"),
            CypherError::Type(msg) => write!(f, "type error: {msg}"),
            CypherError::UnboundVariable(v) => write!(f, "unbound variable '{v}'"),
            CypherError::ReadOnly(what) => write!(f, "{what} not allowed in read-only context"),
            CypherError::Aborted(msg) => write!(f, "aborted: {msg}"),
            CypherError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            CypherError::UnknownFunction(name) => write!(f, "unknown function '{name}'"),
            CypherError::TooDeep => {
                write!(f, "lists/maps nested deeper than {MAX_NESTING} levels")
            }
            CypherError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for CypherError {}

impl From<GraphError> for CypherError {
    fn from(e: GraphError) -> Self {
        CypherError::Store(e)
    }
}

/// Result alias for query operations.
pub type Result<T> = std::result::Result<T, CypherError>;
