//! Error types for store operations.

use crate::ids::{ItemRef, NodeId, RelId};
use std::fmt;

/// Errors raised by [`crate::Graph`] mutations and transaction control.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The referenced node does not exist (or was deleted in this transaction).
    NodeNotFound(NodeId),
    /// The referenced relationship does not exist.
    RelNotFound(RelId),
    /// `DELETE` on a node that still has relationships (use detach-delete).
    HasRelationships(NodeId),
    /// Transaction control misuse: `commit`/`rollback` without `begin`.
    NoActiveTransaction,
    /// `begin` while a transaction is already active.
    TransactionActive,
    /// A mutation was rejected by the active write policy (e.g. a `BEFORE`
    /// trigger statement attempting anything other than conditioning the NEW
    /// items, paper §4.2 "Action Time").
    WritePolicy {
        op: &'static str,
        item: Option<ItemRef>,
    },
    /// Attempt to store a non-storable value (a node/relationship
    /// reference, or lists/maps nested deeper than
    /// [`crate::value::MAX_NESTING`]) as a property.
    NotStorable {
        key: String,
        type_name: &'static str,
    },
    /// The attached [`crate::store::CommitSink`] refused the commit (e.g.
    /// a WAL append or fsync failed). The transaction has been undone: the
    /// in-memory state never diverges from the durable log.
    Durability(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeNotFound(n) => write!(f, "node {n} not found"),
            GraphError::RelNotFound(r) => write!(f, "relationship {r} not found"),
            GraphError::HasRelationships(n) => {
                write!(f, "node {n} still has relationships; use DETACH DELETE")
            }
            GraphError::NoActiveTransaction => write!(f, "no active transaction"),
            GraphError::TransactionActive => write!(f, "a transaction is already active"),
            GraphError::WritePolicy { op, item } => match item {
                Some(i) => write!(f, "write policy forbids {op} on {i}"),
                None => write!(f, "write policy forbids {op}"),
            },
            GraphError::NotStorable { key, type_name } => {
                write!(
                    f,
                    "value of type {type_name} cannot be stored as property '{key}'"
                )
            }
            GraphError::Durability(reason) => {
                write!(f, "commit rejected by durability layer: {reason}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, GraphError>;
