//! Typed identifiers for graph items.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node. Ids are assigned monotonically by the store and are
/// never reused, so an id also acts as a creation-time stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u64);

/// Identifier of a relationship (edge). Same monotonicity guarantee as
/// [`NodeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelId(pub u64);

/// A reference to either kind of graph item. Used where an operation applies
/// uniformly to nodes and relationships (e.g. the `BEFORE`-trigger write
/// policy, which restricts writes to the *new* items of a statement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ItemRef {
    Node(NodeId),
    Rel(RelId),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ItemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemRef::Node(n) => write!(f, "{n}"),
            ItemRef::Rel(r) => write!(f, "{r}"),
        }
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<u64> for RelId {
    fn from(raw: u64) -> Self {
        RelId(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(n: NodeId) -> Self {
        n.0
    }
}

impl From<RelId> for u64 {
    fn from(r: RelId) -> Self {
        r.0
    }
}

impl From<NodeId> for ItemRef {
    fn from(n: NodeId) -> Self {
        ItemRef::Node(n)
    }
}

impl From<RelId> for ItemRef {
    fn from(r: RelId) -> Self {
        ItemRef::Rel(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(RelId(3).to_string(), "r3");
        assert_eq!(ItemRef::Node(NodeId(7)).to_string(), "n7");
        assert_eq!(ItemRef::Rel(RelId(3)).to_string(), "r3");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(RelId(10) > RelId(9));
    }

    #[test]
    fn item_ref_from_ids() {
        assert_eq!(ItemRef::from(NodeId(1)), ItemRef::Node(NodeId(1)));
        assert_eq!(ItemRef::from(RelId(2)), ItemRef::Rel(RelId(2)));
    }
}
