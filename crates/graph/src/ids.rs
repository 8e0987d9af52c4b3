//! Typed identifiers for graph items.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a node. Ids are assigned monotonically by the store and are
/// never reused, so an id also acts as a creation-time stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u64);

/// Identifier of a relationship (edge). Same monotonicity guarantee as
/// [`NodeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelId(pub u64);

/// One step along a node's adjacency: a relationship and the node at its
/// other end ([`crate::GraphView::hops`]).
pub type Hop = (RelId, NodeId);

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

/// A hash map keyed by engine-assigned ids: [`IdHasher`] instead of
/// SipHash. Ids are chosen by the store, never by a client, so resistance
/// to adversarial keys buys nothing here.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of engine-assigned ids; see [`IdHashMap`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A multiplicative hash of an id: one rotate, one xor and one multiply
/// per word. Dense ids keep distinct low bits (the multiplier is odd) and
/// get mixed high bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
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
    fn id_hash_tables_key_by_value() {
        let mut map: IdHashMap<NodeId, u64> = IdHashMap::default();
        for i in 0..1_000 {
            map.insert(NodeId(i), i * 2);
        }
        assert_eq!(map.len(), 1_000);
        assert!((0..1_000).all(|i| map[&NodeId(i)] == i * 2));
        let set: IdHashSet<RelId> = [RelId(3), RelId(3), RelId(u64::MAX)].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&RelId(u64::MAX)) && !set.contains(&RelId(4)));
    }

    #[test]
    fn item_ref_from_ids() {
        assert_eq!(ItemRef::from(NodeId(1)), ItemRef::Node(NodeId(1)));
        assert_eq!(ItemRef::from(RelId(2)), ItemRef::Rel(RelId(2)));
    }
}
