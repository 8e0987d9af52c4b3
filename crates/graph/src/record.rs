//! Node and relationship records.

use crate::ids::{NodeId, RelId};
use crate::props::PropertyMap;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A node: a set of labels plus a property map. Nodes may have zero, one, or
/// several labels (paper §4.2, "Choice of LABELS").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeRecord {
    pub id: NodeId,
    pub labels: BTreeSet<String>,
    pub props: PropertyMap,
}

impl NodeRecord {
    pub fn new(id: NodeId) -> Self {
        NodeRecord {
            id,
            labels: BTreeSet::new(),
            props: PropertyMap::new(),
        }
    }

    pub fn has_label(&self, label: &str) -> bool {
        self.labels.contains(label)
    }

    /// Materialize the record as a map value (labels under the reserved
    /// `__labels` key). Used to build `OLD` transition variables for deleted
    /// nodes, whose graph identity no longer resolves.
    pub fn to_value(&self) -> Value {
        let mut m = match self.props.to_value() {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        m.insert(
            "__labels".to_string(),
            Value::List(self.labels.iter().map(|l| Value::str(l.clone())).collect()),
        );
        m.insert("__id".to_string(), Value::Int(self.id.0 as i64));
        Value::Map(m)
    }
}

/// A relationship: a single type (its label, in the paper's terminology),
/// source and destination nodes, and a property map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelRecord {
    pub id: RelId,
    pub rel_type: String,
    pub src: NodeId,
    pub dst: NodeId,
    pub props: PropertyMap,
}

impl RelRecord {
    /// Materialize as a map value, analogous to [`NodeRecord::to_value`].
    pub fn to_value(&self) -> Value {
        let mut m = match self.props.to_value() {
            Value::Map(m) => m,
            _ => unreachable!(),
        };
        m.insert("__type".to_string(), Value::str(self.rel_type.clone()));
        m.insert("__id".to_string(), Value::Int(self.id.0 as i64));
        m.insert("__src".to_string(), Value::Int(self.src.0 as i64));
        m.insert("__dst".to_string(), Value::Int(self.dst.0 as i64));
        Value::Map(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_to_value_exposes_labels_and_props() {
        let mut n = NodeRecord::new(NodeId(5));
        n.labels.insert("Mutation".to_string());
        n.props.set("name", Value::str("Spike:D614G"));
        let v = n.to_value();
        if let Value::Map(m) = v {
            assert_eq!(m["name"], Value::str("Spike:D614G"));
            assert_eq!(m["__id"], Value::Int(5));
            assert_eq!(m["__labels"], Value::list([Value::str("Mutation")]));
        } else {
            panic!("expected map");
        }
    }
}
