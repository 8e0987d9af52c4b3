//! APOC trigger transition metadata (paper Table 2 / Table 3).
//!
//! Neo4j APOC triggers receive the transaction's changes through implicit
//! parameters: `$createdNodes`, `$deletedRels`, `$assignedLabels`,
//! `$assignedNodeProperties` (⟨node, property, old, new⟩ quadruples grouped
//! by property key), and so on. This module materializes exactly those
//! structures from a [`Delta`].
//!
//! Faithfulness notes (§5.1):
//! * `assignedLabels` / `assignedNodeProperties` **include** the labels and
//!   initial properties of nodes created in the same transaction (APOC does
//!   not separate creation from assignment) — we use the delta's raw views;
//! * deleted items are delivered as maps (their node identity is gone), with
//!   labels under `__labels` and the relationship type under `__type`.

use pg_cypher::Params;
use pg_graph::{Delta, LabelEvent, NodeId, RelId, Value};
use std::collections::BTreeMap;

/// Build the full APOC parameter set for a transaction delta.
pub fn apoc_params(delta: &Delta) -> Params {
    let label = |ev: &LabelEvent| (ev.label.clone(), Value::Node(ev.node));
    let node = |id: NodeId| ("node", Value::Node(id));
    let rel = |id: RelId| ("relationship", Value::Rel(id));
    let (assigned_nodes, assigned_rels) = (
        delta.raw_assigned_node_props(),
        delta.raw_assigned_rel_props(),
    );
    let params = [
        (
            "createdNodes",
            Value::list(delta.created_nodes.iter().map(|n| Value::Node(n.id))),
        ),
        (
            "createdRelationships",
            Value::list(delta.created_rels.iter().map(|r| Value::Rel(r.id))),
        ),
        (
            "deletedNodes",
            Value::list(delta.deleted_nodes.iter().map(|n| n.to_value())),
        ),
        (
            "deletedRelationships",
            Value::list(delta.deleted_rels.iter().map(|r| r.to_value())),
        ),
        (
            "assignedLabels",
            grouped(delta.raw_assigned_labels().iter().map(label)),
        ),
        (
            "removedLabels",
            grouped(delta.removed_labels.iter().map(label)),
        ),
        (
            "assignedNodeProperties",
            grouped(
                assigned_nodes
                    .iter()
                    .map(|pa| prop_event(node(pa.target), &pa.key, &pa.old, Some(&pa.new))),
            ),
        ),
        (
            "assignedRelProperties",
            grouped(
                assigned_rels
                    .iter()
                    .map(|pa| prop_event(rel(pa.target), &pa.key, &pa.old, Some(&pa.new))),
            ),
        ),
        (
            "removedNodeProperties",
            grouped(
                delta
                    .removed_node_props
                    .iter()
                    .map(|pr| prop_event(node(pr.target), &pr.key, &pr.old, None)),
            ),
        ),
        (
            "removedRelProperties",
            grouped(
                delta
                    .removed_rel_props
                    .iter()
                    .map(|pr| prop_event(rel(pr.target), &pr.key, &pr.old, None)),
            ),
        ),
    ];
    params
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// `{key: [value, …]}` over `(key, value)` pairs, in pair order per key.
fn grouped(pairs: impl Iterator<Item = (String, Value)>) -> Value {
    let mut groups: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for (key, value) in pairs {
        groups.entry(key).or_default().push(value);
    }
    Value::map(groups.into_iter().map(|(k, v)| (k, Value::List(v))))
}

/// A property event `{node|relationship, key, old[, new]}`, keyed by its
/// property.
fn prop_event(
    (field, item): (&str, Value),
    key: &str,
    old: &Value,
    new: Option<&Value>,
) -> (String, Value) {
    let fields = [
        (field, item),
        ("key", Value::str(key)),
        ("old", old.clone()),
    ];
    let fields = fields.into_iter().chain(new.map(|v| ("new", v.clone())));
    (
        key.to_string(),
        Value::map(fields.map(|(k, v)| (k.to_string(), v))),
    )
}

/// The names of all APOC transition parameters (Table 2).
pub const APOC_PARAM_NAMES: [&str; 10] = [
    "createdNodes",
    "createdRelationships",
    "deletedNodes",
    "deletedRelationships",
    "assignedLabels",
    "removedLabels",
    "assignedNodeProperties",
    "assignedRelProperties",
    "removedNodeProperties",
    "removedRelProperties",
];

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::{Graph, PropertyMap};

    fn props(entries: &[(&str, Value)]) -> PropertyMap {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn all_ten_parameters_present() {
        let p = apoc_params(&Delta::default());
        for name in APOC_PARAM_NAMES {
            assert!(p.contains_key(name), "missing {name}");
        }
    }

    #[test]
    fn created_nodes_and_raw_assigned_included() {
        let mut g = Graph::new();
        g.begin().unwrap();
        let mark = g.mark();
        g.create_node(["L"], props(&[("x", Value::Int(1))]))
            .unwrap();
        let delta = g.delta_since(mark);
        let p = apoc_params(&delta);
        assert_eq!(p["createdNodes"].as_list().unwrap().len(), 1);
        // APOC also reports the creation's labels and properties as assigned
        match &p["assignedLabels"] {
            Value::Map(m) => assert_eq!(m["L"].as_list().unwrap().len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        match &p["assignedNodeProperties"] {
            Value::Map(m) => {
                let quad = &m["x"].as_list().unwrap()[0];
                match quad {
                    Value::Map(q) => {
                        assert_eq!(q["old"], Value::Null);
                        assert_eq!(q["new"], Value::Int(1));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deleted_nodes_are_maps_with_labels() {
        let mut g = Graph::new();
        let n = g
            .create_node(["Gone"], props(&[("name", Value::str("x"))]))
            .unwrap();
        g.begin().unwrap();
        let mark = g.mark();
        g.detach_delete_node(n).unwrap();
        let p = apoc_params(&g.delta_since(mark));
        match &p["deletedNodes"].as_list().unwrap()[0] {
            Value::Map(m) => {
                assert_eq!(m["name"], Value::str("x"));
                assert_eq!(m["__labels"], Value::list([Value::str("Gone")]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn assigned_props_quadruples() {
        let mut g = Graph::new();
        let n = g
            .create_node(["L"], props(&[("v", Value::Int(1))]))
            .unwrap();
        g.begin().unwrap();
        let mark = g.mark();
        g.set_node_prop(n, "v", Value::Int(2)).unwrap();
        g.remove_node_prop(n, "v").unwrap();
        let p = apoc_params(&g.delta_since(mark));
        // net effect: removal with old = 1
        match &p["removedNodeProperties"] {
            Value::Map(m) => {
                let triple = &m["v"].as_list().unwrap()[0];
                match triple {
                    Value::Map(t) => assert_eq!(t["old"], Value::Int(1)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
