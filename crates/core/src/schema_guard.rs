//! Schema enforcement at commit time.
//!
//! PG-Schema (paper §2, §6.1) defines *what* a conformant graph looks like;
//! PG-Triggers define *reactions*. This module connects them: a session may
//! register a [`GraphType`], and every commit then validates the
//! transaction's net effect against it — conceptually an implicit,
//! highest-priority `ONCOMMIT` integrity trigger (the classic "triggers
//! subsume constraints" reading of active databases). A violation rolls the
//! transaction back, exactly like a failing `ONCOMMIT` trigger.
//!
//! The cost of a check is proportional to the transaction, not the graph.
//! The graph type is compiled once, when the guard is built; a commit then
//! applies the per-item rules of [`CompiledGraphType`] — the same functions
//! [`pg_schema::validate_graph`] applies to every item — to the items the
//! transaction delta can have invalidated, and to nothing else:
//!
//! * **nodes** — created, label-assigned/removed, property-assigned/removed
//!   (typing, required / mistyped / undeclared properties);
//! * **relationships** — created, property-assigned/removed, *and every
//!   relationship incident to a label-changed node*: a relabel changes the
//!   node's type, and with it the endpoint signature of edges the
//!   transaction never touched;
//! * **keys** — nodes created, relabelled, or with a key column written:
//!   the other holders of the node's key are found by an equality probe on
//!   the `KEY` index [`crate::Session::set_schema`] defines on `(declaring
//!   label, key column)`, falling back to a scan of one label's extent when
//!   that index has been dropped or the value is one an index cannot answer
//!   for (absent, unkeyable). Key spaces are per resolved type: a `Patient`
//!   and an `IcuPatient` may share an `ssn`, two `IcuPatient`s may not.
//!
//! The delta is the transaction's *net* effect, so intermediate states are
//! never checked, items that no longer exist are skipped, and deletions need
//! no check at all (a node cannot be deleted while relationships hold on to
//! it, and rules constrain existing items only). Only violations involving
//! those items are reported: a violation that pre-exists elsewhere in the
//! graph does not block an unrelated commit. Violations are reported in
//! node-id, then relationship-id order.

use pg_graph::{Delta, Direction, Graph, GraphView, NodeId, RelId};
use pg_schema::{CompiledGraphType, GraphType, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A schema-violation commit failure.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaViolation {
    pub violations: Vec<Violation>,
}

impl fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema violation(s):")?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// The schema guard attached to a session: a graph type and its compiled
/// form.
#[derive(Debug)]
pub struct SchemaGuard {
    graph_type: GraphType,
    compiled: CompiledGraphType,
}

impl SchemaGuard {
    pub fn new(graph_type: GraphType) -> Self {
        SchemaGuard {
            compiled: CompiledGraphType::new(&graph_type),
            graph_type,
        }
    }

    /// The graph type this guard enforces.
    pub fn into_graph_type(self) -> GraphType {
        self.graph_type
    }

    /// Check the transaction delta against the schema. Returns all
    /// violations attributable to the transaction.
    pub fn check(&self, graph: &Graph, delta: &Delta) -> Result<(), SchemaViolation> {
        let rules = &self.compiled;
        let created = delta.created_nodes.iter().map(|n| n.id);
        let relabelled: BTreeSet<NodeId> = (delta.assigned_labels.iter())
            .chain(&delta.removed_labels)
            .map(|ev| ev.node)
            .collect();
        let written = (delta.assigned_node_props.iter().map(|p| (p.target, &p.key)))
            .chain(delta.removed_node_props.iter().map(|p| (p.target, &p.key)));

        // A node's own rules read its labels and properties; its key is
        // (type, key columns), so only a change to one of those can
        // introduce a duplicate.
        let mut nodes: BTreeSet<NodeId> = created.chain(relabelled.iter().copied()).collect();
        let mut keyed = nodes.clone();
        for (id, column) in written {
            nodes.insert(id);
            if graph
                .node(id)
                .is_some_and(|n| rules.is_key_column(n, column))
            {
                keyed.insert(id);
            }
        }
        // A relationship's rules read its own properties and the *types*
        // of its endpoints.
        let mut rels: BTreeSet<RelId> = (delta.created_rels.iter().map(|r| r.id))
            .chain(delta.assigned_rel_props.iter().map(|p| p.target))
            .chain(delta.removed_rel_props.iter().map(|p| p.target))
            .collect();
        for n in &relabelled {
            for dir in [Direction::Out, Direction::In] {
                rels.extend(graph.hops(*n, dir, None).iter().map(|&(rid, _)| rid));
            }
        }

        // The delta is a net effect: an id it names may be gone by now.
        let mut by_node: BTreeMap<NodeId, Vec<Violation>> = BTreeMap::new();
        for node in nodes.iter().filter_map(|id| graph.node(*id)) {
            rules.check_node(node, by_node.entry(node.id).or_default());
        }
        for node in keyed.iter().filter_map(|id| graph.node(*id)) {
            for (duplicate, violation) in rules.check_key(graph, node) {
                // Two touched holders of one key report the same pair.
                let at = by_node.entry(duplicate).or_default();
                if !at.contains(&violation) {
                    at.push(violation);
                }
            }
        }
        let mut violations: Vec<Violation> = by_node.into_values().flatten().collect();
        for rel in rels.iter().filter_map(|id| graph.rel(*id)) {
            rules.check_rel(graph, rel, &mut violations);
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(SchemaViolation { violations })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_schema::parse_graph_type;

    fn simple_type() -> GraphType {
        parse_graph_type(
            "CREATE GRAPH TYPE G STRICT {
               (PType: P {name STRING KEY}),
               (QType: Q {}),
               (:PType)-[EType: Knows]->(:QType)
             }",
        )
        .unwrap()
    }

    #[test]
    fn incremental_check_blames_transaction_items() {
        let guard = SchemaGuard::new(simple_type());
        let mut g = Graph::new();
        g.begin().unwrap();
        let mark = g.mark();
        g.create_node(["Stranger"], pg_graph::PropertyMap::new())
            .unwrap();
        let delta = g.delta_since(mark);
        let err = guard.check(&g, &delta).unwrap_err();
        assert!(matches!(err.violations[0], Violation::UntypedNode { .. }));
        assert!(err.to_string().contains("schema violation"));
    }

    #[test]
    fn conformant_delta_passes() {
        let guard = SchemaGuard::new(simple_type());
        let mut g = Graph::new();
        g.begin().unwrap();
        let mark = g.mark();
        let props: pg_graph::PropertyMap = [("name".to_string(), pg_graph::Value::str("x"))]
            .into_iter()
            .collect();
        let p = g.create_node(["P"], props).unwrap();
        let q = g.create_node(["Q"], pg_graph::PropertyMap::new()).unwrap();
        g.create_rel(p, q, "Knows", pg_graph::PropertyMap::new())
            .unwrap();
        let delta = g.delta_since(mark);
        assert!(guard.check(&g, &delta).is_ok());
    }

    #[test]
    fn empty_delta_is_free() {
        let guard = SchemaGuard::new(simple_type());
        let g = Graph::new();
        assert!(guard.check(&g, &Delta::default()).is_ok());
    }

    #[test]
    fn key_duplicates_detected() {
        let guard = SchemaGuard::new(simple_type());
        let mut g = Graph::new();
        let props: pg_graph::PropertyMap = [("name".to_string(), pg_graph::Value::str("dup"))]
            .into_iter()
            .collect();
        g.create_node(["P"], props.clone()).unwrap();
        g.begin().unwrap();
        let mark = g.mark();
        g.create_node(["P"], props).unwrap();
        let delta = g.delta_since(mark);
        let err = guard.check(&g, &delta).unwrap_err();
        assert!(matches!(err.violations[0], Violation::DuplicateKey { .. }));
    }
}
