//! Change deltas: the normalized net effect of an operation-log slice.
//!
//! A [`Delta`] is the graph-database analogue of SQL3 transition tables, and
//! is shaped after the transition metadata surfaced by Neo4j APOC triggers
//! (paper Table 2: `createdNodes`, `deletedRels`,
//! `assignedNodeProperties` as ⟨node, property, old, new⟩ quadruples, …) and
//! Memgraph triggers (paper Table 4). The PG-Trigger engine derives trigger
//! events from deltas; the APOC and Memgraph emulation layers re-expose the
//! same information under their respective variable names.
//!
//! Normalization rules (net effect over the slice):
//! * an item created then deleted within the slice disappears entirely;
//! * repeated property assignments coalesce to ⟨first old, last new⟩;
//! * a property set then removed coalesces to a removal of the original
//!   value (or to nothing when it did not previously exist);
//! * label set/remove pairs cancel out;
//! * label/property changes on items created within the slice are folded
//!   into the creation (the creation records carry final state) — except
//!   that the raw, uncoalesced views needed by the APOC emulation remain
//!   available via [`Delta::raw_assigned_labels`] etc.

use crate::ids::{NodeId, RelId};
use crate::op::Op;
use crate::props::PropertyMap;
use crate::record::{NodeRecord, RelRecord};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A label set/removed event: the affected node and the label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelEvent {
    pub node: NodeId,
    pub label: String,
}

/// A property assignment event: ⟨target, property, old, new⟩ (paper Table 2,
/// `assignedNodeProperties` / `assignedRelProperties`). `old` is
/// `Value::Null` when the property did not previously exist.
#[derive(Debug, Clone, PartialEq)]
pub struct PropAssign<Id> {
    pub target: Id,
    pub key: String,
    pub old: Value,
    pub new: Value,
}

/// A property removal event: ⟨target, property, old⟩ (paper Table 2,
/// `removedNodeProperties` / `removedRelProperties`).
#[derive(Debug, Clone, PartialEq)]
pub struct PropRemove<Id> {
    pub target: Id,
    pub key: String,
    pub old: Value,
}

/// The normalized net change of a statement or transaction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Nodes created (and still alive at the end of the slice), with their
    /// state **at the end of the slice**.
    pub created_nodes: Vec<NodeRecord>,
    /// Nodes deleted (that existed before the slice), with their state at
    /// deletion time — the source for `OLD` transition values.
    pub deleted_nodes: Vec<NodeRecord>,
    /// Relationships created and still alive.
    pub created_rels: Vec<RelRecord>,
    /// Relationships deleted (that pre-existed).
    pub deleted_rels: Vec<RelRecord>,
    /// Labels set on **pre-existing** nodes (net).
    pub assigned_labels: Vec<LabelEvent>,
    /// Labels removed from pre-existing nodes (net).
    pub removed_labels: Vec<LabelEvent>,
    /// Properties assigned on pre-existing nodes (net, coalesced).
    pub assigned_node_props: Vec<PropAssign<NodeId>>,
    /// Properties assigned on pre-existing relationships.
    pub assigned_rel_props: Vec<PropAssign<RelId>>,
    /// Properties removed from pre-existing nodes.
    pub removed_node_props: Vec<PropRemove<NodeId>>,
    /// Properties removed from pre-existing relationships.
    pub removed_rel_props: Vec<PropRemove<RelId>>,
}

/// `(item, key) → (initial value, final value)` over a slice; `None` = absent.
type PropStates<Id> = BTreeMap<(Id, String), (Option<Value>, Option<Value>)>;

/// Record one property op: the first op on a key fixes its initial value,
/// every op its final one.
fn note_prop<Id: Ord>(
    states: &mut PropStates<Id>,
    id: Id,
    key: &str,
    old: Option<Value>,
    new: Option<Value>,
) {
    states.entry((id, key.to_string())).or_insert((old, None)).1 = new;
}

/// The net assignments and removals of a slice's property states.
fn net_props<Id>(states: PropStates<Id>) -> (Vec<PropAssign<Id>>, Vec<PropRemove<Id>>) {
    let (mut assigned, mut removed) = (Vec::new(), Vec::new());
    for ((target, key), (initial, fin)) in states {
        match (initial, fin) {
            (init, Some(new)) => assigned.push(PropAssign {
                target,
                key,
                old: init.unwrap_or(Value::Null),
                new,
            }),
            (Some(old), None) => removed.push(PropRemove { target, key, old }),
            (None, None) => {}
        }
    }
    (assigned, removed)
}

/// `assigned` plus the initial properties of the created items as
/// assignments from `Null`.
fn with_initial_props<'a, Id: Copy>(
    assigned: &[PropAssign<Id>],
    created: impl Iterator<Item = (Id, &'a PropertyMap)>,
) -> Vec<PropAssign<Id>> {
    let mut out = assigned.to_vec();
    for (target, props) in created {
        out.extend(props.iter().map(|(k, v)| PropAssign {
            target,
            key: k.clone(),
            old: Value::Null,
            new: v.clone(),
        }));
    }
    out
}

impl Delta {
    /// `true` when the slice had no net effect.
    pub fn is_empty(&self) -> bool {
        self.created_nodes.is_empty()
            && self.deleted_nodes.is_empty()
            && self.created_rels.is_empty()
            && self.deleted_rels.is_empty()
            && self.assigned_labels.is_empty()
            && self.removed_labels.is_empty()
            && self.assigned_node_props.is_empty()
            && self.assigned_rel_props.is_empty()
            && self.removed_node_props.is_empty()
            && self.removed_rel_props.is_empty()
    }

    /// Label assignments **including** the labels of created nodes. This is
    /// the view Neo4j APOC exposes (`$assignedLabels` covers node creation
    /// too); the PG-Trigger engine instead uses the net `assigned_labels`.
    pub fn raw_assigned_labels(&self) -> Vec<LabelEvent> {
        let mut out = self.assigned_labels.clone();
        for n in &self.created_nodes {
            for l in &n.labels {
                out.push(LabelEvent {
                    node: n.id,
                    label: l.clone(),
                });
            }
        }
        out
    }

    /// Node property assignments including the initial properties of created
    /// nodes (APOC view; `old` is `Null` for those).
    pub fn raw_assigned_node_props(&self) -> Vec<PropAssign<NodeId>> {
        let created = self.created_nodes.iter().map(|n| (n.id, &n.props));
        with_initial_props(&self.assigned_node_props, created)
    }

    /// Relationship property assignments including initial properties of
    /// created relationships (APOC view).
    pub fn raw_assigned_rel_props(&self) -> Vec<PropAssign<RelId>> {
        let created = self.created_rels.iter().map(|r| (r.id, &r.props));
        with_initial_props(&self.assigned_rel_props, created)
    }

    /// Normalize an op-log slice into its net delta.
    ///
    /// `final_nodes` resolves the end-of-slice state of created nodes (they
    /// may have been modified after creation); it is fed by the store.
    pub fn from_ops(
        ops: &[Op],
        final_node: impl Fn(NodeId) -> Option<NodeRecord>,
        final_rel: impl Fn(RelId) -> Option<RelRecord>,
    ) -> Delta {
        let mut created_nodes: Vec<NodeId> = Vec::new();
        let mut created_in_slice: BTreeSet<NodeId> = BTreeSet::new();
        let mut deleted_nodes: Vec<NodeRecord> = Vec::new();
        let mut created_rels: Vec<RelId> = Vec::new();
        let mut rcreated_in_slice: BTreeSet<RelId> = BTreeSet::new();
        let mut deleted_rels: Vec<RelRecord> = Vec::new();

        // (node, label) -> (was_present_initially, is_present_finally)
        let mut label_state: BTreeMap<(NodeId, String), (bool, bool)> = BTreeMap::new();
        let mut nprop: PropStates<NodeId> = BTreeMap::new();
        let mut rprop: PropStates<RelId> = BTreeMap::new();

        for op in ops {
            match op {
                Op::CreateNode { record } => {
                    created_nodes.push(record.id);
                    created_in_slice.insert(record.id);
                }
                Op::DeleteNode { record } => {
                    if created_in_slice.remove(&record.id) {
                        created_nodes.retain(|&n| n != record.id);
                    } else {
                        deleted_nodes.push(record.clone());
                    }
                    // Drop pending label/prop state of the deleted node.
                    label_state.retain(|(n, _), _| *n != record.id);
                    nprop.retain(|(n, _), _| *n != record.id);
                }
                Op::CreateRel { record } => {
                    created_rels.push(record.id);
                    rcreated_in_slice.insert(record.id);
                }
                Op::DeleteRel { record } => {
                    if rcreated_in_slice.remove(&record.id) {
                        created_rels.retain(|&r| r != record.id);
                    } else {
                        deleted_rels.push(record.clone());
                    }
                    rprop.retain(|(r, _), _| *r != record.id);
                }
                Op::SetLabel { node, label } => {
                    if !created_in_slice.contains(node) {
                        let e = label_state
                            .entry((*node, label.clone()))
                            .or_insert((false, false));
                        e.1 = true;
                    }
                }
                Op::RemoveLabel { node, label } => {
                    if !created_in_slice.contains(node) {
                        let e = label_state
                            .entry((*node, label.clone()))
                            .or_insert((true, true));
                        e.1 = false;
                    }
                }
                Op::SetNodeProp {
                    node,
                    key,
                    old,
                    new,
                } => {
                    if !created_in_slice.contains(node) {
                        note_prop(&mut nprop, *node, key, old.clone(), Some(new.clone()));
                    }
                }
                Op::RemoveNodeProp { node, key, old } => {
                    if !created_in_slice.contains(node) {
                        note_prop(&mut nprop, *node, key, Some(old.clone()), None);
                    }
                }
                Op::SetRelProp { rel, key, old, new } => {
                    if !rcreated_in_slice.contains(rel) {
                        note_prop(&mut rprop, *rel, key, old.clone(), Some(new.clone()));
                    }
                }
                Op::RemoveRelProp { rel, key, old } => {
                    if !rcreated_in_slice.contains(rel) {
                        note_prop(&mut rprop, *rel, key, Some(old.clone()), None);
                    }
                }
            }
        }

        let mut delta = Delta {
            created_nodes: created_nodes.into_iter().filter_map(final_node).collect(),
            deleted_nodes,
            created_rels: created_rels.into_iter().filter_map(final_rel).collect(),
            deleted_rels,
            ..Delta::default()
        };
        for ((node, label), (was, is)) in label_state {
            match (was, is) {
                (false, true) => delta.assigned_labels.push(LabelEvent { node, label }),
                (true, false) => delta.removed_labels.push(LabelEvent { node, label }),
                _ => {}
            }
        }
        (delta.assigned_node_props, delta.removed_node_props) = net_props(nprop);
        (delta.assigned_rel_props, delta.removed_rel_props) = net_props(rprop);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_rec(id: u64, labels: &[&str]) -> NodeRecord {
        let mut n = NodeRecord::new(NodeId(id));
        for l in labels {
            n.labels.insert(l.to_string());
        }
        n
    }

    fn no_node(_: NodeId) -> Option<NodeRecord> {
        None
    }
    fn no_rel(_: RelId) -> Option<RelRecord> {
        None
    }

    #[test]
    fn create_then_delete_cancels() {
        let rec = node_rec(1, &["A"]);
        let ops = vec![
            Op::CreateNode {
                record: rec.clone(),
            },
            Op::DeleteNode { record: rec },
        ];
        let d = Delta::from_ops(&ops, no_node, no_rel);
        assert!(d.is_empty());
    }

    #[test]
    fn delete_then_recreate_is_both() {
        // Deleting a pre-existing node and creating a fresh one are separate
        // events even in the same statement.
        let old = node_rec(1, &["A"]);
        let new = node_rec(2, &["A"]);
        let ops = vec![
            Op::DeleteNode { record: old },
            Op::CreateNode {
                record: new.clone(),
            },
        ];
        let d = Delta::from_ops(&ops, |id| (id == NodeId(2)).then(|| new.clone()), no_rel);
        assert_eq!(d.deleted_nodes.len(), 1);
        assert_eq!(d.created_nodes.len(), 1);
    }

    #[test]
    fn prop_assignments_coalesce() {
        let ops = vec![
            Op::SetNodeProp {
                node: NodeId(1),
                key: "x".into(),
                old: Some(Value::Int(0)),
                new: Value::Int(1),
            },
            Op::SetNodeProp {
                node: NodeId(1),
                key: "x".into(),
                old: Some(Value::Int(1)),
                new: Value::Int(2),
            },
        ];
        let d = Delta::from_ops(&ops, no_node, no_rel);
        assert_eq!(d.assigned_node_props.len(), 1);
        let pa = &d.assigned_node_props[0];
        assert_eq!(pa.old, Value::Int(0));
        assert_eq!(pa.new, Value::Int(2));
    }

    #[test]
    fn set_then_remove_becomes_removal() {
        let ops = vec![
            Op::SetNodeProp {
                node: NodeId(1),
                key: "x".into(),
                old: Some(Value::Int(0)),
                new: Value::Int(1),
            },
            Op::RemoveNodeProp {
                node: NodeId(1),
                key: "x".into(),
                old: Value::Int(1),
            },
        ];
        let d = Delta::from_ops(&ops, no_node, no_rel);
        assert!(d.assigned_node_props.is_empty());
        assert_eq!(d.removed_node_props.len(), 1);
        assert_eq!(d.removed_node_props[0].old, Value::Int(0));
    }

    #[test]
    fn fresh_set_then_remove_vanishes() {
        let ops = vec![
            Op::SetNodeProp {
                node: NodeId(1),
                key: "x".into(),
                old: None,
                new: Value::Int(1),
            },
            Op::RemoveNodeProp {
                node: NodeId(1),
                key: "x".into(),
                old: Value::Int(1),
            },
        ];
        let d = Delta::from_ops(&ops, no_node, no_rel);
        assert!(d.is_empty());
    }

    #[test]
    fn label_set_remove_cancels() {
        let ops = vec![
            Op::SetLabel {
                node: NodeId(1),
                label: "L".into(),
            },
            Op::RemoveLabel {
                node: NodeId(1),
                label: "L".into(),
            },
        ];
        let d = Delta::from_ops(&ops, no_node, no_rel);
        assert!(d.is_empty());
    }

    #[test]
    fn events_on_created_nodes_fold_into_creation() {
        let mut final_rec = node_rec(1, &["A", "B"]);
        final_rec.props.set("x", Value::Int(2));
        let ops = vec![
            Op::CreateNode {
                record: node_rec(1, &["A"]),
            },
            Op::SetLabel {
                node: NodeId(1),
                label: "B".into(),
            },
            Op::SetNodeProp {
                node: NodeId(1),
                key: "x".into(),
                old: None,
                new: Value::Int(2),
            },
        ];
        let d = Delta::from_ops(&ops, |_| Some(final_rec.clone()), no_rel);
        assert_eq!(d.created_nodes.len(), 1);
        assert!(d.assigned_labels.is_empty());
        assert!(d.assigned_node_props.is_empty());
        assert!(d.created_nodes[0].has_label("B"));
    }

    #[test]
    fn raw_views_include_created_items() {
        let mut rec = node_rec(1, &["A"]);
        rec.props.set("x", Value::Int(1));
        let ops = vec![Op::CreateNode {
            record: rec.clone(),
        }];
        let d = Delta::from_ops(&ops, |_| Some(rec.clone()), no_rel);
        assert!(d.assigned_labels.is_empty());
        assert_eq!(d.raw_assigned_labels().len(), 1);
        assert_eq!(d.raw_assigned_node_props().len(), 1);
        assert_eq!(d.raw_assigned_node_props()[0].old, Value::Null);
    }

    #[test]
    fn prop_map_helper_behaves() {
        let mut pm = PropertyMap::new();
        pm.set("a", Value::Int(1));
        assert_eq!(pm.get("a"), Some(&Value::Int(1)));
    }
}
