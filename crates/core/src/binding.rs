//! Transition-variable binding: from a [`Delta`] to the seed rows a trigger
//! activation runs with (paper §4.2 "Transition Variables" and Table 3).
//!
//! Binding rules:
//!
//! | event               | `NEW`                     | `OLD`                              |
//! |---------------------|---------------------------|------------------------------------|
//! | node/rel creation   | the live item             | —                                  |
//! | node/rel deletion   | —                         | deletion-time record as a map      |
//! | label set           | the live node             | pre-statement record as a map      |
//! | label removal       | the live node             | pre-statement record as a map      |
//! | property set        | the live item             | pre-statement record as a map      |
//! | property removal    | the live item             | pre-statement record as a map      |
//!
//! With `FOR ALL` granularity the same values are delivered as aligned lists
//! through `NEWNODES`/`OLDNODES`/`NEWRELS`/`OLDRELS`. `REFERENCING … AS`
//! renames apply. `OLD` maps carry the *full* pre-state of the item (a
//! superset of APOC's ⟨item, property, old⟩ triples — `OLD.p` reads the old
//! value of any property, which is what the paper's
//! `WHEN OLD.whoDesignation <> NEW.whoDesignation` needs).

use crate::spec::{EventKind, Granularity, ItemKind, TransitionVar, TriggerSpec};
use pg_cypher::Row;
use pg_graph::{Delta, GraphView, ItemRef, NodeId, NodeRecord, RelId, Value};

/// Materialize a node's state (from any view) as a map value.
fn node_snapshot(view: &dyn GraphView, id: NodeId) -> Value {
    match view.node(id) {
        Some(rec) => rec.to_value(),
        None => NodeRecord::new(id).to_value(),
    }
}

/// Materialize a relationship's state as a map value (just its id when
/// the view does not hold it).
fn rel_snapshot(view: &dyn GraphView, id: RelId) -> Value {
    match view.rel(id) {
        Some(rec) => rec.to_value(),
        None => Value::map([("__id".to_string(), Value::Int(id.0 as i64))]),
    }
}

/// One trigger's activations for a delta: the seed rows of each activation
/// unit — `FOR EACH` runs condition and statement once per affected item,
/// `FOR ALL` once per statement with list bindings (paper §4.2
/// "Granularity") — and the NEW items (what a BEFORE statement may
/// condition). No units means the trigger is not activated.
pub type Activations = (Vec<Vec<Row>>, Vec<ItemRef>);

/// Bind `spec` against `delta`. `pre` is the state before the delta's ops
/// (the source of `OLD` snapshots); `post` is the current state (NEW items
/// are live references into it, and it decides the target label of
/// property events, which the delta does not record).
pub fn bind(
    spec: &TriggerSpec,
    delta: &Delta,
    pre: &dyn GraphView,
    post: &dyn GraphView,
) -> Activations {
    let label = spec.label.as_str();
    let key = spec.property.as_deref();
    let created = |new: Value| (Some(new), None);
    let deleted = |old: Value| (None, Some(old));
    let node = |id: NodeId| (Some(Value::Node(id)), Some(node_snapshot(pre, id)));
    let rel = |id: RelId| (Some(Value::Rel(id)), Some(rel_snapshot(pre, id)));
    let on_node =
        |id: NodeId, k: &str| Some(k) == key && post.node(id).is_some_and(|n| n.has_label(label));
    let on_rel =
        |id: RelId, k: &str| Some(k) == key && post.rel(id).is_some_and(|r| r.rel_type == label);
    // (NEW reference, OLD snapshot) per affected item, in delta order.
    let items: Vec<(Option<Value>, Option<Value>)> = match spec.kind() {
        None => Vec::new(),
        Some(EventKind::NodeCreated) => delta
            .created_nodes
            .iter()
            .filter(|r| r.has_label(label))
            .map(|r| created(Value::Node(r.id)))
            .collect(),
        Some(EventKind::RelCreated) => delta
            .created_rels
            .iter()
            .filter(|r| r.rel_type == label)
            .map(|r| created(Value::Rel(r.id)))
            .collect(),
        Some(EventKind::NodeDeleted) => delta
            .deleted_nodes
            .iter()
            .filter(|r| r.has_label(label))
            .map(|r| deleted(r.to_value()))
            .collect(),
        Some(EventKind::RelDeleted) => delta
            .deleted_rels
            .iter()
            .filter(|r| r.rel_type == label)
            .map(|r| deleted(r.to_value()))
            .collect(),
        Some(EventKind::LabelSet) => delta
            .assigned_labels
            .iter()
            .filter(|e| e.label == label)
            .map(|e| node(e.node))
            .collect(),
        Some(EventKind::LabelRemoved) => delta
            .removed_labels
            .iter()
            .filter(|e| e.label == label)
            .map(|e| node(e.node))
            .collect(),
        Some(EventKind::NodePropSet) => delta
            .assigned_node_props
            .iter()
            .filter(|p| on_node(p.target, &p.key))
            .map(|p| node(p.target))
            .collect(),
        Some(EventKind::NodePropRemoved) => delta
            .removed_node_props
            .iter()
            .filter(|p| on_node(p.target, &p.key))
            .map(|p| node(p.target))
            .collect(),
        Some(EventKind::RelPropSet) => delta
            .assigned_rel_props
            .iter()
            .filter(|p| on_rel(p.target, &p.key))
            .map(|p| rel(p.target))
            .collect(),
        Some(EventKind::RelPropRemoved) => delta
            .removed_rel_props
            .iter()
            .filter(|p| on_rel(p.target, &p.key))
            .map(|p| rel(p.target))
            .collect(),
    };
    if items.is_empty() {
        return Activations::default();
    }
    let new_refs = items
        .iter()
        .filter_map(|(new, _)| match new {
            Some(Value::Node(id)) => Some(ItemRef::Node(*id)),
            Some(Value::Rel(id)) => Some(ItemRef::Rel(*id)),
            _ => None,
        })
        .collect();
    let units = match spec.granularity {
        Granularity::Each => {
            let new_name = spec.var_name(TransitionVar::New);
            let old_name = spec.var_name(TransitionVar::Old);
            items
                .into_iter()
                .map(|(new, old)| {
                    let mut row = Row::with_capacity(2);
                    if let Some(n) = new {
                        row.set(&new_name, n);
                    }
                    if let Some(o) = old {
                        row.set(&old_name, o);
                    }
                    vec![row]
                })
                .collect()
        }
        Granularity::All => {
            let (new_var, old_var) = match spec.item {
                ItemKind::Node => (TransitionVar::NewNodes, TransitionVar::OldNodes),
                ItemKind::Relationship => (TransitionVar::NewRels, TransitionVar::OldRels),
            };
            let (news, olds): (Vec<_>, Vec<_>) = items.into_iter().unzip();
            let mut row = Row::with_capacity(2);
            for (var, values) in [(new_var, news), (old_var, olds)] {
                let values: Vec<Value> = values.into_iter().flatten().collect();
                if !values.is_empty() {
                    row.set(spec.var_name(var), Value::List(values));
                }
            }
            vec![vec![row]]
        }
    };
    (units, new_refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{parse_trigger_ddl, DdlStatement};
    use pg_graph::{Graph, PreStateView, PropertyMap};

    fn spec(src: &str) -> TriggerSpec {
        match parse_trigger_ddl(src).unwrap() {
            DdlStatement::CreateTrigger(s) => s,
            _ => panic!(),
        }
    }

    fn props(entries: &[(&str, Value)]) -> PropertyMap {
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// The seed rows `t` binds, flattened over its activation units.
    fn rows_of(t: &TriggerSpec, g: &Graph, delta: &Delta, ops: &[pg_graph::Op]) -> Vec<Row> {
        let pre = PreStateView::new(g, ops);
        bind(t, delta, &pre, g).0.into_iter().flatten().collect()
    }

    /// Run `stmt` inside a tx and return (graph, delta, ops).
    fn capture(
        setup: impl FnOnce(&mut Graph) -> Vec<NodeId>,
        stmt: impl FnOnce(&mut Graph, &[NodeId]),
    ) -> (Graph, Delta, Vec<pg_graph::Op>) {
        let mut g = Graph::new();
        let ids = setup(&mut g);
        g.begin().unwrap();
        let mark = g.mark();
        stmt(&mut g, &ids);
        let delta = g.delta_since(mark);
        let ops = g.ops_since(mark).to_vec();
        (g, delta, ops)
    }

    #[test]
    fn create_node_binds_new() {
        let t =
            spec("CREATE TRIGGER t AFTER CREATE ON 'Mutation' FOR EACH NODE BEGIN CREATE (:X) END");
        let (g, delta, ops) = capture(
            |_| vec![],
            |g, _| {
                g.create_node(["Mutation"], PropertyMap::new()).unwrap();
                g.create_node(["Other"], PropertyMap::new()).unwrap();
            },
        );
        let rows = rows_of(&t, &g, &delta, &ops);
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0].get("NEW"), Some(Value::Node(_))));
        assert!(rows[0].get("OLD").is_none());
    }

    #[test]
    fn delete_node_binds_old_map() {
        let t = spec("CREATE TRIGGER t AFTER DELETE ON 'P' FOR EACH NODE BEGIN CREATE (:X) END");
        let (g, delta, ops) = capture(
            |g| {
                vec![g
                    .create_node(["P"], props(&[("name", Value::str("gone"))]))
                    .unwrap()]
            },
            |g, ids| g.detach_delete_node(ids[0]).unwrap(),
        );
        let rows = rows_of(&t, &g, &delta, &ops);
        assert_eq!(rows.len(), 1);
        match rows[0].get("OLD") {
            Some(Value::Map(m)) => assert_eq!(m["name"], Value::str("gone")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(rows[0].get("NEW").is_none());
    }

    #[test]
    fn property_set_binds_old_and_new() {
        let t = spec(
            "CREATE TRIGGER t AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE BEGIN CREATE (:X) END",
        );
        let (g, delta, ops) = capture(
            |g| {
                vec![g
                    .create_node(
                        ["Lineage"],
                        props(&[("whoDesignation", Value::str("Indian"))]),
                    )
                    .unwrap()]
            },
            |g, ids| {
                g.set_node_prop(ids[0], "whoDesignation", Value::str("Delta"))
                    .unwrap();
            },
        );
        let rows = rows_of(&t, &g, &delta, &ops);
        assert_eq!(rows.len(), 1);
        // OLD.whoDesignation = Indian (pre-state map); NEW = live node with Delta
        match rows[0].get("OLD") {
            Some(Value::Map(m)) => assert_eq!(m["whoDesignation"], Value::str("Indian")),
            other => panic!("unexpected {other:?}"),
        }
        match rows[0].get("NEW") {
            Some(Value::Node(n)) => {
                assert_eq!(
                    g.node(*n)
                        .and_then(|n| n.props.get("whoDesignation"))
                        .cloned(),
                    Some(Value::str("Delta"))
                )
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn property_event_filters_by_target_label() {
        let t =
            spec("CREATE TRIGGER t AFTER SET ON 'Lineage'.'x' FOR EACH NODE BEGIN CREATE (:X) END");
        let (g, delta, ops) = capture(
            |g| {
                vec![
                    g.create_node(["Lineage"], props(&[("x", Value::Int(1))]))
                        .unwrap(),
                    g.create_node(["Other"], props(&[("x", Value::Int(1))]))
                        .unwrap(),
                ]
            },
            |g, ids| {
                g.set_node_prop(ids[0], "x", Value::Int(2)).unwrap();
                g.set_node_prop(ids[1], "x", Value::Int(2)).unwrap();
            },
        );
        assert_eq!(rows_of(&t, &g, &delta, &ops).len(), 1);
    }

    #[test]
    fn label_set_event() {
        let t = spec("CREATE TRIGGER t AFTER SET ON 'Flagged' FOR EACH NODE BEGIN CREATE (:X) END");
        let (g, delta, ops) = capture(
            |g| vec![g.create_node(["P"], PropertyMap::new()).unwrap()],
            |g, ids| {
                g.set_label(ids[0], "Flagged").unwrap();
            },
        );
        let rows = rows_of(&t, &g, &delta, &ops);
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0].get("NEW"), Some(Value::Node(_))));
        // OLD snapshot shows the pre-state without the label
        match rows[0].get("OLD") {
            Some(Value::Map(m)) => {
                assert_eq!(m["__labels"], Value::list([Value::str("P")]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_granularity_builds_lists() {
        let t = spec(
            "CREATE TRIGGER t AFTER CREATE ON 'IcuPatient' FOR ALL NODES BEGIN CREATE (:X) END",
        );
        let (g, delta, ops) = capture(
            |_| vec![],
            |g, _| {
                for _ in 0..3 {
                    g.create_node(["IcuPatient"], PropertyMap::new()).unwrap();
                }
            },
        );
        let rows = rows_of(&t, &g, &delta, &ops);
        assert_eq!(rows.len(), 1);
        match rows[0].get("NEWNODES") {
            Some(Value::List(items)) => assert_eq!(items.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn referencing_renames_bindings() {
        let t = spec(
            "CREATE TRIGGER t AFTER CREATE ON 'P'
             REFERENCING NEWNODES AS admitted
             FOR ALL NODES BEGIN CREATE (:X) END",
        );
        let (g, delta, ops) = capture(
            |_| vec![],
            |g, _| {
                g.create_node(["P"], PropertyMap::new()).unwrap();
            },
        );
        let rows = rows_of(&t, &g, &delta, &ops);
        assert!(rows[0].get("admitted").is_some());
        assert!(rows[0].get("NEWNODES").is_none());
    }

    #[test]
    fn rel_create_and_prop_events() {
        let t_create = spec(
            "CREATE TRIGGER t AFTER CREATE ON 'BelongsTo' FOR EACH RELATIONSHIP BEGIN CREATE (:X) END",
        );
        let t_set = spec(
            "CREATE TRIGGER s AFTER SET ON 'BelongsTo'.'conf' FOR EACH RELATIONSHIP BEGIN CREATE (:X) END",
        );
        let (g, delta, ops) = capture(
            |g| {
                let a = g.create_node(["Sequence"], PropertyMap::new()).unwrap();
                let b = g.create_node(["Lineage"], PropertyMap::new()).unwrap();
                vec![a, b]
            },
            |g, ids| {
                let r = g
                    .create_rel(ids[0], ids[1], "BelongsTo", PropertyMap::new())
                    .unwrap();
                let _ = r;
            },
        );
        assert_eq!(rows_of(&t_create, &g, &delta, &ops).len(), 1);
        assert_eq!(rows_of(&t_set, &g, &delta, &ops).len(), 0);

        // now a property set on the existing rel
        let (g2, delta2, ops2) = capture(
            |g| {
                let a = g.create_node(["Sequence"], PropertyMap::new()).unwrap();
                let b = g.create_node(["Lineage"], PropertyMap::new()).unwrap();
                g.create_rel(a, b, "BelongsTo", PropertyMap::new()).unwrap();
                vec![]
            },
            |g, _| {
                let r = g.all_rel_ids()[0];
                g.set_rel_prop(r, "conf", Value::Float(0.9)).unwrap();
            },
        );
        assert_eq!(rows_of(&t_set, &g2, &delta2, &ops2).len(), 1);
        assert_eq!(rows_of(&t_create, &g2, &delta2, &ops2).len(), 0);
    }

    #[test]
    fn unaffected_trigger_binds_no_units() {
        let t = spec("CREATE TRIGGER t AFTER CREATE ON 'Nope' FOR ALL NODES BEGIN CREATE (:X) END");
        let (g, delta, ops) = capture(
            |_| vec![],
            |g, _| {
                g.create_node(["P"], PropertyMap::new()).unwrap();
            },
        );
        assert!(rows_of(&t, &g, &delta, &ops).is_empty());
    }
}
