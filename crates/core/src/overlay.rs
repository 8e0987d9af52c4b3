//! The view `BEFORE` trigger conditions evaluate against.
//!
//! SQL3 `BEFORE` semantics adapted to graphs (paper §4.2): the condition
//! observes the database as it was **before** the activating statement —
//! scans (`MATCH` over labels, full scans, adjacency) see the pre-state —
//! while the statement's NEW items expose their proposed (post-statement)
//! record state through **direct reference**: that is what
//! `NEW.icuBeds < 0` must read. This mirrors relational BEFORE triggers,
//! where table scans do not see the incoming row but the `NEW` record
//! variable does.

use pg_graph::{
    Direction, Graph, GraphView, Hop, IndexProbe, IndexScope, NodeId, NodeRecord, PreStateView,
    ProbeMode, Probed, RelId, RelRecord,
};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Pre-statement state overlaid with the post-state of the NEW items.
pub struct NewStateOverlay<'g> {
    pre: PreStateView<'g>,
    post: &'g Graph,
    new_nodes: BTreeSet<NodeId>,
    new_rels: BTreeSet<RelId>,
}

impl<'g> NewStateOverlay<'g> {
    pub fn new(
        pre: PreStateView<'g>,
        post: &'g Graph,
        new_items: impl IntoIterator<Item = pg_graph::ItemRef>,
    ) -> Self {
        let mut new_nodes = BTreeSet::new();
        let mut new_rels = BTreeSet::new();
        for item in new_items {
            match item {
                pg_graph::ItemRef::Node(n) => {
                    new_nodes.insert(n);
                }
                pg_graph::ItemRef::Rel(r) => {
                    new_rels.insert(r);
                }
            }
        }
        NewStateOverlay {
            pre,
            post,
            new_nodes,
            new_rels,
        }
    }
}

impl GraphView for NewStateOverlay<'_> {
    fn node(&self, id: NodeId) -> Option<&NodeRecord> {
        if self.new_nodes.contains(&id) {
            self.post.node(id)
        } else {
            self.pre.node(id)
        }
    }

    fn rel(&self, id: RelId) -> Option<&RelRecord> {
        if self.new_rels.contains(&id) {
            self.post.rel(id)
        } else {
            self.pre.rel(id)
        }
    }

    // Scans observe the pre-statement state only (SQL-style: a BEFORE
    // INSERT trigger's table scans do not see the incoming row). The same
    // goes for index probes, materializing or count-only: they pass
    // through to the pre-state view, which answers them from the base
    // graph's indexes corrected by the statement overlay.

    fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        self.pre.nodes_with_label(label)
    }

    fn label_cardinality(&self, label: &str) -> usize {
        self.pre.label_cardinality(label)
    }

    fn all_node_ids(&self) -> Vec<NodeId> {
        self.pre.all_node_ids()
    }

    fn all_rel_ids(&self) -> Vec<RelId> {
        self.pre.all_rel_ids()
    }

    fn hops(&self, node: NodeId, dir: Direction, rel_type: Option<&str>) -> Cow<'_, [Hop]> {
        self.pre.hops(node, dir, rel_type)
    }

    fn rels_with_type(&self, rel_type: &str) -> Vec<RelId> {
        self.pre.rels_with_type(rel_type)
    }

    fn rel_type_cardinality(&self, rel_type: &str) -> usize {
        self.pre.rel_type_cardinality(rel_type)
    }

    fn node_count_estimate(&self) -> usize {
        self.pre.node_count_estimate()
    }

    fn rel_count_estimate(&self) -> usize {
        self.pre.rel_count_estimate()
    }

    fn index_defs(&self, scope: IndexScope<'_>) -> Vec<Arc<[String]>> {
        self.pre.index_defs(scope)
    }

    fn probe(
        &self,
        scope: IndexScope<'_>,
        probe: IndexProbe<'_>,
        mode: ProbeMode,
    ) -> Option<Probed> {
        self.pre.probe(scope, probe, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graph::{CompositeTrailing, ItemRef, PropertyMap, Value};
    use std::ops::Bound;

    #[test]
    fn overlay_shows_new_items_post_state_rest_pre_state() {
        let mut g = Graph::new();
        let old = g
            .create_node(
                ["P"],
                [("v".to_string(), Value::Int(1))]
                    .into_iter()
                    .collect::<PropertyMap>(),
            )
            .unwrap();
        g.begin().unwrap();
        let mark = g.mark();
        // statement: modify old node AND create a fresh node
        g.set_node_prop(old, "v", Value::Int(2)).unwrap();
        let fresh = g.create_node(["P"], PropertyMap::new()).unwrap();
        let ops = g.ops_since(mark).to_vec();

        // Only `fresh` is a NEW item here (e.g. a CREATE trigger on P).
        let pre = PreStateView::new(&g, &ops);
        let view = NewStateOverlay::new(pre, &g, [ItemRef::Node(fresh)]);
        // fresh visible through direct reference (post-state)
        assert!(view.node(fresh).is_some());
        assert!(view.node(fresh).is_some_and(|n| n.has_label("P")));
        // old node reads pre-state value
        assert_eq!(
            view.node(old).and_then(|n| n.props.get("v")).cloned(),
            Some(Value::Int(1))
        );
        // scans see only the pre-state
        assert_eq!(view.nodes_with_label("P"), vec![old]);
        assert_eq!(view.all_node_ids(), vec![old]);
    }

    /// The overlay lends the post-state record of a NEW item and the
    /// pre-state record of every other item, untouched, updated or deleted.
    #[test]
    fn lends_post_state_for_new_items_and_pre_state_for_the_rest() {
        let props = |v: i64| {
            [("v".to_string(), Value::Int(v))]
                .into_iter()
                .collect::<PropertyMap>()
        };
        let mut g = Graph::new();
        let untouched = g.create_node(["P"], props(1)).unwrap();
        let updated = g.create_node(["P"], props(2)).unwrap();
        let deleted = g.create_node(["P"], props(3)).unwrap();
        let loop_rel = g.create_rel(updated, updated, "R", props(4)).unwrap();
        g.begin().unwrap();
        let mark = g.mark();
        g.set_node_prop(updated, "v", Value::Int(20)).unwrap();
        g.set_rel_prop(loop_rel, "v", Value::Int(40)).unwrap();
        g.delete_node(deleted).unwrap();
        let fresh = g.create_node(["P"], props(5)).unwrap();
        let fresh_rel = g.create_rel(fresh, untouched, "R", props(6)).unwrap();
        let ops = g.ops_since(mark).to_vec();
        let new_items = [ItemRef::Node(fresh), ItemRef::Rel(fresh_rel)];
        let view = NewStateOverlay::new(PreStateView::new(&g, &ops), &g, new_items);
        let v = |rec: Option<&NodeRecord>| rec.and_then(|n| n.props.get("v")).cloned();
        assert!(std::ptr::eq(
            view.node(untouched).unwrap(),
            g.node(untouched).unwrap()
        ));
        assert_eq!(v(view.node(updated)), Some(Value::Int(2)));
        assert_eq!(v(view.node(deleted)), Some(Value::Int(3)));
        assert_eq!(
            view.rel(loop_rel).and_then(|r| r.props.get("v")),
            Some(&Value::Int(4))
        );
        assert!(std::ptr::eq(
            view.node(fresh).unwrap(),
            g.node(fresh).unwrap()
        ));
        assert!(std::ptr::eq(
            view.rel(fresh_rel).unwrap(),
            g.rel(fresh_rel).unwrap()
        ));
    }

    #[test]
    fn count_probes_pass_through_to_pre_state() {
        let mut g = Graph::new();
        for i in 0..10 {
            g.create_node(
                ["P"],
                [("v".to_string(), Value::Int(i))]
                    .into_iter()
                    .collect::<PropertyMap>(),
            )
            .unwrap();
        }
        g.create_index("P", "v");
        g.begin().unwrap();
        let mark = g.mark();
        // statement: one more v=3 node plus an edit of an existing one
        let fresh = g
            .create_node(
                ["P"],
                [("v".to_string(), Value::Int(3))]
                    .into_iter()
                    .collect::<PropertyMap>(),
            )
            .unwrap();
        let ops = g.ops_since(mark).to_vec();
        let pre = PreStateView::new(&g, &ops);
        let view = NewStateOverlay::new(pre, &g, [ItemRef::Node(fresh)]);
        // the count probe sees the pre-state: exactly one v=3 node
        let columns = ["v".to_string()];
        let count = |eq: &[Value], trailing| {
            let probe = IndexProbe {
                columns: &columns,
                eq,
                trailing,
            };
            view.probe(IndexScope::Label("P"), probe, ProbeMode::Count)
        };
        assert_eq!(
            count(&[Value::Int(3)], CompositeTrailing::None),
            Some(Probed::Count(1))
        );
        let from0 = CompositeTrailing::Range(Bound::Included(&Value::Int(0)), Bound::Unbounded);
        assert_eq!(count(&[], from0), Some(Probed::Count(10)));
        assert_eq!(view.node_count_estimate(), 10);
        assert_eq!(view.rel_count_estimate(), 0);
        // With an empty NEW set the overlay *is* the pre-state: its probe
        // must equal the answer of a graph that never ran the statement.
        let mut reference = Graph::new();
        for rec in g.nodes().filter(|rec| rec.id != fresh) {
            reference.load_node(rec.clone()).unwrap();
        }
        reference.create_index("P", "v");
        let no_new = NewStateOverlay::new(PreStateView::new(&g, &ops), &g, []);
        let three = [Value::Int(3)];
        let probe = IndexProbe {
            columns: &columns,
            eq: &three,
            trailing: CompositeTrailing::None,
        };
        let scope = IndexScope::Label("P");
        assert_eq!(
            no_new.probe(scope, probe, ProbeMode::Ids),
            reference.probe(scope, probe, ProbeMode::Ids)
        );
    }

    #[test]
    fn overlay_exposes_new_rel_adjacency() {
        let mut g = Graph::new();
        let a = g.create_node(["A"], PropertyMap::new()).unwrap();
        let b = g.create_node(["B"], PropertyMap::new()).unwrap();
        g.begin().unwrap();
        let mark = g.mark();
        let r = g.create_rel(a, b, "R", PropertyMap::new()).unwrap();
        let ops = g.ops_since(mark).to_vec();
        let pre = PreStateView::new(&g, &ops);
        let view = NewStateOverlay::new(pre, &g, [ItemRef::Rel(r)]);
        // direct reference sees the proposed relationship…
        assert_eq!(
            view.rel(r).map(|r| r.rel_type.clone()),
            Some("R".to_string())
        );
        assert_eq!(view.rel(r).map(|r| (r.src, r.dst)), Some((a, b)));
        // …but scans and adjacency see the pre-state
        assert!(view.hops(a, Direction::Out, None).is_empty());
        assert!(view.hops(a, Direction::Out, Some("R")).is_empty());
        assert!(view.all_rel_ids().is_empty());
    }
}
