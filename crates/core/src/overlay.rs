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
    Direction, Graph, GraphView, IndexProbe, IndexScope, NodeId, PreStateView, ProbeMode, Probed,
    RelId, Value,
};
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
    fn node_exists(&self, id: NodeId) -> bool {
        if self.new_nodes.contains(&id) {
            self.post.node_exists(id)
        } else {
            self.pre.node_exists(id)
        }
    }

    fn rel_exists(&self, id: RelId) -> bool {
        if self.new_rels.contains(&id) {
            self.post.rel_exists(id)
        } else {
            self.pre.rel_exists(id)
        }
    }

    fn node_labels(&self, id: NodeId) -> Vec<String> {
        if self.new_nodes.contains(&id) {
            self.post.node_labels(id)
        } else {
            self.pre.node_labels(id)
        }
    }

    fn node_has_label(&self, id: NodeId, label: &str) -> bool {
        if self.new_nodes.contains(&id) {
            self.post.node_has_label(id, label)
        } else {
            self.pre.node_has_label(id, label)
        }
    }

    fn node_prop(&self, id: NodeId, key: &str) -> Option<Value> {
        if self.new_nodes.contains(&id) {
            self.post.node_prop(id, key)
        } else {
            self.pre.node_prop(id, key)
        }
    }

    fn node_prop_keys(&self, id: NodeId) -> Vec<String> {
        if self.new_nodes.contains(&id) {
            self.post.node_prop_keys(id)
        } else {
            self.pre.node_prop_keys(id)
        }
    }

    fn rel_type(&self, id: RelId) -> Option<String> {
        if self.new_rels.contains(&id) {
            self.post.rel_type(id)
        } else {
            self.pre.rel_type(id)
        }
    }

    fn rel_prop(&self, id: RelId, key: &str) -> Option<Value> {
        if self.new_rels.contains(&id) {
            self.post.rel_prop(id, key)
        } else {
            self.pre.rel_prop(id, key)
        }
    }

    fn rel_prop_keys(&self, id: RelId) -> Vec<String> {
        if self.new_rels.contains(&id) {
            self.post.rel_prop_keys(id)
        } else {
            self.pre.rel_prop_keys(id)
        }
    }

    fn rel_endpoints(&self, id: RelId) -> Option<(NodeId, NodeId)> {
        if self.new_rels.contains(&id) {
            self.post.rel_endpoints(id)
        } else {
            self.pre.rel_endpoints(id)
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

    fn rels_of(&self, node: NodeId, dir: Direction) -> Vec<RelId> {
        self.pre.rels_of(node, dir)
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
    use pg_graph::{CompositeTrailing, ItemRef, PropertyMap};
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
        assert!(view.node_exists(fresh));
        assert!(view.node_has_label(fresh, "P"));
        // old node reads pre-state value
        assert_eq!(view.node_prop(old, "v"), Some(Value::Int(1)));
        // scans see only the pre-state
        assert_eq!(view.nodes_with_label("P"), vec![old]);
        assert_eq!(view.all_node_ids(), vec![old]);
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
        assert_eq!(view.rel_type(r), Some("R".to_string()));
        assert_eq!(view.rel_endpoints(r), Some((a, b)));
        // …but scans and adjacency see the pre-state
        assert!(view.rels_of(a, Direction::Out).is_empty());
        assert!(view.all_rel_ids().is_empty());
    }
}
