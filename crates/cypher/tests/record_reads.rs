//! A typed hop opens no relationship record it does not need.
//!
//! [`RelReads`] wraps a view, counts its `rel()` calls and forwards every
//! other read. A hop reads the run of its type from the node's typed
//! adjacency, whose entries carry the other end, so from a hospital with
//! one `LocatedIn` and N `TreatedAt` relationships the `LocatedIn` hop
//! opens no record at all, and with an inline property only the
//! `LocatedIn` record — at N = 10 and at N = 1,000 alike.

use pg_cypher::{parse_query, Executor, Params, Target};
use pg_graph::{
    Direction, Graph, GraphView, Hop, IndexProbe, IndexScope, IndexStats, NodeId, NodeRecord,
    ProbeMode, Probed, PropertyMap, RelId, RelRecord, Value,
};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

/// A view that counts the relationship records read through it.
struct RelReads<'g> {
    inner: &'g Graph,
    rels: Cell<usize>,
}

impl GraphView for RelReads<'_> {
    fn node(&self, id: NodeId) -> Option<&NodeRecord> {
        self.inner.node(id)
    }
    fn rel(&self, id: RelId) -> Option<&RelRecord> {
        self.rels.set(self.rels.get() + 1);
        self.inner.rel(id)
    }
    fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        self.inner.nodes_with_label(label)
    }
    fn all_node_ids(&self) -> Vec<NodeId> {
        self.inner.all_node_ids()
    }
    fn all_rel_ids(&self) -> Vec<RelId> {
        self.inner.all_rel_ids()
    }
    fn hops(&self, node: NodeId, dir: Direction, rel_type: Option<&str>) -> Cow<'_, [Hop]> {
        self.inner.hops(node, dir, rel_type)
    }
    fn rels_with_type(&self, rel_type: &str) -> Vec<RelId> {
        self.inner.rels_with_type(rel_type)
    }
    fn label_cardinality(&self, label: &str) -> usize {
        self.inner.label_cardinality(label)
    }
    fn rel_type_cardinality(&self, rel_type: &str) -> usize {
        self.inner.rel_type_cardinality(rel_type)
    }
    fn node_count_estimate(&self) -> usize {
        self.inner.node_count_estimate()
    }
    fn rel_count_estimate(&self) -> usize {
        self.inner.rel_count_estimate()
    }
    fn index_defs(&self, scope: IndexScope<'_>) -> Vec<Arc<[String]>> {
        self.inner.index_defs(scope)
    }
    fn probe(
        &self,
        scope: IndexScope<'_>,
        probe: IndexProbe<'_>,
        mode: ProbeMode,
    ) -> Option<Probed> {
        self.inner.probe(scope, probe, mode)
    }
    fn ordered_walk(
        &self,
        scope: IndexScope<'_>,
        columns: &[String],
        pins: &[Value],
        descending: bool,
    ) -> Option<Box<dyn Iterator<Item = u64> + '_>> {
        self.inner.ordered_walk(scope, columns, pins, descending)
    }
    fn index_stats(&self, scope: IndexScope<'_>, columns: &[String]) -> Option<IndexStats> {
        self.inner.index_stats(scope, columns)
    }
    fn degree_edge_count(&self, label: &str, rel_type: &str, dir: Direction) -> Option<usize> {
        self.inner.degree_edge_count(label, rel_type, dir)
    }
}

/// Sacco, `LocatedIn` Lombardy (`since: 1`), with `treated` patients
/// `TreatedAt` it, half of them admitted before the `LocatedIn`
/// relationship and half after. The undirected hop reads Sacco's out-list
/// (the `LocatedIn`) and its in-list (every `TreatedAt`).
fn hospital(treated: usize) -> Graph {
    let mut g = Graph::new();
    let prop = |k: &str, v: Value| -> PropertyMap { [(k.to_string(), v)].into_iter().collect() };
    let named = |name: &str| prop("name", Value::str(name));
    let sacco = g.create_node(["Hospital"], named("Sacco")).unwrap();
    let region = g.create_node(["Region"], named("Lombardy")).unwrap();
    let admit = |g: &mut Graph, n: usize| {
        for _ in 0..n {
            let p = g.create_node(["Patient"], PropertyMap::new()).unwrap();
            g.create_rel(p, sacco, "TreatedAt", PropertyMap::new())
                .unwrap();
        }
    };
    admit(&mut g, treated / 2);
    g.create_rel(sacco, region, "LocatedIn", prop("since", Value::Int(1)))
        .unwrap();
    admit(&mut g, treated - treated / 2);
    g.rebuild_stats();
    g
}

/// The relationship records `src` reads over [`hospital`]`(treated)`,
/// and its single `n`.
fn rel_reads(src: &str, treated: usize) -> (usize, Value) {
    let g = hospital(treated);
    let view = RelReads {
        inner: &g,
        rels: Cell::new(0),
    };
    let params = Params::new();
    let out = Executor::new(Target::Read(&view), &params, 0)
        .run(&parse_query(src).unwrap(), Vec::new())
        .unwrap();
    let n = out.bindings[0].get("n").cloned().unwrap();
    (view.rels.get(), n)
}

#[test]
fn a_typed_hop_opens_no_record_of_another_type() {
    for treated in [10, 1_000] {
        let src = "MATCH (h:Hospital {name: 'Sacco'})-[:LocatedIn]-(r) RETURN count(*) AS n";
        assert_eq!(rel_reads(src, treated), (0, Value::Int(1)), "{treated}");
        // An inline property is tested on the records of the hop's own run.
        let src = "MATCH (h:Hospital {name: 'Sacco'})-[:LocatedIn {since: 1}]-(r) \
                   RETURN count(*) AS n";
        assert_eq!(rel_reads(src, treated), (1, Value::Int(1)), "{treated}");
    }
}
