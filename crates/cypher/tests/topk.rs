//! Index-served `ORDER BY … LIMIT` (top-k) execution tests.
//!
//! Every query is run twice — against an indexed graph (fusion eligible)
//! and an identical unindexed graph (the sort path) — and both must agree.
//! Only the *multiset of order keys* is required to match at tie
//! boundaries; these fixtures use unique keys so full row equality holds.

use pg_cypher::{run_query, Params, QueryOutput};
use pg_graph::{Graph, GraphView, IndexDef, NodeId, PropertyMap, Value};

fn props(entries: &[(&str, Value)]) -> PropertyMap {
    entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn run(graph: &mut Graph, src: &str) -> QueryOutput {
    run_query(graph, src, &Params::new(), 0).unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// `n` Item nodes with unique `k`; indexed twin has `(Item, k)` indexed.
fn twin_graphs(n: i64) -> (Graph, Graph) {
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..n {
            g.create_node(["Item"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
    }
    indexed.create_index("Item", "k");
    (plain, indexed)
}

fn assert_same(plain: &mut Graph, indexed: &mut Graph, q: &str) {
    let a = run(plain, q);
    let b = run(indexed, q);
    assert_eq!(a.columns, b.columns, "{q}");
    assert_eq!(a.rows, b.rows, "{q}");
}

#[test]
fn fused_topk_matches_sort_path() {
    let (mut plain, mut indexed) = twin_graphs(50);
    for q in [
        "MATCH (i:Item) WITH i ORDER BY i.k LIMIT 1 RETURN i.k AS k",
        "MATCH (i:Item) WITH i ORDER BY i.k DESC LIMIT 3 RETURN i.k AS k",
        "MATCH (i:Item) WITH i ORDER BY i.k SKIP 2 LIMIT 3 RETURN i.k AS k",
        "MATCH (i:Item) RETURN i.k AS k ORDER BY k LIMIT 4",
        "MATCH (i:Item) RETURN i.k AS k ORDER BY k DESC LIMIT 4",
        "MATCH (i:Item) WHERE i.k >= 10 WITH i ORDER BY i.k LIMIT 2 RETURN i.k AS k",
        // LIMIT 0 and LIMIT beyond the extent
        "MATCH (i:Item) WITH i ORDER BY i.k LIMIT 0 RETURN i.k AS k",
        "MATCH (i:Item) WITH i ORDER BY i.k SKIP 48 LIMIT 10 RETURN i.k AS k",
    ] {
        assert_same(&mut plain, &mut indexed, q);
    }
}

#[test]
fn fused_topk_walks_index_not_extent() {
    // Observable via probe counters: the indexed run serves the top-1
    // through an ordered walk and must not pay a full materializing scan.
    let (_, mut indexed) = twin_graphs(200);
    indexed.reset_index_probes();
    let out = run(
        &mut indexed,
        "MATCH (i:Item) WITH i ORDER BY i.k LIMIT 1 RETURN i.k AS k",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(0)]]);
    let probes = indexed.index_probes();
    assert!(probes.ordered >= 1, "expected an ordered index walk");
}

#[test]
fn missing_props_sort_last_ascending() {
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..10 {
            g.create_node(["Item"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
        // three items without `k` — NULL keys, ordering last
        for _ in 0..3 {
            g.create_node(["Item"], PropertyMap::new()).unwrap();
        }
    }
    indexed.create_index("Item", "k");
    // ascending with a LIMIT reaching into the NULL tail
    assert_same(
        &mut plain,
        &mut indexed,
        "MATCH (i:Item) WITH i ORDER BY i.k SKIP 8 LIMIT 4 RETURN i.k AS k",
    );
    // descending: NULL keys would lead — fusion declines, results agree
    assert_same(
        &mut plain,
        &mut indexed,
        "MATCH (i:Item) WITH i ORDER BY i.k DESC LIMIT 2 RETURN i.k AS k",
    );
}

#[test]
fn rel_route_serves_paper_6_2_3_shape() {
    // MATCH (h)-[ct:ConnectedTo]-(hc:Hospital) WITH ct, hc
    // ORDER BY ct.distance LIMIT 1 — the §6.2.3 relocation shape.
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        let h = g
            .create_node(["Hospital"], props(&[("name", Value::str("Sacco"))]))
            .unwrap();
        for i in 0..40 {
            let other = g
                .create_node(
                    ["Hospital"],
                    props(&[("name", Value::str(format!("H{i}")))]),
                )
                .unwrap();
            g.create_rel(
                h,
                other,
                "ConnectedTo",
                props(&[("distance", Value::Int(100 - i))]),
            )
            .unwrap();
        }
    }
    indexed.define_index(&IndexDef::rel("ConnectedTo", &["distance"]));
    let q = "MATCH (h:Hospital {name: 'Sacco'})-[ct:ConnectedTo]-(hc:Hospital) \
             WITH ct, hc ORDER BY ct.distance LIMIT 1 \
             RETURN hc.name AS name, ct.distance AS d";
    let a = run(&mut plain, q);
    let b = run(&mut indexed, q);
    assert_eq!(a.rows, b.rows);
    assert_eq!(b.rows, vec![vec![Value::str("H39"), Value::Int(61)]]);
}

#[test]
fn fusion_declines_safely() {
    let (mut plain, mut indexed) = twin_graphs(30);
    // aggregates, DISTINCT, post-WITH WHERE, computed keys, multi-key
    // ORDER BY: fusion declines, results still agree with the sort path
    for q in [
        "MATCH (i:Item) WITH i.k AS k ORDER BY k LIMIT 3 RETURN count(*) AS n",
        "MATCH (i:Item) RETURN count(i) AS n ORDER BY n LIMIT 1",
        "MATCH (i:Item) WITH DISTINCT i.k AS k ORDER BY k LIMIT 2 RETURN k",
        "MATCH (i:Item) WITH i ORDER BY i.k LIMIT 2 WHERE i.k > 0 RETURN i.k AS k",
        "MATCH (i:Item) WITH i ORDER BY i.k + 0 LIMIT 2 RETURN i.k AS k",
        "MATCH (i:Item) WITH i ORDER BY i.k, i.k DESC LIMIT 2 RETURN i.k AS k",
    ] {
        assert_same(&mut plain, &mut indexed, q);
    }
}

#[test]
fn rebound_alias_declines_fusion() {
    // `WITH y AS x ORDER BY x.k`: the projected `x` is the pattern's `y`,
    // so walking the pattern-x index would truncate by the wrong
    // variable's order. Fusion must decline; results agree with the sort
    // path (regression: the indexed twin used to return 'big').
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        let a0 = g
            .create_node(["A"], props(&[("k", Value::Int(0))]))
            .unwrap();
        let b_big = g
            .create_node(
                ["B"],
                props(&[("k", Value::Int(100)), ("name", Value::str("big"))]),
            )
            .unwrap();
        g.create_rel(a0, b_big, "R", PropertyMap::new()).unwrap();
        let a9 = g
            .create_node(["A"], props(&[("k", Value::Int(9))]))
            .unwrap();
        let b_small = g
            .create_node(
                ["B"],
                props(&[("k", Value::Int(1)), ("name", Value::str("small"))]),
            )
            .unwrap();
        g.create_rel(a9, b_small, "R", PropertyMap::new()).unwrap();
    }
    indexed.create_index("A", "k");
    let q = "MATCH (x:A)-[:R]->(y:B) WITH y AS x ORDER BY x.k LIMIT 1 RETURN x.name AS name";
    assert_same(&mut plain, &mut indexed, q);
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::str("small")]]);
    // identity projection alongside other items still fuses correctly
    let q = "MATCH (x:A)-[:R]->(y:B) WITH x, y ORDER BY x.k LIMIT 1 RETURN y.name AS name";
    assert_same(&mut plain, &mut indexed, q);
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::str("big")]]);
}

#[test]
fn prebound_var_declines_fusion() {
    // `i` arrives bound from an earlier clause: the MATCH is a
    // re-validation, not a scan — fusion must not rebind it.
    let (mut plain, mut indexed) = twin_graphs(10);
    let q = "MATCH (i:Item {k: 7}) WITH i MATCH (i) WITH i ORDER BY i.k LIMIT 1 \
             RETURN i.k AS k";
    assert_same(&mut plain, &mut indexed, q);
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::Int(7)]]);
}

#[test]
fn lossy_values_decline_ordered_walk() {
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..10 {
            g.create_node(["Item"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
        g.create_node(["Item"], props(&[("k", Value::Int((1 << 53) + 1))]))
            .unwrap();
    }
    indexed.create_index("Item", "k");
    // the lossy numeric is absent from the index; the ordered walk refuses
    // and the sort path keeps the row in its right place
    let q = "MATCH (i:Item) WITH i ORDER BY i.k DESC LIMIT 1 RETURN i.k AS k";
    assert_same(&mut plain, &mut indexed, q);
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::Int((1 << 53) + 1)]]);
}

#[test]
fn heap_path_equals_full_sort_with_ties() {
    // No index at all: the bounded heap must reproduce the stable sort's
    // exact output, including tie order (input index tiebreaker).
    let mut g = Graph::new();
    let mut ids: Vec<NodeId> = Vec::new();
    for i in 0..30 {
        ids.push(
            g.create_node(
                ["T"],
                props(&[("k", Value::Int(i % 3)), ("i", Value::Int(i))]),
            )
            .unwrap(),
        );
    }
    let limited = run(
        &mut g,
        "MATCH (t:T) WITH t ORDER BY t.k LIMIT 7 RETURN t.i AS i",
    );
    let full = run(&mut g, "MATCH (t:T) WITH t ORDER BY t.k RETURN t.i AS i");
    assert_eq!(limited.rows, full.rows[..7].to_vec());
    assert!(g.node(ids[0]).is_some());
}

#[test]
fn mixed_type_keys_order_like_cmp_order() {
    // values across type families: the ordered walk must agree with
    // Value::cmp_order (strings < booleans < numbers < dates)
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        g.create_node(["M"], props(&[("v", Value::Int(1))]))
            .unwrap();
        g.create_node(["M"], props(&[("v", Value::str("s"))]))
            .unwrap();
        g.create_node(["M"], props(&[("v", Value::Bool(false))]))
            .unwrap();
        g.create_node(["M"], props(&[("v", Value::Float(0.5))]))
            .unwrap();
        g.create_node(["M"], props(&[("v", Value::Date(3))]))
            .unwrap();
    }
    indexed.create_index("M", "v");
    for q in [
        "MATCH (m:M) WITH m ORDER BY m.v LIMIT 3 RETURN m.v AS v",
        "MATCH (m:M) WITH m ORDER BY m.v DESC LIMIT 3 RETURN m.v AS v",
    ] {
        assert_same(&mut plain, &mut indexed, q);
    }
}
