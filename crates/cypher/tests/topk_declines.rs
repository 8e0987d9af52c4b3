//! Multi-key (composite) top-k fusion, one asserting test per documented
//! decline rule, and the single-key-is-width-1 identities.
//!
//! Every decline test runs the same query against an indexed twin (fusion
//! candidate) and an unindexed twin (the sort path the fusion must fall
//! back to) and asserts identical results — a decline may cost
//! performance, never correctness. Where the decline fires before any
//! walk is constructed, the probe counters additionally prove no ordered
//! walk ran.

use pg_cypher::{explain_query, run_query, Params, QueryOutput};
use pg_graph::{Graph, IndexDef, PropertyMap, Value};

fn props(entries: &[(&str, Value)]) -> PropertyMap {
    entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn cols(cs: &[&str]) -> Vec<String> {
    cs.iter().map(|c| c.to_string()).collect()
}

/// Run `src`, holding `EXPLAIN` to the run: the plan prints a `TopK` line
/// exactly when the run made an ordered probe. The two declines only a
/// run can make still probe (the index refuses the walk, or the walk runs
/// out of budget): there `TopK` is printed and the heap path serves the
/// rows, which `decline_lossy_values` and `decline_walk_budget_bail`
/// assert.
fn run(graph: &mut Graph, src: &str) -> QueryOutput {
    let topk = explains_topk(graph, src);
    graph.reset_index_probes();
    let out = run_query(graph, src, &Params::new(), 0).unwrap_or_else(|e| panic!("{src}: {e}"));
    let walked = graph.index_probes().ordered >= 1;
    assert_eq!(
        topk, walked,
        "{src}: TopK printed = {topk}, walked = {walked}"
    );
    out
}

/// Whether `EXPLAIN` prints a fused top-k walk for `src`.
fn explains_topk(graph: &Graph, src: &str) -> bool {
    let plan = explain_query(graph, src, &Params::new(), 0).unwrap();
    plan.contains("\n  TopK ")
}

fn assert_same(plain: &mut Graph, indexed: &mut Graph, q: &str) {
    let a = run(plain, q);
    let b = run(indexed, q);
    assert_eq!(a.columns, b.columns, "{q}");
    assert_eq!(a.rows, b.rows, "{q}");
}

/// Twin graphs of `n` Item nodes with `(a, b)` pairs; the indexed twin
/// carries a composite index on `(Item, [a, b])`. Keys are unique per
/// node so full row equality holds at every cut.
fn composite_twins(n: i64) -> (Graph, Graph) {
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..n {
            g.create_node(
                ["Item"],
                props(&[("a", Value::Int(i % 5)), ("b", Value::Int(n - i))]),
            )
            .unwrap();
        }
    }
    indexed.create_composite_index("Item", &cols(&["a", "b"]));
    (plain, indexed)
}

#[test]
fn multi_key_order_by_fuses_into_composite_walk() {
    let (mut plain, mut indexed) = composite_twins(60);
    for q in [
        "MATCH (i:Item) WITH i ORDER BY i.a, i.b LIMIT 4 RETURN i.a AS a, i.b AS b",
        "MATCH (i:Item) WITH i ORDER BY i.a, i.b SKIP 3 LIMIT 5 RETURN i.a AS a, i.b AS b",
        "MATCH (i:Item) WITH i ORDER BY i.a DESC, i.b DESC LIMIT 4 RETURN i.a AS a, i.b AS b",
        "MATCH (i:Item) RETURN i.a AS a, i.b AS b ORDER BY a, b LIMIT 6",
    ] {
        assert_same(&mut plain, &mut indexed, q);
    }
    // the fused run actually walks the composite index
    indexed.reset_index_probes();
    let out = run(
        &mut indexed,
        "MATCH (i:Item) WITH i ORDER BY i.a, i.b LIMIT 1 RETURN i.a AS a, i.b AS b",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(0), Value::Int(5)]]);
    assert!(
        indexed.index_probes().ordered >= 1,
        "expected a composite ordered walk"
    );
}

#[test]
fn multi_key_fusion_serves_missing_values_both_directions() {
    // Composite walks key absent properties on an explicit missing marker
    // (NULL-last ascending, NULL-first descending) — so unlike the
    // single-key walk, descending multi-key orders over partial data fuse
    // and still agree with the sort path.
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..10i64 {
            g.create_node(
                ["Item"],
                props(&[("a", Value::Int(i % 3)), ("b", Value::Int(i))]),
            )
            .unwrap();
        }
        // items missing b, and one missing both
        g.create_node(["Item"], props(&[("a", Value::Int(1))]))
            .unwrap();
        g.create_node(["Item"], PropertyMap::new()).unwrap();
    }
    indexed.create_composite_index("Item", &cols(&["a", "b"]));
    for q in [
        "MATCH (i:Item) WITH i ORDER BY i.a, i.b LIMIT 12 RETURN i.a AS a, i.b AS b",
        "MATCH (i:Item) WITH i ORDER BY i.a, i.b DESC LIMIT 3 RETURN i.a AS a, i.b AS b",
        "MATCH (i:Item) WITH i ORDER BY i.a DESC, i.b DESC LIMIT 12 RETURN i.a AS a, i.b AS b",
    ] {
        // mixed-direction multi-key (line 2) declines; the others fuse —
        // all must agree with the sort path
        assert_same(&mut plain, &mut indexed, q);
    }
}

#[test]
fn equality_prefix_pinned_walk_serves_status_filter() {
    // The §6 conjunction + relocation shape: a composite (status,
    // severity) index serves `{status: 'icu'} … ORDER BY severity` as a
    // prefix-pinned walk.
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..40i64 {
            let status = if i % 4 == 0 { "icu" } else { "ward" };
            g.create_node(
                ["Patient"],
                props(&[("status", Value::str(status)), ("severity", Value::Int(i))]),
            )
            .unwrap();
        }
    }
    indexed.create_composite_index("Patient", &cols(&["status", "severity"]));
    let inline = "MATCH (p:Patient {status: 'icu'}) WITH p ORDER BY p.severity LIMIT 2 \
                  RETURN p.severity AS s";
    let pushed = "MATCH (p:Patient) WHERE p.status = 'icu' \
                  WITH p ORDER BY p.severity DESC LIMIT 2 RETURN p.severity AS s";
    assert_same(&mut plain, &mut indexed, inline);
    assert_same(&mut plain, &mut indexed, pushed);
    indexed.reset_index_probes();
    let out = run(&mut indexed, inline);
    assert_eq!(out.rows, vec![vec![Value::Int(0)], vec![Value::Int(4)]]);
    assert!(
        indexed.index_probes().ordered >= 1,
        "expected a pinned composite walk"
    );
}

// ---------------------------------------------------------------------
// One asserting test per documented decline rule. Each proves the sort
// fallback still returns the correct rows.
// ---------------------------------------------------------------------

#[test]
fn decline_aggregates() {
    let (mut plain, mut indexed) = composite_twins(30);
    let q = "MATCH (i:Item) WITH i.a AS a, count(*) AS n ORDER BY a LIMIT 2 RETURN a, n";
    assert_same(&mut plain, &mut indexed, q);
    indexed.reset_index_probes();
    let out = run(&mut indexed, q);
    assert_eq!(
        out.rows,
        vec![
            vec![Value::Int(0), Value::Int(6)],
            vec![Value::Int(1), Value::Int(6)],
        ]
    );
    assert_eq!(indexed.index_probes().ordered, 0, "no walk may run");
}

#[test]
fn decline_distinct() {
    let (mut plain, mut indexed) = composite_twins(30);
    let q = "MATCH (i:Item) WITH DISTINCT i.a AS a ORDER BY a LIMIT 2 RETURN a";
    assert_same(&mut plain, &mut indexed, q);
    indexed.reset_index_probes();
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::Int(0)], vec![Value::Int(1)]]);
    assert_eq!(indexed.index_probes().ordered, 0, "no walk may run");
}

#[test]
fn decline_post_with_where() {
    let (mut plain, mut indexed) = composite_twins(30);
    let q = "MATCH (i:Item) WITH i ORDER BY i.a, i.b LIMIT 4 WHERE i.b > 2 \
             RETURN i.a AS a, i.b AS b";
    assert_same(&mut plain, &mut indexed, q);
    indexed.reset_index_probes();
    run(&mut indexed, q);
    assert_eq!(indexed.index_probes().ordered, 0, "no walk may run");
}

#[test]
fn decline_rebound_order_variable() {
    // `WITH y AS x ORDER BY x.k`: the projected x is the pattern's y —
    // walking the pattern-x composite index would truncate by the wrong
    // variable's order.
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        let a0 = g
            .create_node(["A"], props(&[("k", Value::Int(0)), ("m", Value::Int(0))]))
            .unwrap();
        let b_big = g
            .create_node(
                ["B"],
                props(&[("k", Value::Int(100)), ("name", Value::str("big"))]),
            )
            .unwrap();
        g.create_rel(a0, b_big, "R", PropertyMap::new()).unwrap();
        let a9 = g
            .create_node(["A"], props(&[("k", Value::Int(9)), ("m", Value::Int(9))]))
            .unwrap();
        let b_small = g
            .create_node(
                ["B"],
                props(&[("k", Value::Int(1)), ("name", Value::str("small"))]),
            )
            .unwrap();
        g.create_rel(a9, b_small, "R", PropertyMap::new()).unwrap();
    }
    indexed.create_composite_index("A", &cols(&["k", "m"]));
    let q = "MATCH (x:A)-[:R]->(y:B) WITH y AS x ORDER BY x.k LIMIT 1 RETURN x.name AS name";
    assert_same(&mut plain, &mut indexed, q);
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::str("small")]]);
}

#[test]
fn decline_prebound_variable() {
    let (mut plain, mut indexed) = composite_twins(10);
    let q = "MATCH (i:Item {a: 2, b: 8}) WITH i MATCH (i) WITH i ORDER BY i.a, i.b LIMIT 1 \
             RETURN i.a AS a, i.b AS b";
    assert_same(&mut plain, &mut indexed, q);
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::Int(2), Value::Int(8)]]);
}

#[test]
fn decline_lossy_values() {
    // A record holding a ±2⁵³ numeric is excluded from the composite
    // entry; the ordered walk refuses and the sort path keeps the row in
    // its right place.
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..10i64 {
            g.create_node(
                ["Item"],
                props(&[("a", Value::Int(0)), ("b", Value::Int(i))]),
            )
            .unwrap();
        }
        g.create_node(
            ["Item"],
            props(&[("a", Value::Int(0)), ("b", Value::Int((1 << 53) + 1))]),
        )
        .unwrap();
    }
    indexed.create_composite_index("Item", &cols(&["a", "b"]));
    let q = "MATCH (i:Item) WITH i ORDER BY i.a, i.b DESC LIMIT 1 RETURN i.b AS b";
    assert_same(&mut plain, &mut indexed, q);
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::Int((1 << 53) + 1)]]);
    // That order mixes directions, so it declines before any walk. In one
    // direction the refusal is decided at run time: the plan still fuses,
    // the heap path answers.
    let q = "MATCH (i:Item) WITH i ORDER BY i.a DESC, i.b DESC LIMIT 1 RETURN i.b AS b";
    assert_same(&mut plain, &mut indexed, q);
    assert!(explains_topk(&indexed, q));
    let out = run(&mut indexed, q);
    assert_eq!(out.rows, vec![vec![Value::Int((1 << 53) + 1)]]);
}

#[test]
fn null_leading_desc_single_key_fuses() {
    // A single-key index is a width-1 composite: property-less items key
    // on the missing marker, which leads a descending walk exactly where
    // `ORDER BY … DESC` puts NULL — no decline, in either direction.
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..10i64 {
            g.create_node(["Item"], props(&[("k", Value::Int(i))]))
                .unwrap();
        }
        g.create_node(["Item"], PropertyMap::new()).unwrap();
    }
    indexed.create_index("Item", "k");
    for q in [
        "MATCH (i:Item) WITH i ORDER BY i.k DESC LIMIT 1 RETURN i.k AS k",
        "MATCH (i:Item) WITH i ORDER BY i.k DESC LIMIT 3 RETURN i.k AS k",
        "MATCH (i:Item) WITH i ORDER BY i.k SKIP 9 LIMIT 2 RETURN i.k AS k",
    ] {
        assert_same(&mut plain, &mut indexed, q);
        indexed.reset_index_probes();
        run(&mut indexed, q);
        assert!(
            indexed.index_probes().ordered >= 1,
            "expected a fused ordered walk for {q}"
        );
    }
    let out = run(
        &mut indexed,
        "MATCH (i:Item) WITH i ORDER BY i.k DESC LIMIT 1 RETURN i.k AS k",
    );
    assert_eq!(out.rows, vec![vec![Value::Null]]);
}

#[test]
fn single_key_ddl_is_the_width_one_definition() {
    let mut g = Graph::new();
    g.create_node(["L"], props(&[("k", Value::Int(1))]))
        .unwrap();
    assert!(g.create_index("L", "k"));
    // the same definition through the multi-key front door
    assert!(!g.create_composite_index("L", &cols(&["k"])));
    assert_eq!(g.indexes(), [IndexDef::node("L", &["k"])]);
    assert!(g.drop_index(&IndexDef::node("L", &["k"])));
    assert!(g.indexes().is_empty());
    // and the other way round: a width-1 column list is a single-key index
    assert!(g.create_composite_index("L", &cols(&["k"])));
    assert!(!g.create_index("L", "k"));
    assert_eq!(g.indexes(), [IndexDef::node("L", &["k"])]);
}

#[test]
fn decline_walk_budget_bail() {
    // A walk that keeps matching nothing must bail back to the heap path
    // after its 4096-candidate budget — and the fallback still finds the
    // rows the walk never reached.
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    let n = 5000i64;
    for g in [&mut plain, &mut indexed] {
        for i in 0..n {
            g.create_node(
                ["Item"],
                props(&[("a", Value::Int(0)), ("b", Value::Int(i))]),
            )
            .unwrap();
        }
    }
    indexed.create_composite_index("Item", &cols(&["a", "b"]));
    // only the very last walked item satisfies the WHERE
    let q = format!(
        "MATCH (i:Item) WHERE i.b >= {} WITH i ORDER BY i.a, i.b LIMIT 1 RETURN i.b AS b",
        n - 1
    );
    assert_same(&mut plain, &mut indexed, &q);
    let out = run(&mut indexed, &q);
    assert_eq!(out.rows, vec![vec![Value::Int(n - 1)]]);
    // Decided at run time: the plan still fuses, the heap path answers.
    assert!(explains_topk(&indexed, &q));
}

#[test]
fn decline_mixed_directions_multi_key() {
    let (mut plain, mut indexed) = composite_twins(30);
    let q = "MATCH (i:Item) WITH i ORDER BY i.a, i.b DESC LIMIT 3 RETURN i.a AS a, i.b AS b";
    assert_same(&mut plain, &mut indexed, q);
    indexed.reset_index_probes();
    run(&mut indexed, q);
    assert_eq!(indexed.index_probes().ordered, 0, "no walk may run");
}

#[test]
fn decline_order_keys_across_variables() {
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..6i64 {
            let a = g
                .create_node(["A"], props(&[("k", Value::Int(i)), ("m", Value::Int(i))]))
                .unwrap();
            let b = g
                .create_node(["B"], props(&[("k", Value::Int(5 - i))]))
                .unwrap();
            g.create_rel(a, b, "R", PropertyMap::new()).unwrap();
        }
    }
    indexed.create_composite_index("A", &cols(&["k", "m"]));
    let q = "MATCH (x:A)-[:R]->(y:B) WITH x, y ORDER BY x.k, y.k LIMIT 2 \
             RETURN x.k AS xk, y.k AS yk";
    assert_same(&mut plain, &mut indexed, q);
    indexed.reset_index_probes();
    run(&mut indexed, q);
    assert_eq!(indexed.index_probes().ordered, 0, "no walk may run");
}

#[test]
fn decline_multi_key_without_matching_composite() {
    // Only a single-key index exists: a multi-key order cannot be served
    // (and a composite whose columns do not contain the order keys as a
    // contiguous run cannot either).
    let mut plain = Graph::new();
    let mut indexed = Graph::new();
    for g in [&mut plain, &mut indexed] {
        for i in 0..20i64 {
            g.create_node(
                ["Item"],
                props(&[
                    ("a", Value::Int(i % 3)),
                    ("b", Value::Int(i)),
                    ("c", Value::Int(i % 2)),
                ]),
            )
            .unwrap();
        }
    }
    indexed.create_index("Item", "a");
    indexed.create_composite_index("Item", &cols(&["a", "c", "b"]));
    let q = "MATCH (i:Item) WITH i ORDER BY i.a, i.b LIMIT 3 RETURN i.a AS a, i.b AS b";
    assert_same(&mut plain, &mut indexed, q);
    indexed.reset_index_probes();
    run(&mut indexed, q);
    assert_eq!(indexed.index_probes().ordered, 0, "no walk may run");
}
