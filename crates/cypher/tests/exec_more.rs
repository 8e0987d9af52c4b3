//! Additional evaluator coverage: interactions between clauses, edge cases
//! of aggregation, OPTIONAL MATCH, MERGE, FOREACH nesting, and functions.

use pg_cypher::{parse_query, run_query, CypherError, Executor, MatchMode, Params, Target};
use pg_graph::{Graph, GraphView, PreStateView, Value};

fn run(g: &mut Graph, src: &str) -> pg_cypher::QueryOutput {
    run_query(g, src, &Params::new(), 0).unwrap_or_else(|e| panic!("{src}: {e}"))
}

#[test]
fn multiple_group_keys() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (:S {a: 1, b: 'x', v: 10}), (:S {a: 1, b: 'x', v: 20}),
                (:S {a: 1, b: 'y', v: 5}), (:S {a: 2, b: 'x', v: 1})",
    );
    let out = run(
        &mut g,
        "MATCH (s:S) RETURN s.a AS a, s.b AS b, sum(s.v) AS total ORDER BY a, b",
    );
    assert_eq!(
        out.rows,
        vec![
            vec![Value::Int(1), Value::str("x"), Value::Int(30)],
            vec![Value::Int(1), Value::str("y"), Value::Int(5)],
            vec![Value::Int(2), Value::str("x"), Value::Int(1)],
        ]
    );
}

#[test]
fn min_max_avg_over_mixed() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:N {v: 1}), (:N {v: 4}), (:N)");
    let out = run(
        &mut g,
        "MATCH (n:N) RETURN min(n.v) AS lo, max(n.v) AS hi, avg(n.v) AS mean, count(n.v) AS nonnull",
    );
    assert_eq!(
        out.rows,
        vec![vec![
            Value::Int(1),
            Value::Int(4),
            Value::Float(2.5),
            Value::Int(2)
        ]]
    );
}

#[test]
fn optional_match_chain_preserves_rows() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (:A {i: 1})-[:R]->(:B {i: 1}) CREATE (:A {i: 2})",
    );
    let out = run(
        &mut g,
        "MATCH (a:A) OPTIONAL MATCH (a)-[:R]->(b:B) \
         RETURN a.i AS a, b.i AS b ORDER BY a",
    );
    assert_eq!(
        out.rows,
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Null],
        ]
    );
}

#[test]
fn merge_reuses_bound_endpoints() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:U {id: 1}), (:U {id: 2})");
    // merging the same relationship twice in separate statements
    for _ in 0..2 {
        run(
            &mut g,
            "MATCH (a:U {id: 1}), (b:U {id: 2}) MERGE (a)-[:FOLLOWS]->(b)",
        );
    }
    assert_eq!(g.rel_count(), 1);
    // opposite direction is a different pattern → new rel
    run(
        &mut g,
        "MATCH (a:U {id: 1}), (b:U {id: 2}) MERGE (b)-[:FOLLOWS]->(a)",
    );
    assert_eq!(g.rel_count(), 2);
}

#[test]
fn nested_foreach() {
    let mut g = Graph::new();
    run(
        &mut g,
        "FOREACH (i IN range(0, 2) | FOREACH (j IN range(0, 2) | CREATE (:Cell {i: i, j: j})))",
    );
    let out = run(&mut g, "MATCH (c:Cell) RETURN count(*) AS n");
    assert_eq!(out.single(), Some(&Value::Int(9)));
}

#[test]
fn foreach_sees_outer_bindings() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:Hub {name: 'h'})");
    run(
        &mut g,
        "MATCH (h:Hub) FOREACH (i IN range(1, 3) | CREATE (h)-[:SPOKE]->(:Leaf {i: i}))",
    );
    let out = run(
        &mut g,
        "MATCH (:Hub)-[:SPOKE]->(l:Leaf) RETURN count(l) AS n",
    );
    assert_eq!(out.single(), Some(&Value::Int(3)));
}

#[test]
fn exists_with_where_inside() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (:P {name: 'a'})-[:OWNS]->(:Car {year: 2020})
         CREATE (:P {name: 'b'})-[:OWNS]->(:Car {year: 1999})",
    );
    let out = run(
        &mut g,
        "MATCH (p:P) WHERE EXISTS { MATCH (p)-[:OWNS]->(c:Car) WHERE c.year > 2010 } \
         RETURN p.name AS n",
    );
    assert_eq!(out.rows, vec![vec![Value::str("a")]]);
}

#[test]
fn var_length_with_rel_type_filter() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (a:V {i: 0})-[:GOOD]->(b:V {i: 1})-[:BAD]->(c:V {i: 2}) \
         WITH 1 AS _ MATCH (b:V {i: 1}) CREATE (b)-[:GOOD]->(:V {i: 3})",
    );
    let out = run(
        &mut g,
        "MATCH (a:V {i: 0})-[:GOOD*1..3]->(x) RETURN collect(x.i) AS xs",
    );
    // only GOOD edges traversed: 1 then 3
    match out.single() {
        Some(Value::List(xs)) => {
            let mut got: Vec<i64> = xs.iter().map(|v| v.as_i64().unwrap()).collect();
            got.sort();
            assert_eq!(got, vec![1, 3]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// A variable-length relationship variable bound by an earlier clause is
/// matched, not rebound: on the chain 0 → 1 → 2 the second `MATCH` keeps,
/// for each trail `r` the first one bound, only that same trail.
#[test]
fn var_length_rel_variable_bound_earlier_must_match() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (:N {i: 0})-[:NEXT]->(:N {i: 1})-[:NEXT]->(:N {i: 2})",
    );
    let out = run(
        &mut g,
        "MATCH (a:N {i: 0})-[r:NEXT*1..2]->(b) MATCH (a)-[r:NEXT*1..2]->(c) \
         RETURN b.i AS b, c.i AS c ORDER BY b, c",
    );
    let pair = |b, c| vec![Value::Int(b), Value::Int(c)];
    assert_eq!(out.rows, vec![pair(1, 1), pair(2, 2)]);
}

/// A variable-length relationship list is in the text's order even when
/// the planner walks the path from its far end (the labelled `b`).
#[test]
fn var_length_list_follows_the_text_when_walked_backwards() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (:N {i: 0})-[:NEXT {i: 0}]->(:N {i: 1})-[:NEXT {i: 1}]->(:End {i: 2})",
    );
    let out = run(
        &mut g,
        "MATCH (a)-[r:NEXT*2]->(b:End) RETURN [x IN r | x.i] AS order",
    );
    let order = Value::List(vec![Value::Int(0), Value::Int(1)]);
    assert_eq!(out.rows, vec![vec![order]]);
}

/// A label bound to a list restricts the position to a set of nodes: a
/// node the list names twice starts one match.
#[test]
fn a_node_listed_twice_in_a_label_list_matches_once() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:N {i: 0})");
    let out = run(
        &mut g,
        "MATCH (n:N) WITH [n, n] AS T MATCH (m:T) RETURN count(*) AS c",
    );
    assert_eq!(out.single(), Some(&Value::Int(1)));
}

#[test]
fn unwind_nested_lists_and_maps() {
    let mut g = Graph::new();
    let out = run(
        &mut g,
        "UNWIND [{k: 'a', v: 1}, {k: 'b', v: 2}] AS row RETURN row.k AS k, row.v + 10 AS v",
    );
    assert_eq!(
        out.rows,
        vec![
            vec![Value::str("a"), Value::Int(11)],
            vec![Value::str("b"), Value::Int(12)],
        ]
    );
}

#[test]
fn with_distinct_then_aggregate() {
    let mut g = Graph::new();
    let out = run(
        &mut g,
        "UNWIND [1, 1, 2, 2, 3] AS x WITH DISTINCT x RETURN sum(x) AS s",
    );
    assert_eq!(out.single(), Some(&Value::Int(6)));
}

#[test]
fn delete_inside_foreach() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:T {i: 1}), (:T {i: 2}), (:T {i: 3})");
    run(
        &mut g,
        "MATCH (t:T) WITH collect(t) AS ts FOREACH (x IN ts | DETACH DELETE x)",
    );
    assert_eq!(g.node_count(), 0);
}

#[test]
fn set_case_expression() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:G {score: 85}), (:G {score: 40})");
    run(
        &mut g,
        "MATCH (x:G) SET x.grade = CASE WHEN x.score >= 60 THEN 'pass' ELSE 'fail' END",
    );
    let out = run(&mut g, "MATCH (x:G) RETURN x.grade AS g ORDER BY g");
    assert_eq!(
        out.rows,
        vec![vec![Value::str("fail")], vec![Value::str("pass")]]
    );
}

#[test]
fn parameters_in_patterns_and_props() {
    let mut g = Graph::new();
    let mut params = Params::new();
    params.insert("nm".into(), Value::str("Ada"));
    params.insert("age".into(), Value::Int(36));
    run_query(&mut g, "CREATE (:P {name: $nm, age: $age})", &params, 0).unwrap();
    let out = run_query(
        &mut g,
        "MATCH (p:P {name: $nm}) RETURN p.age AS a",
        &params,
        0,
    )
    .unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(36)]]);
}

#[test]
fn coalesce_head_collect_pipeline() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:I {v: 3}), (:I {v: 1}), (:I)");
    let out = run(
        &mut g,
        "MATCH (i:I) WITH coalesce(i.v, 0) AS v ORDER BY v DESC \
         RETURN head(collect(v)) AS top",
    );
    assert_eq!(out.single(), Some(&Value::Int(3)));
}

#[test]
fn abort_does_not_fire_without_rows() {
    let mut g = Graph::new();
    run(&mut g, "MATCH (n:Missing) ABORT 'never'");
    let err = run_query(
        &mut g,
        "CREATE (:X) WITH 1 AS one ABORT 'now'",
        &Params::new(),
        0,
    )
    .unwrap_err();
    assert_eq!(err, CypherError::Aborted("now".into()));
}

#[test]
fn startnode_endnode_and_type() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:A {n: 'a'})-[:LIKES]->(:B {n: 'b'})");
    let out = run(
        &mut g,
        "MATCH ()-[r]->() RETURN type(r) AS t, startNode(r).n AS s, endNode(r).n AS e",
    );
    assert_eq!(
        out.rows,
        vec![vec![Value::str("LIKES"), Value::str("a"), Value::str("b")]]
    );
}

#[test]
fn detach_delete_is_idempotent_across_rows() {
    // the same node matched by several rows deletes cleanly once
    let mut g = Graph::new();
    run(&mut g, "CREATE (h:H)-[:R]->(:S), (h2:H)-[:R]->(:S)");
    run(&mut g, "MATCH (h:H)-[:R]->(s:S) DETACH DELETE s, s");
    let out = run(&mut g, "MATCH (s:S) RETURN count(*) AS n");
    assert_eq!(out.single(), Some(&Value::Int(0)));
}

#[test]
fn skip_limit_expressions() {
    let mut g = Graph::new();
    let out = run(
        &mut g,
        "UNWIND range(1, 10) AS x RETURN x SKIP 2 + 1 LIMIT 2 * 2",
    );
    assert_eq!(out.rows.len(), 4);
    assert_eq!(out.rows[0], vec![Value::Int(4)]);
}

/// A self-loop is on both adjacency lists of its node, yet an undirected
/// hop matches it exactly once — on the live graph, on a snapshot, and on a
/// pre-state view (which builds its own lists from the base graph).
#[test]
fn undirected_hop_matches_a_self_loop_once() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (a:A {name: 'a'}), (b:B {name: 'b'}), \
         (a)-[:R {k: 1}]->(a), (a)-[:R {k: 2}]->(b), (b)-[:R {k: 3}]->(a)",
    );
    let query = parse_query("MATCH (x:A)-[r]-(y) RETURN r.k AS k, y.name AS y").unwrap();
    let rows = |view: &dyn GraphView| {
        let params = Params::new();
        let out = Executor::new(Target::Read(view), &params, 0)
            .run(&query, Vec::new())
            .unwrap();
        let mut rows = out.rows;
        rows.sort_by(|a, b| a[0].cmp_order(&b[0]));
        rows
    };
    let want = vec![
        vec![Value::Int(1), Value::str("a")],
        vec![Value::Int(2), Value::str("b")],
        vec![Value::Int(3), Value::str("b")],
    ];
    assert_eq!(rows(&g), want, "graph");
    assert_eq!(rows(&g.snapshot()), want, "snapshot");
    g.begin().unwrap();
    let mark = g.mark();
    run(&mut g, "MATCH (x:A)-[r:R {k: 1}]-() DELETE r");
    let ops = g.ops_since(mark).to_vec();
    assert_eq!(rows(&g).len(), 2, "the loop is gone from the live graph");
    assert_eq!(rows(&PreStateView::new(&g, &ops)), want, "pre-state");
}

/// One value order decides sorting, `min`/`max`, grouping and every
/// `DISTINCT`: numbers compare by exact value, `NaN` sorts after every
/// number and ties only itself, and two values are one group exactly when
/// `ORDER BY` ties them. (`NaN` is checked with `is_nan`, since `Value`'s
/// `==` never holds for it.)
#[test]
fn one_value_order_sorts_and_groups() {
    let mut g = Graph::new();
    let col = |src: &str, g: &mut Graph| -> Vec<Value> {
        run(g, src)
            .rows
            .into_iter()
            .map(|mut r| r.remove(0))
            .collect()
    };
    let one = |src: &str, g: &mut Graph| -> Vec<Value> {
        let rows = run(g, src).rows;
        assert_eq!(rows.len(), 1, "{src}: {rows:?}");
        rows.into_iter().next().unwrap()
    };
    let is_nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());

    // ORDER BY: NaN after every number.
    let got = col(
        "UNWIND [3.0, 0.0/0.0, 1.0, 2.0, 0.5] AS x RETURN x ORDER BY x",
        &mut g,
    );
    assert_eq!(got[..4], [0.5, 1.0, 2.0, 3.0].map(Value::Float), "{got:?}");
    assert!(is_nan(&got[4]), "{got:?}");
    // min/max: NaN first in the list does not stick.
    let got = one(
        "UNWIND [0.0/0.0, 3.0, 1.0, 2.0, 0.5] AS x RETURN min(x), max(x)",
        &mut g,
    );
    assert_eq!(got[0], Value::Float(0.5), "{got:?}");
    assert!(is_nan(&got[1]), "{got:?}");
    // Int/Float by exact value beyond 2^53; the tie keeps input order.
    let got = col(
        "UNWIND [9007199254740993, 9007199254740992.0, 9007199254740992] AS x RETURN x ORDER BY x",
        &mut g,
    );
    let two53 = 1i64 << 53;
    let want = [
        Value::Float(two53 as f64),
        Value::Int(two53),
        Value::Int(two53 + 1),
    ];
    assert_eq!(got, want);

    // 1 and 1.0 are one group; the first-seen value stands for it.
    let ints = "UNWIND [1, toFloat(1)] AS x";
    let got = col(&format!("{ints} RETURN DISTINCT x"), &mut g);
    assert_eq!(got, [Value::Int(1)]);
    let got = one(&format!("{ints} RETURN count(DISTINCT x)"), &mut g);
    assert_eq!(got, [Value::Int(1)]);
    let got = one(&format!("{ints} RETURN collect(DISTINCT x)"), &mut g);
    assert_eq!(got, [Value::list([Value::Int(1)])]);
    let got = one(&format!("{ints} RETURN x, count(*)"), &mut g);
    assert_eq!(got, [Value::Int(1), Value::Int(2)]);
    for nested in ["[[1], [1.0]]", "[{a: 1}, {a: 1.0}]"] {
        let src = format!("UNWIND {nested} AS x RETURN count(DISTINCT x)");
        assert_eq!(one(&src, &mut g), [Value::Int(1)], "{src}");
    }

    // Two NaNs are one value.
    let nans = "UNWIND [0.0/0.0, 0.0/0.0] AS x";
    let got = one(&format!("{nans} RETURN count(DISTINCT x)"), &mut g);
    assert_eq!(got, [Value::Int(1)]);
    let got = col(&format!("{nans} RETURN DISTINCT x"), &mut g);
    assert!(got.len() == 1 && is_nan(&got[0]), "{got:?}");
    let got = one(&format!("{nans} RETURN x, count(*)"), &mut g);
    assert!(is_nan(&got[0]) && got[1] == Value::Int(2), "{got:?}");

    // WITH DISTINCT filters the deduplicated row, whose value is the
    // first-seen `1`.
    let src = format!("{ints} WITH DISTINCT x WHERE toString(x) = '1.0' RETURN x");
    assert!(run(&mut g, &src).rows.is_empty(), "{src}");

    // Beyond ±2^53 the equivalence stays exact (hence transitive), though
    // `=` calls these two equal; and 0.0 ties -0.0.
    for (list, n) in [
        ("[9007199254740993, 9007199254740992.0]", 2),
        ("[0.0, -0.0]", 1),
    ] {
        let src = format!("UNWIND {list} AS x RETURN count(DISTINCT x)");
        assert_eq!(one(&src, &mut g), [Value::Int(n)], "{src}");
    }
}

/// A grouping projection right after a `MATCH` takes the last hop once per
/// state under `MatchMode::Batched` and one row per match under
/// `MatchMode::Reference`; both give these answers. The graph has a
/// multi-edge (`a` twice to `h`) and a self-loop on `h`; the declining
/// shapes (a pre-bound last variable, a `WHERE` on the `MATCH`, a
/// variable-length last segment, a key that reads the last variable) run
/// as rows under both modes. `sum(a.name)` over strings concatenates
/// (`Value::add`), pushed once per candidate; `sum` over nodes fails with
/// the same error.
#[test]
fn last_hop_folds_into_the_groups_with_the_same_answers() {
    let mut g = Graph::new();
    run(
        &mut g,
        "CREATE (a:P {name: 'a'}), (b:P {name: 'b'}), (h:H {name: 'h'}), \
         (a)-[:T {w: 1}]->(h), (a)-[:T {w: 2}]->(h), (b)-[:T {w: 3}]->(h), \
         (h)-[:T {w: 4}]->(h)",
    );
    let (i, s) = (Value::Int, Value::str);
    let cases = [
        // multi-edges: three rows, two distinct patients
        (
            "MATCH (h:H) MATCH (h)<-[:T]-(p:P) \
             RETURN h.name AS h, count(*) AS n, count(DISTINCT p) AS d",
            vec![vec![s("h"), i(3), i(2)]],
        ),
        // the self-loop is one undirected match
        (
            "MATCH (h:H) MATCH (h)-[r:T]-(x) RETURN count(r) AS n, count(DISTINCT x) AS d",
            vec![vec![i(4), i(3)]],
        ),
        // the representative row is the state plus the first candidate
        (
            "MATCH (h:H) MATCH (h)<-[:T]-(p:P) RETURN count(p) + size(p.name) AS x",
            vec![vec![i(4)]],
        ),
        // an OPTIONAL MATCH seed with no candidates is its null row
        (
            "MATCH (p:P) OPTIONAL MATCH (p)<-[:T]-(x) \
             RETURN p.name AS p, count(x) AS n, collect(DISTINCT p.name) AS c",
            vec![
                vec![s("a"), i(0), Value::list([s("a")])],
                vec![s("b"), i(0), Value::list([s("b")])],
            ],
        ),
        // ... and comes before a later seed's folded candidates
        (
            "MATCH (x) OPTIONAL MATCH (x)<-[:T]-(p:P) \
             RETURN count(*) AS rows, count(p) AS n, collect(DISTINCT x.name) AS xs",
            vec![vec![i(5), i(3), Value::list([s("a"), s("b"), s("h")])]],
        ),
        (
            "MATCH (a:P) MATCH (a)-[:T]->(h:H) RETURN sum(a.name) AS s",
            vec![vec![s("0aab")]],
        ),
        // declines: a pre-bound last variable
        (
            "MATCH (p:P)-[:T]->(h:H) MATCH (p)-[:T]->(h) \
             RETURN p.name AS p, count(*) AS n",
            vec![vec![s("a"), i(4)], vec![s("b"), i(1)]],
        ),
        // a WHERE on the MATCH
        (
            "MATCH (h:H) MATCH (h)<-[r:T]-(p) WHERE r.w > 1 \
             RETURN count(*) AS n, sum(r.w) AS s",
            vec![vec![i(3), i(9)]],
        ),
        // a variable-length last segment
        (
            "MATCH (p:P {name: 'a'}) MATCH (p)-[:T*1..2]->(y) \
             RETURN count(*) AS n, count(DISTINCT y) AS d",
            vec![vec![i(4), i(1)]],
        ),
        // a key that reads the last variable
        (
            "MATCH (h:H) MATCH (h)<-[:T]-(p) RETURN p.name AS p, count(*) AS n ORDER BY p",
            vec![vec![s("a"), i(2)], vec![s("b"), i(1)], vec![s("h"), i(1)]],
        ),
    ];
    let params = Params::new();
    let under = |mode, src: &str| {
        Executor::new(Target::Read(&g), &params, 0)
            .with_match_mode(mode)
            .run(&parse_query(src).unwrap(), Vec::new())
    };
    for (src, want) in cases {
        for mode in [MatchMode::Batched, MatchMode::Reference] {
            let got = under(mode, src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(got.rows, want, "{mode:?}: {src}");
        }
    }
    let src = "MATCH (h:H) MATCH (h)<-[:T]-(p:P) RETURN sum(p) AS s";
    for mode in [MatchMode::Batched, MatchMode::Reference] {
        let err = under(mode, src).unwrap_err();
        assert_eq!(
            err,
            CypherError::Type("sum() over non-numeric values".into()),
            "{mode:?}"
        );
    }
}

/// A shared hop keeps only the candidates its node test passed, and a
/// test that fails to evaluate fails only where testing per row would:
/// `nope` is bound nowhere, so testing `c` raises `UnboundVariable` — but
/// from each `b`, the one relationship back to its `a` is already used, so
/// per row nothing reaches the test. An unused relationship at each `b`
/// makes both modes fail alike.
#[test]
fn shared_hop_test_errors_where_a_per_row_test_would() {
    let mut g = Graph::new();
    run(&mut g, "CREATE (:A)-[:R]->(:B), (:A)-[:R]->(:B)");
    let src = "MATCH (a:A) MATCH (a)-[:R]->(b)-[:R]-(c {k: nope.k}) RETURN c";
    let params = Params::new();
    let under = |g: &Graph, mode| {
        Executor::new(Target::Read(g), &params, 0)
            .with_match_mode(mode)
            .run(&parse_query(src).unwrap(), Vec::new())
    };
    for mode in [MatchMode::Batched, MatchMode::Reference] {
        let out = under(&g, mode).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert!(out.rows.is_empty(), "{mode:?}");
    }
    run(&mut g, "MATCH (b:B) CREATE (b)-[:R]->(:C)");
    for mode in [MatchMode::Batched, MatchMode::Reference] {
        let err = under(&g, mode).unwrap_err();
        assert_eq!(err, CypherError::UnboundVariable("nope".into()), "{mode:?}");
    }
}
