//! End-to-end query execution tests for the Cypher subset.

use pg_cypher::exec::CHUNK_ROWS;
use pg_cypher::{
    parse_query, run_ast, run_query, run_read_only, CypherError, Executor, MatchMode, Params, Row,
    Target,
};
use pg_graph::{Graph, GraphView, Value, MAX_NESTING};

fn g() -> Graph {
    Graph::new()
}

fn run(graph: &mut Graph, src: &str) -> pg_cypher::QueryOutput {
    run_query(graph, src, &Params::new(), 0).unwrap_or_else(|e| panic!("{src}: {e}"))
}

#[test]
fn create_and_match_roundtrip() {
    let mut graph = g();
    run(&mut graph, "CREATE (:Person {name: 'Ada', age: 36})");
    run(&mut graph, "CREATE (:Person {name: 'Bob', age: 20})");
    let out = run(
        &mut graph,
        "MATCH (p:Person) WHERE p.age > 30 RETURN p.name AS name",
    );
    assert_eq!(out.columns, vec!["name"]);
    assert_eq!(out.rows, vec![vec![Value::str("Ada")]]);
}

#[test]
fn create_path_binds_and_connects() {
    let mut graph = g();
    let out = run(
        &mut graph,
        "CREATE (a:A {x: 1})-[r:REL {w: 2}]->(b:B) RETURN a.x AS ax, r.w AS rw",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(1), Value::Int(2)]]);
    assert_eq!(graph.node_count(), 2);
    assert_eq!(graph.rel_count(), 1);
    let out = run(&mut graph, "MATCH (:A)-[:REL]->(b:B) RETURN count(*) AS n");
    assert_eq!(out.single(), Some(&Value::Int(1)));
}

#[test]
fn match_then_create_per_row() {
    let mut graph = g();
    run(&mut graph, "CREATE (:P {i: 1}) CREATE (:P {i: 2})");
    run(
        &mut graph,
        "MATCH (p:P) CREATE (p)-[:HAS]->(:Child {of: p.i})",
    );
    let out = run(&mut graph, "MATCH (:P)-[:HAS]->(c) RETURN count(c) AS n");
    assert_eq!(out.single(), Some(&Value::Int(2)));
}

#[test]
fn aggregation_with_grouping() {
    let mut graph = g();
    run(
        &mut graph,
        "CREATE (:E {dept: 'a', pay: 10}), (:E {dept: 'a', pay: 30}), (:E {dept: 'b', pay: 5})",
    );
    let out = run(
        &mut graph,
        "MATCH (e:E) RETURN e.dept AS dept, sum(e.pay) AS total, count(*) AS n ORDER BY dept",
    );
    assert_eq!(
        out.rows,
        vec![
            vec![Value::str("a"), Value::Int(40), Value::Int(2)],
            vec![Value::str("b"), Value::Int(5), Value::Int(1)],
        ]
    );
}

#[test]
fn count_on_empty_is_zero() {
    let mut graph = g();
    let out = run(&mut graph, "MATCH (n:Nothing) RETURN count(*) AS n");
    assert_eq!(out.single(), Some(&Value::Int(0)));
}

#[test]
fn aggregate_in_arithmetic_expression() {
    // The paper's IcuPatientIncrease uses NewIcuPat / TotalIcuPat > 0.1.
    let mut graph = g();
    run(&mut graph, "CREATE (:N {v: 1}), (:N {v: 2}), (:N {v: 3})");
    let out = run(
        &mut graph,
        "MATCH (n:N) WITH count(n) AS total MATCH (m:N) WHERE m.v > 1 WITH count(m) AS big, total RETURN big * 1.0 / total > 0.5 AS frac",
    );
    assert_eq!(out.single(), Some(&Value::Bool(true)));
}

#[test]
fn with_where_filters_groups() {
    let mut graph = g();
    run(&mut graph, "CREATE (:P), (:P), (:P)");
    let out = run(
        &mut graph,
        "MATCH (p:P) WITH count(p) AS n WHERE n > 50 RETURN n",
    );
    assert!(out.rows.is_empty());
    let out = run(
        &mut graph,
        "MATCH (p:P) WITH count(p) AS n WHERE n > 2 RETURN n",
    );
    assert_eq!(out.single(), Some(&Value::Int(3)));
}

#[test]
fn set_and_remove_props_and_labels() {
    let mut graph = g();
    run(&mut graph, "CREATE (:T {a: 1})");
    run(&mut graph, "MATCH (t:T) SET t.a = 2, t.b = 'x', t:Extra");
    let out = run(&mut graph, "MATCH (t:Extra) RETURN t.a AS a, t.b AS b");
    assert_eq!(out.rows, vec![vec![Value::Int(2), Value::str("x")]]);
    run(&mut graph, "MATCH (t:T) REMOVE t.b, t:Extra");
    let out = run(&mut graph, "MATCH (t:T) RETURN t.b AS b");
    assert_eq!(out.rows, vec![vec![Value::Null]]);
    assert!(graph.nodes_with_label("Extra").is_empty());
}

#[test]
fn set_plus_eq_merges_map() {
    let mut graph = g();
    run(&mut graph, "CREATE (:T {a: 1, keep: true})");
    run(&mut graph, "MATCH (t:T) SET t += {a: 9, extra: 'y'}");
    let out = run(
        &mut graph,
        "MATCH (t:T) RETURN t.a AS a, t.keep AS k, t.extra AS e",
    );
    assert_eq!(
        out.rows,
        vec![vec![Value::Int(9), Value::Bool(true), Value::str("y")]]
    );
    // replace-all
    run(&mut graph, "MATCH (t:T) SET t = {only: 1}");
    let out = run(&mut graph, "MATCH (t:T) RETURN t.a AS a, t.only AS o");
    assert_eq!(out.rows, vec![vec![Value::Null, Value::Int(1)]]);
}

#[test]
fn setting_null_removes_property() {
    let mut graph = g();
    run(&mut graph, "CREATE (:T {a: 1})");
    run(&mut graph, "MATCH (t:T) SET t.a = null");
    let out = run(&mut graph, "MATCH (t:T) RETURN t.a AS a");
    assert_eq!(out.rows, vec![vec![Value::Null]]);
}

#[test]
fn delete_and_detach_delete() {
    let mut graph = g();
    run(&mut graph, "CREATE (a:A)-[:R]->(b:B)");
    // plain DELETE on a connected node fails
    let err = run_query(&mut graph, "MATCH (a:A) DELETE a", &Params::new(), 0).unwrap_err();
    assert!(matches!(err, CypherError::Store(_)));
    run(&mut graph, "MATCH (a:A) DETACH DELETE a");
    assert_eq!(graph.node_count(), 1);
    assert_eq!(graph.rel_count(), 0);
}

#[test]
fn delete_relationship_only() {
    let mut graph = g();
    run(&mut graph, "CREATE (a:A)-[:R]->(b:B)");
    run(&mut graph, "MATCH (:A)-[r:R]->(:B) DELETE r");
    assert_eq!(graph.rel_count(), 0);
    assert_eq!(graph.node_count(), 2);
}

#[test]
fn merge_creates_then_matches() {
    let mut graph = g();
    run(
        &mut graph,
        "MERGE (n:Acc {k: 1}) ON CREATE SET n.created = true ON MATCH SET n.matched = true",
    );
    assert_eq!(graph.node_count(), 1);
    run(
        &mut graph,
        "MERGE (n:Acc {k: 1}) ON CREATE SET n.created2 = true ON MATCH SET n.matched = true",
    );
    assert_eq!(graph.node_count(), 1);
    let out = run(
        &mut graph,
        "MATCH (n:Acc) RETURN n.created AS c, n.matched AS m, n.created2 AS c2",
    );
    assert_eq!(
        out.rows,
        vec![vec![Value::Bool(true), Value::Bool(true), Value::Null]]
    );
}

#[test]
fn unwind_and_collect() {
    let mut graph = g();
    let out = run(&mut graph, "UNWIND [3, 1, 2] AS x RETURN collect(x) AS xs");
    assert_eq!(
        out.single(),
        Some(&Value::list([Value::Int(3), Value::Int(1), Value::Int(2)]))
    );
    let out = run(
        &mut graph,
        "UNWIND [1, 2, 3] AS x WITH x WHERE x > 1 RETURN count(*) AS n",
    );
    assert_eq!(out.single(), Some(&Value::Int(2)));
    // UNWIND null produces no rows
    let out = run(&mut graph, "UNWIND null AS x RETURN x");
    assert!(out.rows.is_empty());
}

#[test]
fn foreach_updates_per_element() {
    let mut graph = g();
    run(
        &mut graph,
        "FOREACH (i IN range(1, 3) | CREATE (:Item {i: i}))",
    );
    let out = run(&mut graph, "MATCH (x:Item) RETURN count(*) AS n");
    assert_eq!(out.single(), Some(&Value::Int(3)));
}

#[test]
fn order_by_skip_limit_distinct() {
    let mut graph = g();
    run(
        &mut graph,
        "CREATE (:V {x: 3}), (:V {x: 1}), (:V {x: 2}), (:V {x: 1})",
    );
    let out = run(
        &mut graph,
        "MATCH (v:V) RETURN DISTINCT v.x AS x ORDER BY x DESC",
    );
    assert_eq!(
        out.rows,
        vec![
            vec![Value::Int(3)],
            vec![Value::Int(2)],
            vec![Value::Int(1)]
        ]
    );
    let out = run(
        &mut graph,
        "MATCH (v:V) RETURN DISTINCT v.x AS x ORDER BY x SKIP 1 LIMIT 1",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn order_by_with_limit_one_like_paper() {
    // MoveToNearHospital: WITH ct ORDER BY ct.distance LIMIT 1
    let mut graph = g();
    run(
        &mut graph,
        "CREATE (h:Hospital {name: 'Sacco'}) \
         CREATE (h)-[:ConnectedTo {distance: 50}]->(:Hospital {name: 'Far'}) \
         CREATE (h)-[:ConnectedTo {distance: 10}]->(:Hospital {name: 'Near'})",
    );
    let out = run(
        &mut graph,
        "MATCH (:Hospital {name: 'Sacco'})-[ct:ConnectedTo]-(hc:Hospital) \
         WITH ct, hc ORDER BY ct.distance LIMIT 1 RETURN hc.name AS name",
    );
    assert_eq!(out.rows, vec![vec![Value::str("Near")]]);
}

#[test]
fn optional_match_binds_null() {
    let mut graph = g();
    run(&mut graph, "CREATE (:L {n: 1})");
    let out = run(
        &mut graph,
        "MATCH (l:L) OPTIONAL MATCH (l)-[:NOPE]->(m) RETURN l.n AS n, m AS m",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(1), Value::Null]]);
}

#[test]
fn exists_subquery_in_where() {
    let mut graph = g();
    run(
        &mut graph,
        "CREATE (m:Mutation {name: 'D614G'})-[:Risk]->(:CriticalEffect) CREATE (:Mutation {name: 'benign'})",
    );
    let out = run(
        &mut graph,
        "MATCH (m:Mutation) WHERE EXISTS { MATCH (m)-[:Risk]-(:CriticalEffect) } RETURN m.name AS n",
    );
    assert_eq!(out.rows, vec![vec![Value::str("D614G")]]);
}

#[test]
fn params_flow_through() {
    let mut graph = g();
    run(&mut graph, "CREATE (:K {v: 10}), (:K {v: 20})");
    let mut params = Params::new();
    params.insert("min".into(), Value::Int(15));
    let out = run_query(
        &mut graph,
        "MATCH (k:K) WHERE k.v > $min RETURN k.v AS v",
        &params,
        0,
    )
    .unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(20)]]);
}

#[test]
fn datetime_uses_clock() {
    let mut graph = g();
    let out = run_query(
        &mut graph,
        "RETURN datetime() AS t",
        &Params::new(),
        123_456,
    )
    .unwrap();
    assert_eq!(out.single(), Some(&Value::DateTime(123_456)));
}

#[test]
fn read_only_target_rejects_writes() {
    let mut graph = g();
    run(&mut graph, "CREATE (:R)");
    let q = parse_query("CREATE (:Nope)").unwrap();
    let err = run_read_only(&graph, &q, Vec::new(), &Params::new(), 0).unwrap_err();
    assert!(matches!(err, CypherError::ReadOnly(_)));
    // reads are fine
    let q = parse_query("MATCH (r:R) RETURN count(*) AS n").unwrap();
    let out = run_read_only(&graph, &q, Vec::new(), &Params::new(), 0).unwrap();
    assert_eq!(out.single(), Some(&Value::Int(1)));
}

#[test]
fn seeded_execution_binds_transition_vars() {
    // Simulates the trigger engine: NEW bound to a node, statement uses it.
    let mut graph = g();
    run(&mut graph, "CREATE (:Mutation {name: 'E484K'})");
    let n = graph.nodes_with_label("Mutation")[0];
    let q =
        parse_query("CREATE (:Alert {desc: 'New critical mutation', mutation: NEW.name})").unwrap();
    let mut seed = Row::new();
    seed.set("NEW", Value::Node(n));
    run_ast(&mut graph, &q, vec![seed], &Params::new(), 0).unwrap();
    let out = run(&mut graph, "MATCH (a:Alert) RETURN a.mutation AS m");
    assert_eq!(out.rows, vec![vec![Value::str("E484K")]]);
}

#[test]
fn abort_clause_raises_only_with_rows() {
    let mut graph = g();
    run(&mut graph, "CREATE (:H {beds: -1})");
    let err = run_query(
        &mut graph,
        "MATCH (h:H) WHERE h.beds < 0 ABORT 'negative beds'",
        &Params::new(),
        0,
    )
    .unwrap_err();
    assert_eq!(err, CypherError::Aborted("negative beds".into()));
    // no matching rows → no abort
    run(
        &mut graph,
        "MATCH (h:H) WHERE h.beds > 0 ABORT 'unreachable'",
    );
}

#[test]
fn case_in_projection_like_memgraph_translation() {
    let mut graph = g();
    run(&mut graph, "CREATE (:P {age: 10}), (:P {age: 30})");
    let out = run(
        &mut graph,
        "MATCH (p:P) WITH CASE WHEN p.age > 18 THEN p END AS flag, p AS p \
         WHERE flag IS NOT NULL RETURN p.age AS age",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(30)]]);
}

#[test]
fn with_star_keeps_bindings() {
    let mut graph = g();
    run(&mut graph, "CREATE (:S {a: 1})");
    let out = run(
        &mut graph,
        "MATCH (s:S) WITH *, s.a + 1 AS b RETURN s.a AS a, b",
    );
    assert_eq!(out.rows, vec![vec![Value::Int(1), Value::Int(2)]]);
}

#[test]
fn labels_and_id_functions() {
    let mut graph = g();
    run(&mut graph, "CREATE (:X:Y {p: 1})");
    let out = run(
        &mut graph,
        "MATCH (n:X) RETURN labels(n) AS ls, id(n) >= 0 AS has_id",
    );
    assert_eq!(
        out.rows,
        vec![vec![
            Value::list([Value::str("X"), Value::str("Y")]),
            Value::Bool(true)
        ]]
    );
}

#[test]
fn multiple_statements_build_covid_like_graph() {
    let mut graph = g();
    run(
        &mut graph,
        "CREATE (m:Mutation {name: 'Spike:D614G', protein: 'Spike'}) \
         CREATE (e:CriticalEffect {description: 'Enhanced infectivity'}) \
         CREATE (m)-[:Risk]->(e)",
    );
    run(
        &mut graph,
        "CREATE (s:Sequence {accession: 'S1'}) \
         CREATE (l:Lineage {name: 'B.1.1.7', whoDesignation: 'Alpha'}) \
         CREATE (s)-[:BelongsTo]->(l)",
    );
    run(
        &mut graph,
        "MATCH (m:Mutation {name: 'Spike:D614G'}), (s:Sequence {accession: 'S1'}) \
         CREATE (m)-[:FoundIn]->(s)",
    );
    // the NewCriticalLineage condition pattern
    let out = run(
        &mut graph,
        "MATCH (s:Sequence)-[:BelongsTo]-(l:Lineage) \
         WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) } \
         RETURN l.name AS lineage",
    );
    assert_eq!(out.rows, vec![vec![Value::str("B.1.1.7")]]);
}

#[test]
fn type_errors_are_reported() {
    let mut graph = g();
    run(&mut graph, "CREATE (:T {a: 1})");
    assert!(run_query(&mut graph, "MATCH (t:T) SET t.a = t", &Params::new(), 0).is_err()); // node not storable
    assert!(run_query(&mut graph, "RETURN 1 + 'x' - 2", &Params::new(), 0).is_err()); // "1x" - 2
    assert!(run_query(&mut graph, "RETURN true + 1", &Params::new(), 0).is_err());
}

#[test]
fn var_length_reachability() {
    let mut graph = g();
    run(
        &mut graph,
        "CREATE (:Hop {i: 0})-[:N]->(:Hop {i: 1}) \
         WITH 1 AS _ MATCH (a:Hop {i: 1}) CREATE (a)-[:N]->(:Hop {i: 2})",
    );
    let out = run(
        &mut graph,
        "MATCH (a:Hop {i: 0})-[:N*]->(b) RETURN count(b) AS n",
    );
    assert_eq!(out.single(), Some(&Value::Int(2)));
}

#[test]
fn merge_relationship_pattern() {
    let mut graph = g();
    run(&mut graph, "CREATE (:A {k: 1}) CREATE (:B {k: 2})");
    run(&mut graph, "MATCH (a:A), (b:B) MERGE (a)-[:LINK]->(b)");
    assert_eq!(graph.rel_count(), 1);
    // merging again is a no-op
    run(&mut graph, "MATCH (a:A), (b:B) MERGE (a)-[:LINK]->(b)");
    assert_eq!(graph.rel_count(), 1);
}

// ---------------------------------------------------------------------
// The streaming pipeline keeps clause-at-a-time semantics. Every case
// below runs more rows than one chunk, so a clause that streamed where it
// must not would see a partial input.
// ---------------------------------------------------------------------

/// More rows than one chunk, and not a multiple of it.
const OVER_A_CHUNK: usize = CHUNK_ROWS + 37;

/// `src`'s rows under both match modes, which must agree.
fn rows_both_modes(graph: &Graph, src: &str) -> Vec<Vec<Value>> {
    let query = parse_query(src).unwrap();
    let params = Params::new();
    let [batched, reference] = [MatchMode::Batched, MatchMode::Reference].map(|mode| {
        Executor::new(Target::Read(graph), &params, 0)
            .with_match_mode(mode)
            .run(&query, Vec::new())
            .unwrap_or_else(|e| panic!("{src}: {e}"))
            .rows
    });
    assert_eq!(batched, reference, "{src}");
    batched
}

#[test]
fn match_then_create_doubles_and_does_not_loop() {
    let mut graph = g();
    run(
        &mut graph,
        &format!("UNWIND range(1, {OVER_A_CHUNK}) AS i CREATE (:A {{i: i}})"),
    );
    run(&mut graph, "MATCH (n:A) CREATE (:A)");
    let out = run(&mut graph, "MATCH (n:A) RETURN count(*) AS n");
    assert_eq!(out.single(), Some(&Value::Int(2 * OVER_A_CHUNK as i64)));
}

#[test]
fn match_after_set_sees_the_new_values() {
    let mut graph = g();
    run(
        &mut graph,
        &format!("UNWIND range(1, {OVER_A_CHUNK}) AS i CREATE (:P {{v: 1}})"),
    );
    // A `LIMIT` right after the `SET` would stop a streaming `SET` after
    // its first chunk; the barrier sets every row before anything reads.
    let out = run(
        &mut graph,
        "MATCH (p:P) SET p.v = 2 WITH p LIMIT 1 MATCH (q:P {v: 1}) RETURN count(q) AS n",
    );
    assert_eq!(out.single(), Some(&Value::Int(0)));
    let out = run(
        &mut graph,
        "MATCH (p:P) SET p.v = p.v + 1 WITH p MATCH (p) RETURN sum(p.v) AS s",
    );
    assert_eq!(out.single(), Some(&Value::Int(3 * OVER_A_CHUNK as i64)));
}

#[test]
fn optional_match_null_binds_across_a_chunk_boundary() {
    let mut graph = g();
    // Seed `i` has `i % 3` matches: none, one, or two.
    run(
        &mut graph,
        &format!(
            "UNWIND range(0, {}) AS i CREATE (s:S {{i: i}}) \
             FOREACH (k IN range(1, i % 3) | CREATE (s)-[:R]->(:T {{k: k}}))",
            OVER_A_CHUNK - 1
        ),
    );
    let rows = rows_both_modes(
        &graph,
        "MATCH (s:S) OPTIONAL MATCH (s)-[:R]->(t:T) RETURN s.i AS i, t.k AS k",
    );
    let mut want = Vec::new();
    for i in 0..OVER_A_CHUNK as i64 {
        match i % 3 {
            0 => want.push(vec![Value::Int(i), Value::Null]),
            n => want.extend((1..=n).map(|k| vec![Value::Int(i), Value::Int(k)])),
        }
    }
    // In seed order, the null rows in their seeds' places.
    assert_eq!(rows, want);
}

#[test]
fn a_plain_limit_returns_the_rows_of_the_unlimited_query() {
    let mut graph = g();
    run(
        &mut graph,
        &format!("UNWIND range(1, {OVER_A_CHUNK}) AS i CREATE (:A {{i: i}})-[:R]->(:B {{i: i}})"),
    );
    for (full, skip, limit) in [
        ("MATCH (a:A)-[:R]->(b) RETURN b.i AS i", 0, 5),
        ("MATCH (a:A)-[:R]->(b) RETURN b.i AS i", 3, 4),
        ("MATCH (a:A)-[:R]->(b) RETURN b.i AS i", CHUNK_ROWS - 2, 5),
        (
            "MATCH (a:A) WITH a WHERE a.i % 2 = 0 RETURN a.i AS i",
            CHUNK_ROWS / 2 - 1,
            3,
        ),
        (
            "UNWIND range(1, 3000) AS x WITH x WHERE x % 7 = 0 RETURN x AS i",
            0,
            5,
        ),
    ] {
        let all = rows_both_modes(&graph, full);
        let limited = rows_both_modes(&graph, &format!("{full} SKIP {skip} LIMIT {limit}"));
        assert_eq!(
            limited,
            all[skip..skip + limit],
            "{full} SKIP {skip} LIMIT {limit}"
        );
    }
}

#[test]
fn a_value_built_at_run_time_is_bounded_on_a_connection_sized_stack() {
    /// `WITH 1 AS a` and then `steps` times `step`, run on the stack a
    /// server connection thread gets.
    fn build(step: &'static str, steps: usize) -> Result<Value, CypherError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let src = format!("WITH 1 AS a{} RETURN a IS NULL AS n", step.repeat(steps));
                let mut graph = Graph::new();
                run_query(&mut graph, &src, &Params::new(), 0).map(|out| out.rows[0][0].clone())
            })
            .unwrap()
            .join()
            .unwrap()
    }
    // Each step nests `a` one level deeper.
    for step in [
        " WITH [a] AS a",
        " WITH {k: a} AS a",
        " WITH [x IN [1] | a] AS a",
        " WITH collect(a) AS a",
    ] {
        assert_eq!(build(step, MAX_NESTING), Ok(Value::Bool(false)), "{step}");
        assert_eq!(
            build(step, MAX_NESTING + 1),
            Err(CypherError::TooDeep),
            "{step}"
        );
    }
    // `list + map` appends the map: two levels per step.
    assert_eq!(
        build(" WITH [] + {k: a} AS a", MAX_NESTING / 2),
        Ok(Value::Bool(false))
    );
    assert_eq!(
        build(" WITH [] + {k: a} AS a", MAX_NESTING / 2 + 1),
        Err(CypherError::TooDeep)
    );
    assert_eq!(build(" WITH [a] AS a", 100_000), Err(CypherError::TooDeep));
}
