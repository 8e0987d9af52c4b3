//! `EXPLAIN` dispatch through [`Session::execute`].

use pg_graph::GraphView;
use pg_triggers::{ExecResult, Session};

fn session_with_people() -> Session {
    let mut s = Session::new();
    s.execute("CREATE INDEX ON :Person(age)").unwrap();
    s.run("CREATE (:Person {age: 30}), (:Person {age: 40}), (:Person {age: 50})")
        .unwrap();
    s
}

#[test]
fn execute_routes_explain() {
    let mut s = session_with_people();
    let report = match s.execute("EXPLAIN MATCH (p:Person) WHERE p.age = 40 RETURN p") {
        Ok(ExecResult::Explain(r)) => r,
        other => panic!("expected Explain, got {other:?}"),
    };
    assert!(
        report.contains("Seed (p) access=IndexEq(Person.age)"),
        "{report}"
    );
    assert!(report.contains("actual rows: 1"), "{report}");
}

#[test]
fn explain_is_case_insensitive_and_requires_whitespace() {
    let mut s = session_with_people();
    match s.execute("explain MATCH (p:Person) RETURN p") {
        Ok(ExecResult::Explain(r)) => assert!(r.contains("actual rows: 3"), "{r}"),
        other => panic!("expected Explain, got {other:?}"),
    }
    // `EXPLAINED` is not an EXPLAIN statement: it must parse (and fail)
    // as a regular query, not silently explain its suffix.
    assert!(s.execute("EXPLAINED MATCH (p:Person) RETURN p").is_err());
}

#[test]
fn explain_does_not_mutate() {
    let mut s = session_with_people();
    match s.execute("EXPLAIN CREATE (:Person {age: 60})") {
        Ok(ExecResult::Explain(r)) => {
            assert!(r.contains("not executed (updating query)"), "{r}");
        }
        other => panic!("expected Explain, got {other:?}"),
    }
    let n = s
        .run("MATCH (p:Person) RETURN count(*) AS n")
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap();
    assert_eq!(n, 3, "EXPLAIN of an updating query must not run it");
}

#[test]
fn explain_read_only_query_leaves_graph_unchanged() {
    let mut s = session_with_people();
    let before = s.graph().all_node_ids();
    s.execute("EXPLAIN MATCH (p:Person)-[:KNOWS]->(q) RETURN p, q")
        .unwrap();
    assert_eq!(s.graph().all_node_ids(), before);
}

/// The `est=… rows` figure of the seed line.
fn seed_estimate(report: &str) -> &str {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with("Seed "))
        .unwrap_or_else(|| panic!("no Seed line in {report}"));
    line.split("est=").nth(1).expect("Seed line carries est=")
}

#[test]
fn explain_plans_under_its_parameters() {
    use pg_cypher::Params;
    use pg_graph::Value;
    let mut s = session_with_people();
    let inlined = match s.execute("EXPLAIN MATCH (p:Person {age: 40}) RETURN p") {
        Ok(ExecResult::Explain(r)) => r,
        other => panic!("expected Explain, got {other:?}"),
    };
    let stmt = s
        .prepare("EXPLAIN MATCH (p:Person {age: $age}) RETURN p")
        .unwrap();
    let params: Params = [("age".to_string(), Value::Int(40))].into();
    let bound = match s.run_prepared(&stmt, Vec::new(), &params) {
        Ok(ExecResult::Explain(r)) => r,
        other => panic!("expected Explain, got {other:?}"),
    };
    assert!(bound.contains("access=IndexEq(Person.age)"), "{bound}");
    assert_eq!(seed_estimate(&bound), seed_estimate(&inlined), "{bound}");
    assert!(bound.contains("actual rows: 1"), "{bound}");
    // Unbound, the same text still explains, but estimates nothing found.
    let unbound = match s.run_prepared(&stmt, Vec::new(), &Params::new()) {
        Ok(ExecResult::Explain(r)) => r,
        other => panic!("expected Explain, got {other:?}"),
    };
    assert_ne!(seed_estimate(&unbound), seed_estimate(&bound), "{unbound}");
}

#[test]
fn ddl_takes_no_parameters_and_run_takes_no_ddl() {
    use pg_cypher::{CypherError, Params};
    use pg_graph::Value;
    use pg_triggers::TriggerError;
    let mut s = session_with_people();
    let params: Params = [("k".to_string(), Value::Int(1))].into();
    let ddl = s.prepare("CREATE INDEX ON :Person(name)").unwrap();
    match s.run_prepared(&ddl, Vec::new(), &params) {
        Err(TriggerError::Cypher(CypherError::Type(msg))) => {
            assert!(msg.contains("no parameters"), "{msg}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // The row-returning front refuses DDL before it takes effect.
    assert!(matches!(
        s.run("CREATE INDEX ON :Person(name)"),
        Err(TriggerError::Session(_))
    ));
    assert_eq!(
        s.indexes(),
        [pg_triggers::IndexDef::node("Person", &["age"])]
    );
}
