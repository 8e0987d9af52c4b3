//! `CREATE INDEX` DDL through the session, and index consistency when the
//! engine aborts work: statement rollback inside an explicit transaction
//! and a trigger cascade cut off by `RecursionLimit`.

use pg_graph::{GraphView, NodeId, Value};
use pg_triggers::{EngineConfig, ExecResult, Session, TriggerError};
use std::collections::BTreeSet;

fn count(s: &mut Session, label: &str) -> i64 {
    s.run(&format!("MATCH (n:{label}) RETURN count(*) AS n"))
        .unwrap()
        .single()
        .and_then(|v| v.as_i64())
        .unwrap()
}

/// Every index lookup must agree with a brute-force scan.
fn assert_index_equals_scan(s: &Session, values: &[Value]) {
    let g = s.graph();
    let all = g.all_node_ids();
    for (label, key) in s.indexes() {
        for value in values {
            let via_index: BTreeSet<NodeId> = g
                .nodes_with_prop(&label, &key, value)
                .expect("indexed (label, key) must answer")
                .into_iter()
                .collect();
            let via_scan: BTreeSet<NodeId> = all
                .iter()
                .copied()
                .filter(|&id| {
                    g.node_has_label(id, &label)
                        && g.node_prop(id, &key)
                            .is_some_and(|have| have.eq3(value) == Some(true))
                })
                .collect();
            assert_eq!(via_index, via_scan, "({label},{key}) diverged on {value}");
        }
    }
}

#[test]
fn execute_dispatches_index_ddl() {
    let mut s = Session::new();
    s.run("CREATE (:M {name: 'a'}), (:M {name: 'b'})").unwrap();
    match s.execute("CREATE INDEX ON :M(name)").unwrap() {
        ExecResult::IndexCreated { label, key } => {
            assert_eq!((label.as_str(), key.as_str()), ("M", "name"));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(s.indexes(), vec![("M".to_string(), "name".to_string())]);
    // duplicate create and unknown drop are errors
    assert!(matches!(
        s.execute("CREATE INDEX ON :M(name)"),
        Err(TriggerError::Install(_))
    ));
    assert!(matches!(
        s.execute("DROP INDEX ON :M(nope)"),
        Err(TriggerError::Install(_))
    ));
    // the index actually serves matches
    let rows = s.run("MATCH (x:M {name: 'a'}) RETURN x.name AS n").unwrap();
    assert_eq!(rows.rows.len(), 1);
    match s.execute("DROP INDEX ON :M(name)").unwrap() {
        ExecResult::IndexDropped { label, key } => {
            assert_eq!((label.as_str(), key.as_str()), ("M", "name"));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(s.indexes().is_empty());
}

#[test]
fn index_consistent_after_statement_rollback_in_tx() {
    let mut s = Session::new();
    s.execute("CREATE INDEX ON :P(k)").unwrap();
    s.run("CREATE (:P {k: 1})").unwrap();
    s.begin().unwrap();
    s.run("CREATE (:P {k: 2})").unwrap();
    // failing statement: second clause errors after the first mutated
    let err = s.run("CREATE (:P {k: 3}) CREATE (:P {k: 1/0})");
    assert!(err.is_err());
    // statement-level rollback: k=3 gone, k=2 (earlier statement) kept
    let vals: Vec<Value> = (0..5).map(Value::Int).collect();
    assert_index_equals_scan(&s, &vals);
    assert_eq!(count(&mut s, "P"), 2);
    s.rollback().unwrap();
    assert_index_equals_scan(&s, &vals);
    assert_eq!(count(&mut s, "P"), 1);
}

#[test]
fn index_consistent_after_cascade_aborted_by_recursion_limit() {
    let mut s = Session::with_config(EngineConfig {
        max_cascade_depth: 8,
        ..EngineConfig::default()
    });
    s.execute("CREATE INDEX ON :Boom(k)").unwrap();
    s.run("CREATE (:Boom {k: 0})").unwrap();
    // self-feeding trigger: every :Boom creates another :Boom — the cascade
    // must hit the depth bound and roll the whole statement back.
    s.install(
        "CREATE TRIGGER boom AFTER CREATE ON 'Boom' FOR EACH NODE
         BEGIN CREATE (:Boom {k: 1}) END",
    )
    .unwrap();
    let err = s.run("CREATE (:Boom {k: 2})").unwrap_err();
    assert!(matches!(err, TriggerError::RecursionLimit { .. }), "{err}");
    // everything the aborted cascade created is gone — from the graph AND
    // from the index
    let vals: Vec<Value> = (0..3).map(Value::Int).collect();
    assert_index_equals_scan(&s, &vals);
    assert_eq!(count(&mut s, "Boom"), 1);
    assert_eq!(
        s.graph().nodes_with_prop("Boom", "k", &Value::Int(1)),
        Some(vec![])
    );
    // the engine still works afterwards: drop the trigger, mutate, look up
    s.execute("DROP TRIGGER boom").unwrap();
    s.run("CREATE (:Boom {k: 2})").unwrap();
    assert_index_equals_scan(&s, &vals);
    assert_eq!(
        s.graph()
            .nodes_with_prop("Boom", "k", &Value::Int(2))
            .map(|v| v.len()),
        Some(1)
    );
}

#[test]
fn single_key_ddl_is_the_width_one_definition() {
    let mut s = Session::new();
    s.execute("CREATE INDEX ON :L(k)").unwrap();
    // the same definition through the multi-key front door
    assert!(!s.graph_mut().create_composite_index("L", &["k".into()]));
    assert_eq!(
        s.graph().indexes(),
        vec![("L".to_string(), "k".to_string())]
    );
    assert!(s.graph().composite_indexes().is_empty());
    s.execute("DROP INDEX ON :L(k)").unwrap();
    assert!(s.graph().indexes().is_empty());
    assert!(!s.graph().has_index("L", "k"));
}

#[test]
fn schema_key_and_index_props_create_indexes() {
    let mut s = Session::new();
    let gt = pg_schema::parse_graph_type(
        "CREATE GRAPH TYPE G LOOSE {
           (PatientType: Patient {ssn STRING KEY, name STRING INDEX, age INT32})
         }",
    )
    .unwrap();
    s.set_schema(gt);
    assert_eq!(
        s.indexes(),
        vec![
            ("Patient".to_string(), "name".to_string()),
            ("Patient".to_string(), "ssn".to_string()),
        ]
    );
}

#[test]
fn execute_dispatches_rel_index_ddl() {
    let mut s = Session::new();
    s.run("CREATE (:H {n: 1})-[:ConnectedTo {distance: 5}]->(:H {n: 2})")
        .unwrap();
    match s
        .execute("CREATE INDEX ON -[:ConnectedTo(distance)]-")
        .unwrap()
    {
        ExecResult::RelIndexCreated { rel_type, key } => {
            assert_eq!(
                (rel_type.as_str(), key.as_str()),
                ("ConnectedTo", "distance")
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        s.rel_indexes(),
        vec![("ConnectedTo".to_string(), "distance".to_string())]
    );
    // populated from the live extent
    assert_eq!(
        s.graph()
            .rels_with_prop("ConnectedTo", "distance", &Value::Int(5))
            .map(|v| v.len()),
        Some(1)
    );
    // duplicate create and unknown drop are errors
    assert!(matches!(
        s.execute("CREATE INDEX ON -[:ConnectedTo(distance)]-"),
        Err(TriggerError::Install(_))
    ));
    assert!(matches!(
        s.execute("DROP INDEX ON -[:ConnectedTo(nope)]-"),
        Err(TriggerError::Install(_))
    ));
    // the dash-less form parses too
    s.execute("CREATE INDEX ON [:ConnectedTo(weight)]").unwrap();
    assert_eq!(s.rel_indexes().len(), 2);
    match s
        .execute("DROP INDEX ON -[:ConnectedTo(distance)]-")
        .unwrap()
    {
        ExecResult::RelIndexDropped { rel_type, key } => {
            assert_eq!(
                (rel_type.as_str(), key.as_str()),
                ("ConnectedTo", "distance")
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(s.rel_indexes().len(), 1);
}

#[test]
fn rel_index_consistent_after_statement_rollback_in_tx() {
    let mut s = Session::new();
    s.execute("CREATE INDEX ON -[:R(w)]-").unwrap();
    s.run("CREATE (:A {i: 0})-[:R {w: 1}]->(:A {i: 1})")
        .unwrap();
    s.begin().unwrap();
    s.run("MATCH (a:A {i: 0}), (b:A {i: 1}) CREATE (a)-[:R {w: 2}]->(b)")
        .unwrap();
    // failing statement rolls back only its own rel
    let err =
        s.run("MATCH (a:A {i: 0}), (b:A {i: 1}) CREATE (a)-[:R {w: 3}]->(b) CREATE (:X {k: 1/0})");
    assert!(err.is_err());
    let g = s.graph();
    assert_eq!(
        g.rels_with_prop("R", "w", &Value::Int(2)).map(|v| v.len()),
        Some(1)
    );
    assert_eq!(g.rels_with_prop("R", "w", &Value::Int(3)), Some(vec![]));
    s.rollback().unwrap();
    let g = s.graph();
    assert_eq!(g.rels_with_prop("R", "w", &Value::Int(2)), Some(vec![]));
    assert_eq!(
        g.rels_with_prop("R", "w", &Value::Int(1)).map(|v| v.len()),
        Some(1)
    );
}

#[test]
fn schema_edge_index_props_create_rel_indexes() {
    let mut s = Session::new();
    let gt = pg_schema::parse_graph_type(
        "CREATE GRAPH TYPE G LOOSE {
           (HospitalType: Hospital {name STRING}),
           (:HospitalType)-[CT: ConnectedTo {distance INT32 INDEX}]->(:HospitalType)
         }",
    )
    .unwrap();
    s.set_schema(gt);
    assert_eq!(
        s.rel_indexes(),
        vec![("ConnectedTo".to_string(), "distance".to_string())]
    );
}

#[test]
fn rel_index_serves_rel_property_trigger_condition() {
    // The §6.2.3 MoveToNearHospital shape: ORDER BY ct.distance over
    // ConnectedTo — here a rel-prop equality inside a trigger condition.
    let mut s = Session::new();
    s.execute("CREATE INDEX ON -[:ConnectedTo(distance)]-")
        .unwrap();
    for i in 0..40 {
        s.run(&format!(
            "CREATE (:Hospital {{n: {i}}})-[:ConnectedTo {{distance: {i}}}]->(:Hospital {{n: {}}})",
            i + 100
        ))
        .unwrap();
    }
    s.install(
        "CREATE TRIGGER near AFTER CREATE ON 'Probe' FOR EACH NODE
         WHEN MATCH (a:Hospital)-[ct:ConnectedTo {distance: 7}]->(b:Hospital)
         BEGIN CREATE (:Alert {from: a.n, to: b.n}) END",
    )
    .unwrap();
    s.run("CREATE (:Probe)").unwrap();
    assert_eq!(count(&mut s, "Alert"), 1);
    let rows = s
        .run("MATCH (al:Alert) RETURN al.from AS f, al.to AS t")
        .unwrap();
    assert_eq!(rows.rows[0], vec![Value::Int(7), Value::Int(107)]);
}

#[test]
fn indexed_condition_still_fires_triggers_exactly() {
    // The planner must not change trigger semantics: an indexed equality
    // condition fires for the matching item only.
    let mut s = Session::new();
    s.execute("CREATE INDEX ON :Hospital(name)").unwrap();
    for i in 0..50 {
        s.run(&format!("CREATE (:Hospital {{name: 'H{i}'}})"))
            .unwrap();
    }
    s.install(
        "CREATE TRIGGER sacco_admission AFTER CREATE ON 'Admission' FOR EACH NODE
         WHEN MATCH (h:Hospital {name: 'H7'}) WHERE NEW.hospital = h.name
         BEGIN CREATE (:Alert {desc: 'admission at H7'}) END",
    )
    .unwrap();
    s.run("CREATE (:Admission {hospital: 'H3'})").unwrap();
    assert_eq!(count(&mut s, "Alert"), 0);
    s.run("CREATE (:Admission {hospital: 'H7'})").unwrap();
    assert_eq!(count(&mut s, "Alert"), 1);
}
